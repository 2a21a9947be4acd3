"""Generalized and smoothed Jacobians of the penalized residual.

Each complementarity row lam_j - max(0, X_j) contributes a selection
weight p_j: the derivative of max(0, .) taken as 1 where X_j > 0, 0
where X_j < 0, and 1/2 at the kink X_j = 0.  Collecting one weight per
row yields an element of the generalized Jacobian.  The smoothed
variant replaces max(0, X) by (X + sqrt(X^2 + eps)) / 2, whose
classical derivative has the same block structure with effective
weights p = (1 + X / sqrt(X^2 + eps)) / 2.

Every element is filled from the problem's residual map
(``BilevelProblem.residual_map``, see residual.py), on the fixed CSR
pattern the map holds; each assembly computes the values and drops the
exact zeros, so the CSR matrix stores exactly the nonzero entries of
the element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .problem import unpack
from .residual import affine_part, eval_residual_vec


def selection_weights(X):
    """Per-row derivative selection for max(0, X): 1 on X > 0, 0 on
    X < 0 and 1/2 at the kink X = 0."""
    X = np.asarray(X, float)
    p = np.where(X > 0, 1.0, 0.0)
    p[X == 0] = 0.5
    return p


@dataclass
class JacobianElement:
    """One element of the generalized Jacobian with its selections."""

    sparse: scipy.sparse.csr_array  # stores no zero entries
    p: tuple  # (p1, ..., p5) selection weights per constraint family
    ties: tuple  # boolean masks of kink rows per family

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense copy of the element, made on first use."""
        return self.sparse.toarray()


def assemble(problem, params, ps) -> scipy.sparse.csr_array:
    """The Jacobian with selection weights ps = (p1, ..., p5) per
    complementarity family (or any split of the comp rows), as a CSR
    matrix without stored zeros.

    The one assembly path of the generalized element, the smoothed
    Jacobian and the regularity probe.
    """
    phimap = problem.residual_map
    a, b, h = phimap.coef
    zero = np.zeros(phimap.head)
    p = np.concatenate((zero, *ps))[phimap.rows]
    t = np.concatenate((zero, phimap.t_rows(params.t)))[phimap.rows]
    data = a + params.alpha * b - p * (a + t * h)
    keep = data != 0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return scipy.sparse.csr_array(
        (data[keep], phimap.indices[keep], kept_before[phimap.indptr]),
        shape=(problem.size, problem.size))


def generalized_element(problem, u, params) -> JacobianElement:
    """An element of the generalized Jacobian of Phi at u, with weight
    1/2 on kink rows.

    Away from kinks (no X_ij exactly zero) the element is unique.
    """
    _, X = affine_part(problem, u, params)
    p = selection_weights(X)
    families = np.cumsum(problem.residual_map.lengths[7:11])
    return JacobianElement(sparse=assemble(problem, params, (p,)),
                           p=tuple(np.split(p, families)),
                           ties=tuple(np.split(X == 0, families)))


def smoothed_residual(problem, u, params):
    """Residual with max(0, X) replaced by (X + sqrt(X^2 + eps)) / 2.

    Coincides with the nonsmooth residual when params.epsilon == 0.
    """
    if params.epsilon == 0:
        return eval_residual_vec(problem, u, params)
    return _smoothed(problem, u, params)[0]


def _smoothed(problem, u, params):
    """Phi_eps(u) and its Jacobian's selection weights, as ps for assemble."""
    phi, X = affine_part(problem, u, params)
    root = np.sqrt(X ** 2 + params.epsilon)
    phi[problem.residual_map.head:] -= 0.5 * (X + root)
    return phi, (0.5 * (1.0 + X / root),)


def smoothed_jacobian(problem, u, params):
    """Classical Jacobian of the smoothed residual (eps > 0), or the
    generalized element when eps == 0, as a dense array."""
    if params.epsilon == 0:
        return generalized_element(problem, u, params).matrix
    _, ps = _smoothed(problem, u, params)
    return assemble(problem, params, ps).toarray()


def fd_jacobian(problem, u, params, smoothed=True):
    """Central finite-difference Jacobian (step 1e-6) of the (smoothed)
    residual.

    Reference implementation for verification; O(N) residual sweeps.
    """
    n, l, m = problem.n, problem.l, problem.m
    fun = smoothed_residual if smoothed else eval_residual_vec

    def phi(vec):
        return fun(problem, unpack(vec, n, l, m), params)

    h = 1e-6
    N = u.vec.shape[0]
    J = np.zeros((N, N))
    for j in range(N):
        e = np.zeros(N)
        e[j] = h
        J[:, j] = (phi(u.vec + e) - phi(u.vec - e)) / (2 * h)
    return J


def merit_gradient(problem, u, params, smoothed=True):
    """Gradient of Psi = 1/2 ||Phi||^2, i.e. C^T Phi for the matching
    Jacobian (smoothed or a generalized element)."""
    if smoothed and params.epsilon > 0:
        phi, ps = _smoothed(problem, u, params)
        C = assemble(problem, params, ps)
    else:
        phi = eval_residual_vec(problem, u, params)
        C = generalized_element(problem, u, params).sparse
    return C.T @ phi
