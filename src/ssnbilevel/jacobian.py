"""Generalized and smoothed Jacobians of the penalized residual.

Each complementarity row lam_j - max(0, X_j) contributes a selection
weight p_j: the derivative of max(0, .) taken as 1 where X_j > 0, 0
where X_j < 0, and 1/2 at the kink X_j = 0.  Collecting one weight per
row yields an element of the generalized Jacobian.  The smoothed
variant replaces max(0, X) by (X + sqrt(X^2 + eps)) / 2, whose
classical derivative has the same block structure with effective
weights p = (1 + X / sqrt(X^2 + eps)) / 2.

Every element of one problem fits a fixed sparsity pattern that
depends only on (n, l, m) and the nonzero patterns of A and D (the
Hessian blocks count as full n x n).  The pattern is built once per
problem and cached on it (``BilevelProblem.element_pattern``); each
assembly fills only the values and drops the exact zeros, so the CSR
matrix stores exactly the nonzero entries of the element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .problem import BilevelProblem, block_slices
from .residual import ResidualBlocks, eval_residual_vec, selection_arguments


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


@dataclass(frozen=True)
class ElementPattern:
    """Every position a Jacobian element of one problem can fill.

    indices and indptr are the CSR structure of all those positions;
    order permutes the values of _values (listed block by block) into
    that CSR order.  Several blocks repeat the nonzeros of A and D,
    which are kept with their row indices.
    """

    shape: tuple
    indices: np.ndarray
    indptr: np.ndarray
    order: np.ndarray
    a_nz: tuple  # (rows, values) of the nonzeros of A
    d_nz: tuple  # the same for D


def element_pattern(problem: BilevelProblem) -> ElementPattern:
    """Build the fixed sparsity pattern of the problem's elements."""
    n, l, m = problem.n, problem.l, problem.m
    col = {name: s.start for name, s in block_slices(n, l, m).items()}
    lengths = (n, n, l, l, l, n, l, m, l, l, l, l)
    row = dict(zip(ResidualBlocks.ORDER,
                   np.concatenate(([0], np.cumsum(lengths)))))
    ai, aj = np.nonzero(problem.A)
    di, dj = np.nonzero(problem.D)
    full = np.divmod(np.arange(n * n), n)  # row-major n x n block
    eye_n, eye_l, eye_m = ((np.arange(k),) * 2 for k in (n, l, m))
    # (row block, column block, (local rows, local columns)), in the
    # order in which _values lists the entries
    blocks = [
        ("stat_x", "x", full), ("stat_x", "y", full),
        ("stat_x", "lam1", (dj, di)), ("stat_x", "lam6", eye_n),
        ("stat_y", "x", full), ("stat_y", "y", full),
        ("stat_y", "s", (aj, ai)), ("stat_y", "lam2", (aj, ai)),
        ("stat_z", "r", eye_l), ("stat_z", "lam6", (ai, aj)),
        ("stat_z", "lam3", eye_l),
        ("stat_r", "z", eye_l), ("stat_r", "lam7", eye_l),
        ("stat_r", "lam4", eye_l),
        ("stat_s", "y", (ai, aj)), ("stat_s", "lam7", eye_l),
        ("stat_s", "lam5", eye_l),
        ("eq_primal", "x", eye_n), ("eq_primal", "z", (aj, ai)),
        ("eq_simplex", "r", eye_l), ("eq_simplex", "s", eye_l),
        ("comp1", "x", (di, dj)), ("comp1", "lam1", eye_m),
        ("comp2", "y", (ai, aj)), ("comp2", "lam2", eye_l),
        ("comp3", "z", eye_l), ("comp3", "lam3", eye_l),
        ("comp4", "r", eye_l), ("comp4", "lam4", eye_l),
        ("comp5", "s", eye_l), ("comp5", "lam5", eye_l),
    ]
    rows = np.concatenate([row[rb] + i for rb, _, (i, _) in blocks])
    cols = np.concatenate([col[cb] + j for _, cb, (_, j) in blocks])
    N = problem.size
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=N))))
    return ElementPattern(shape=(N, N), indices=cols[order], indptr=indptr,
                          order=order,
                          a_nz=(ai, problem.A[ai, aj]),
                          d_nz=(di, problem.D[di, dj]))


def _values(problem, u, params, ps, pattern):
    """Values of the element with selection weights ps, in the block
    order of element_pattern."""
    n, l = problem.n, problem.l
    obj = problem.objective
    alpha, t = params.alpha, params.t
    p1, p2, p3, p4, p5 = ps
    ai, av = pattern.a_nz
    di, dv = pattern.d_nz
    one_n, one_l = np.ones(n), np.ones(l)
    return np.concatenate([
        # stat_x
        np.ravel(obj.hess_xx(u.x, u.y)), np.ravel(obj.hess_xy(u.x, u.y)),
        dv, one_n,
        # stat_y
        np.ravel(obj.hess_yx(u.x, u.y)), np.ravel(obj.hess_yy(u.x, u.y)),
        -alpha * av, av,
        # stat_z, stat_r, stat_s
        alpha * one_l, av, -one_l,
        alpha * one_l, one_l, -one_l,
        -alpha * av, one_l, -one_l,
        # eq_primal, eq_simplex
        one_n, av,
        one_l, one_l,
        # comp1: lam1 - max(0, lam1 + t1 (Dx - d))
        -t[0] * p1[di] * dv, 1.0 - p1,
        # comp2
        -t[1] * p2[ai] * av, 1.0 - p2,
        # comp3..comp5: arguments lam_i - t_i (z, r, s)
        t[2] * p3, 1.0 - p3,
        t[3] * p4, 1.0 - p4,
        t[4] * p5, 1.0 - p5,
    ])


def assemble(problem, u, params, ps) -> scipy.sparse.csr_array:
    """The Jacobian with selection weights ps = (p1, ..., p5) per
    complementarity family, as a CSR matrix without stored zeros.

    The one assembly path of the generalized element, the smoothed
    Jacobian and the regularity probe.
    """
    pattern = problem.element_pattern
    data = _values(problem, u, params, ps, pattern)[pattern.order]
    keep = data != 0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return scipy.sparse.csr_array(
        (data[keep], pattern.indices[keep], kept_before[pattern.indptr]),
        shape=pattern.shape)


def generalized_element(problem, u, params) -> JacobianElement:
    """An element of the generalized Jacobian of Phi at u, with weight
    1/2 on kink rows.

    Away from kinks (no X_ij exactly zero) the element is unique.
    """
    Xs = selection_arguments(problem, u, params)
    ps = tuple(selection_weights(X) for X in Xs)
    ties = tuple(X == 0 for X in Xs)
    return JacobianElement(sparse=assemble(problem, u, params, ps), p=ps,
                           ties=ties)


def smoothed_residual(problem, u, params):
    """Residual with max(0, X) replaced by (X + sqrt(X^2 + eps)) / 2.

    Coincides with the nonsmooth residual when params.epsilon == 0.
    """
    phi = eval_residual_vec(problem, u, params)
    if params.epsilon == 0:
        return phi
    n, l, m = problem.n, problem.l, problem.m
    Xs = selection_arguments(problem, u, params)
    lams = (u.lam1, u.lam2, u.lam3, u.lam4, u.lam5)
    smooth_comp = np.concatenate(
        [lam - 0.5 * (X + np.sqrt(X ** 2 + params.epsilon))
         for lam, X in zip(lams, Xs)])
    head = 3 * n + 4 * l  # rows before the complementarity blocks
    phi[head:] = smooth_comp
    return phi


def _smoothed_weights(problem, u, params):
    eps = params.epsilon
    return tuple(0.5 * (1.0 + X / np.sqrt(X ** 2 + eps))
                 for X in selection_arguments(problem, u, params))


def smoothed_jacobian(problem, u, params):
    """Classical Jacobian of the smoothed residual (eps > 0), or the
    generalized element when eps == 0, as a dense array."""
    if params.epsilon == 0:
        return generalized_element(problem, u, params).matrix
    return assemble(problem, u, params,
                    _smoothed_weights(problem, u, params)).toarray()


def fd_jacobian(problem, u, params, smoothed=True, h=1e-6):
    """Central finite-difference Jacobian of the (smoothed) residual.

    Reference implementation for verification; O(N) residual sweeps.
    """
    from .problem import pack, unpack

    n, l, m = problem.n, problem.l, problem.m
    fun = smoothed_residual if smoothed else eval_residual_vec

    def phi(vec):
        return fun(problem, unpack(vec, n, l, m), params)

    u_vec = pack(u)
    N = u_vec.shape[0]
    J = np.zeros((N, N))
    for j in range(N):
        e = np.zeros(N)
        e[j] = h
        J[:, j] = (phi(u_vec + e) - phi(u_vec - e)) / (2 * h)
    return J


def merit_gradient(problem, u, params, smoothed=True):
    """Gradient of Psi = 1/2 ||Phi||^2, i.e. C^T Phi for the matching
    Jacobian (smoothed or a generalized element)."""
    if smoothed and params.epsilon > 0:
        phi = smoothed_residual(problem, u, params)
        C = assemble(problem, u, params,
                     _smoothed_weights(problem, u, params))
    else:
        phi = eval_residual_vec(problem, u, params)
        C = generalized_element(problem, u, params).sparse
    return C.T @ phi
