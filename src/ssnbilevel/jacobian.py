"""Generalized and smoothed Jacobians of the penalized residual.

Each complementarity row lam_j - max(0, X_j) contributes a selection
weight p_j: the derivative of max(0, .) taken as 1 where X_j > 0, 0
where X_j < 0, and 1/2 at the kink X_j = 0.  Collecting one weight per
row yields an element of the generalized Jacobian.  The smoothed
variant replaces max(0, X) by (X + sqrt(X^2 + eps)) / 2, whose
classical derivative has the same block structure with effective
weights p = (1 + X / sqrt(X^2 + eps)) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import BilevelProblem, IterateU, PenaltyParams, block_slices
from .residual import eval_residual_vec, selection_arguments


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

    matrix: np.ndarray
    p: tuple  # (p1, ..., p5) selection weights per constraint family
    ties: tuple  # boolean masks of kink rows per family


def _assemble(problem: BilevelProblem, u: IterateU, params: PenaltyParams,
              p1, p2, p3, p4, p5):
    """Block assembly shared by the generalized and smoothed Jacobians."""
    n, l, m = problem.n, problem.l, problem.m
    A, D = problem.A, problem.D
    obj = problem.objective
    alpha = params.alpha
    t = params.t
    col = block_slices(n, l, m)
    N = problem.size
    C = np.zeros((N, N))
    I_n, I_l = np.eye(n), np.eye(l)

    row = 0
    # stat_x
    C[row:row + n, col["x"]] = obj.hess_xx(u.x, u.y)
    C[row:row + n, col["y"]] = obj.hess_xy(u.x, u.y)
    C[row:row + n, col["lam1"]] = D.T
    C[row:row + n, col["lam6"]] = I_n
    row += n
    # stat_y
    C[row:row + n, col["x"]] = obj.hess_yx(u.x, u.y)
    C[row:row + n, col["y"]] = obj.hess_yy(u.x, u.y)
    C[row:row + n, col["s"]] = -alpha * A.T
    C[row:row + n, col["lam2"]] = A.T
    row += n
    # stat_z
    C[row:row + l, col["r"]] = alpha * I_l
    C[row:row + l, col["lam6"]] = A
    C[row:row + l, col["lam3"]] = -I_l
    row += l
    # stat_r
    C[row:row + l, col["z"]] = alpha * I_l
    C[row:row + l, col["lam7"]] = I_l
    C[row:row + l, col["lam4"]] = -I_l
    row += l
    # stat_s
    C[row:row + l, col["y"]] = -alpha * A
    C[row:row + l, col["lam7"]] = I_l
    C[row:row + l, col["lam5"]] = -I_l
    row += l
    # eq_primal
    C[row:row + n, col["x"]] = I_n
    C[row:row + n, col["z"]] = A.T
    row += n
    # eq_simplex
    C[row:row + l, col["r"]] = I_l
    C[row:row + l, col["s"]] = I_l
    row += l
    # comp1: lam1 - max(0, lam1 + t1 (Dx - d))
    C[row:row + m, col["x"]] = -t[0] * p1[:, None] * D
    C[row:row + m, col["lam1"]] = np.diag(1.0 - p1)
    row += m
    # comp2
    C[row:row + l, col["y"]] = -t[1] * p2[:, None] * A
    C[row:row + l, col["lam2"]] = np.diag(1.0 - p2)
    row += l
    # comp3: argument lam3 - t3 z
    C[row:row + l, col["z"]] = np.diag(t[2] * p3)
    C[row:row + l, col["lam3"]] = np.diag(1.0 - p3)
    row += l
    # comp4
    C[row:row + l, col["r"]] = np.diag(t[3] * p4)
    C[row:row + l, col["lam4"]] = np.diag(1.0 - p4)
    row += l
    # comp5
    C[row:row + l, col["s"]] = np.diag(t[4] * p5)
    C[row:row + l, col["lam5"]] = np.diag(1.0 - p5)
    return C


def generalized_element(problem, u, params) -> JacobianElement:
    """An element of the generalized Jacobian of Phi at u, with weight
    1/2 on kink rows.

    Away from kinks (no X_ij exactly zero) the element is unique.
    """
    Xs = selection_arguments(problem, u, params)
    ps = tuple(selection_weights(X) for X in Xs)
    ties = tuple(X == 0 for X in Xs)
    C = _assemble(problem, u, params, *ps)
    return JacobianElement(matrix=C, p=ps, ties=ties)


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


def smoothed_jacobian(problem, u, params):
    """Classical Jacobian of the smoothed residual (eps > 0), or the
    generalized element when eps == 0."""
    eps = params.epsilon
    if eps == 0:
        return generalized_element(problem, u, params).matrix
    Xs = selection_arguments(problem, u, params)
    ps = tuple(0.5 * (1.0 + X / np.sqrt(X ** 2 + eps)) for X in Xs)
    return _assemble(problem, u, params, *ps)


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
        C = smoothed_jacobian(problem, u, params)
    else:
        phi = eval_residual_vec(problem, u, params)
        C = generalized_element(problem, u, params).matrix
    return C.T @ phi
