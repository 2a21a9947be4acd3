"""Nonsmooth first-order residual of the penalized bilevel program.

The lower level is replaced by its optimality system, the remaining
complementarity gap is charged to the objective through the exact
penalty

    pi(y, z) = sum_i min(z_i, (b - A y)_i),

and min(a, c) is expressed as min_{(r,s) >= 0, r+s=1} (r a + s c).
Stationarity of the resulting penalized problem, together with its
feasibility and complementarity conditions written as

    lam_i - max(0, lam_i + t_i * h_i) = 0,

yields the square residual map Phi whose roots the Newton method hunts.
Phi(u) is returned as :class:`ResidualBlocks`: one vector, laid out like
the rows of the Jacobian, with a named view per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import BilevelProblem, BlockVector, IterateU, PenaltyParams


def eval_pi(problem: BilevelProblem, y, z):
    """Exact penalty value: the residual duality gap sum_i min(z_i, (b-Ay)_i)."""
    slack = problem.b - problem.A @ np.asarray(y, float)
    return float(np.minimum(np.asarray(z, float), slack).sum())


class ResidualBlocks(BlockVector):
    """Phi(u) as one vector ``vec`` with a named view per block, in
    stacking order.

    stat_* are the derivatives of the penalized Lagrangian with respect
    to x, y, z, r, s; eq_primal is the lower-level stationarity
    A^T z + x = 0; eq_simplex is r + s = e; comp1..comp5 are the
    complementarity residuals for the constraint families
    Dx <= d, Ay <= b, z >= 0, r >= 0, s >= 0.
    """

    ORDER = ("stat_x", "stat_y", "stat_z", "stat_r", "stat_s",
             "eq_primal", "eq_simplex",
             "comp1", "comp2", "comp3", "comp4", "comp5")


def selection_arguments(problem: BilevelProblem, u: IterateU,
                        params: PenaltyParams):
    """Arguments X^i = lam_i + t_i * h_i of the max terms, families 1..5.

    h_1 = Dx - d, h_2 = Ay - b, h_3 = -z, h_4 = -r, h_5 = -s.  Returned
    as a tuple (X1, ..., X5); the sign pattern of these vectors selects
    the active piece of each complementarity residual.
    """
    t = params.t
    X1 = u.lam1 + t[0] * (problem.D @ u.x - problem.d)
    X2 = u.lam2 + t[1] * (problem.A @ u.y - problem.b)
    X3 = u.lam3 - t[2] * u.z
    X4 = u.lam4 - t[3] * u.r
    X5 = u.lam5 - t[4] * u.s
    return X1, X2, X3, X4, X5


def eval_residual(problem: BilevelProblem, u: IterateU,
                  params: PenaltyParams) -> ResidualBlocks:
    """Evaluate all blocks of Phi at the iterate u."""
    A, D = problem.A, problem.D
    n, l, m = problem.n, problem.l, problem.m
    obj = problem.objective
    alpha = params.alpha
    X1, X2, X3, X4, X5 = selection_arguments(problem, u, params)
    lams = (u.lam1, u.lam2, u.lam3, u.lam4, u.lam5)
    comps = [lam - np.maximum(0.0, X)
             for lam, X in zip(lams, (X1, X2, X3, X4, X5))]
    vec = np.concatenate([
        obj.grad_x(u.x, u.y) + D.T @ u.lam1 + u.lam6,  # stat_x
        obj.grad_y(u.x, u.y) - alpha * A.T @ u.s + A.T @ u.lam2,  # stat_y
        alpha * u.r + A @ u.lam6 - u.lam3,  # stat_z
        alpha * u.z + u.lam7 - u.lam4,  # stat_r
        alpha * (problem.b - A @ u.y) + u.lam7 - u.lam5,  # stat_s
        A.T @ u.z + u.x,  # eq_primal
        u.r + u.s - 1.0,  # eq_simplex
        *comps,  # comp1..comp5
    ])
    return ResidualBlocks.wrap(vec, (n, n, l, l, l, n, l, m, l, l, l, l))


def eval_residual_vec(problem, u, params):
    """Phi(u) as one vector (the .vec of :func:`eval_residual`)."""
    return eval_residual(problem, u, params).vec


def eval_merit(problem, u, params):
    """Merit function Psi(u) = 1/2 ||Phi(u)||^2."""
    phi = eval_residual_vec(problem, u, params)
    return 0.5 * float(phi @ phi)


def check_noc(problem: BilevelProblem, u: IterateU, params: PenaltyParams):
    """Measure each first-order optimality condition of the penalized
    problem separately.

    Returns a dict of maximal violations; 'satisfied' reports whether
    every entry is at most 1e-8.  Useful to audit a candidate multiplier
    set independently of the max-based residual.
    """
    blocks = eval_residual(problem, u, params)
    viol = {
        "stationarity": max(float(np.abs(getattr(blocks, k)).max())
                            for k in ("stat_x", "stat_y", "stat_z",
                                      "stat_r", "stat_s")),
        "lower_stationarity": float(np.abs(blocks.eq_primal).max()),
        "simplex": float(np.abs(blocks.eq_simplex).max()),
        "primal_upper": float(np.maximum(problem.D @ u.x - problem.d, 0).max()),
        "primal_lower": float(np.maximum(problem.A @ u.y - problem.b, 0).max()),
        "primal_signs": float(max(np.maximum(-u.z, 0).max(),
                                  np.maximum(-u.r, 0).max(),
                                  np.maximum(-u.s, 0).max())),
        "dual_signs": float(max(np.maximum(-lam, 0).max() if lam.size else 0.0
                                for lam in (u.lam1, u.lam2, u.lam3,
                                            u.lam4, u.lam5))),
        "complementarity": float(max(
            np.abs(u.lam1 * (problem.D @ u.x - problem.d)).max()
            if u.lam1.size else 0.0,
            np.abs(u.lam2 * (problem.A @ u.y - problem.b)).max(),
            np.abs(u.lam3 * u.z).max(),
            np.abs(u.lam4 * u.r).max(),
            np.abs(u.lam5 * u.s).max())),
    }
    viol["satisfied"] = all(v <= 1e-8 for v in viol.values())
    return viol


@dataclass
class AffineSystem:
    """Mixed linear/complementarity form available when F is affine.

    The smooth residual rows become B1 @ X + B2 @ Gamma = v with
    X = (x, y, z, r, s) and Gamma = (lam1, ..., lam7); the remaining
    conditions are lam_ij - max(0, lam_ij + t_i * Psi_ij) = 0 where
    Psi(X) = (Dx - d, Ay - b, -z, -r, -s) covers families 1..5.
    """

    B1: np.ndarray
    B2: np.ndarray
    v: np.ndarray
    t_expanded: np.ndarray

    def psi(self, X, problem):
        n, l = problem.n, problem.l
        x, y = X[:n], X[n:2 * n]
        z, r, s = (X[2 * n:2 * n + l], X[2 * n + l:2 * n + 2 * l],
                   X[2 * n + 2 * l:2 * n + 3 * l])
        return np.concatenate([problem.D @ x - problem.d,
                               problem.A @ y - problem.b, -z, -r, -s])


def assemble_affine_system(problem: BilevelProblem,
                           params: PenaltyParams) -> AffineSystem:
    """Build the affine-objective system matrices.

    Requires the upper objective to be affine (constant gradients).
    Row order matches ResidualBlocks.ORDER restricted to the smooth
    blocks; column order of X is (x, y, z, r, s) and of Gamma is
    (lam1, ..., lam7).  The smooth rows of every generalized-Jacobian
    element are [B1 B2], and v is minus those rows of Phi at u = 0.
    """
    from .jacobian import generalized_element

    if not problem.objective.affine:
        raise ValueError("affine system requires an affine upper objective")
    n, l, m = problem.n, problem.l, problem.m
    rows, nX = 3 * n + 4 * l, 2 * n + 3 * l
    zero = IterateU.zeros(n, l, m)
    B = generalized_element(problem, zero, params).matrix[:rows]
    # 0.0 - phi rather than -phi: rows without a constant term get +0.0
    v = 0.0 - eval_residual_vec(problem, zero, params)[:rows]
    t = params.t
    t_expanded = np.concatenate([np.full(m, t[0])] +
                                [np.full(l, t[i]) for i in range(1, 5)])
    return AffineSystem(B1=B[:, :nX], B2=B[:, nX:], v=v,
                        t_expanded=t_expanded)
