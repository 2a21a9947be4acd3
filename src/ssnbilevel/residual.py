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
import scipy.sparse

from .problem import (BilevelProblem, BlockVector, IterateU, PenaltyParams,
                      block_slices)

CONST, ALPHA, SELECT = 0, 1, 2  # the parts K0, K1 and H of the map


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


def _table(problem):
    """Phi block by block as (row block, column block, matrix, part).

    A scalar c stands for c times the identity; column block None marks
    a constant vector.  comp_i = lam_i - max(0, X_i) keeps its lam_i
    identity in K0 and the rest of X_i = lam_i + t_i (H u + h)_i, with
    H u + h = (Dx - d, Ay - b, -z, -r, -s), in H and h.
    """
    A, D, b, obj = problem.A, problem.D, problem.b, problem.objective
    return [
        ("stat_x", "x", obj.Qxx, CONST), ("stat_x", "y", obj.Qxy, CONST),
        ("stat_x", "lam1", D.T, CONST), ("stat_x", "lam6", 1.0, CONST),
        ("stat_x", None, obj.kx, CONST),
        ("stat_y", "x", obj.Qxy.T, CONST), ("stat_y", "y", obj.Qyy, CONST),
        ("stat_y", "s", -A.T, ALPHA), ("stat_y", "lam2", A.T, CONST),
        ("stat_y", None, obj.ky, CONST),
        ("stat_z", "r", 1.0, ALPHA), ("stat_z", "lam6", A, CONST),
        ("stat_z", "lam3", -1.0, CONST),
        ("stat_r", "z", 1.0, ALPHA), ("stat_r", "lam7", 1.0, CONST),
        ("stat_r", "lam4", -1.0, CONST),
        ("stat_s", "y", -A, ALPHA), ("stat_s", "lam7", 1.0, CONST),
        ("stat_s", "lam5", -1.0, CONST), ("stat_s", None, b, ALPHA),
        ("eq_primal", "x", 1.0, CONST), ("eq_primal", "z", A.T, CONST),
        ("eq_simplex", "r", 1.0, CONST), ("eq_simplex", "s", 1.0, CONST),
        ("eq_simplex", None, -1.0, CONST),
        ("comp1", "x", D, SELECT), ("comp1", "lam1", 1.0, CONST),
        ("comp1", None, -problem.d, SELECT),
        ("comp2", "y", A, SELECT), ("comp2", "lam2", 1.0, CONST),
        ("comp2", None, -b, SELECT),
        ("comp3", "z", -1.0, SELECT), ("comp3", "lam3", 1.0, CONST),
        ("comp4", "r", -1.0, SELECT), ("comp4", "lam4", 1.0, CONST),
        ("comp5", "s", -1.0, SELECT), ("comp5", "lam5", 1.0, CONST),
    ]


@dataclass(frozen=True, eq=False)
class ResidualMap:
    """Phi of one problem as a constant sparse affine map,

        Phi(u) = K0 u + k0 + alpha (K1 u + k1) - [0; max(0, X)],
        X = lam + t * (H u + h)  on the comp rows,

    with lam = u[lam1..lam5] the comp rows of K0 u, K1 zero below the
    head rows and H zero above them: stacked @ u + offset is
    [K0 u + k0; K1 u + k1 + H u + h].  coef holds the entries (a, b, h)
    of K0, K1 and H on the CSR pattern (indices, indptr, rows) of every
    Jacobian element, whose values are a + alpha b - p (a + t h) for the
    selection weight p of each row; on the comp rows a is the lam
    diagonal, the one position where two blocks add up.
    """

    lengths: tuple  # row lengths of the ResidualBlocks, in ORDER
    head: int  # first comp row, 3n + 4l
    stacked: scipy.sparse.csr_array
    offset: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    coef: np.ndarray

    def t_rows(self, t):
        """t_i repeated over the rows of comp_i."""
        return np.repeat(t, self.lengths[7:])


def residual_map(problem: BilevelProblem) -> ResidualMap:
    """Build the residual map of the problem from the block table."""
    n, l, m, N = problem.n, problem.l, problem.m, problem.size
    lengths = (n, n, l, l, l, n, l, m, l, l, l, l)
    size = dict(zip(ResidualBlocks.ORDER, lengths))
    start = dict(zip(ResidualBlocks.ORDER, np.cumsum((0,) + lengths)))
    cols = block_slices(n, l, m)
    offset = np.zeros(2 * N)
    i, j, v, part = [], [], [], []
    for rb, cb, mat, p in _table(problem):
        row = start[rb] + N * (p != CONST)
        if cb is None:
            offset[row:row + size[rb]] = mat
            continue
        if np.isscalar(mat):  # mat times the identity
            r = c = np.arange(size[rb])
            data = np.full(size[rb], float(mat))
        else:  # the nonzero entries in row-major order
            r, c = np.nonzero(mat)
            data = mat[r, c]
        i.append(start[rb] + r)
        j.append(cols[cb].start + c)
        v.append(data)
        part.append(np.full(data.size, p))
    i, j, v, part = map(np.concatenate, (i, j, v, part))
    stacked = scipy.sparse.csr_array((v, (i + N * (part != CONST), j)),
                                     shape=(2 * N, N))
    stacked.sort_indices()
    # one position per distinct (row, column), in CSR order
    keys, position = np.unique(i * N + j, return_inverse=True)
    coef = np.zeros((3, keys.size))
    coef[part, position] = v
    rows = keys // N
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=N))))
    return ResidualMap(lengths=lengths, head=int(start["comp1"]),
                       stacked=stacked, offset=offset, indices=keys % N,
                       indptr=indptr, rows=rows, coef=coef)


def affine_part(problem: BilevelProblem, u, params: PenaltyParams):
    """Phi(u) without its max terms, and the selection arguments X of
    all five families in one vector, from one product with the map.

    u is an iterate or a 2-D array whose rows are packed iterates; then
    phi and X hold one row per iterate, each C-contiguous and equal bit
    for bit to the vectors of that iterate alone.
    """
    phimap = problem.residual_map
    N, head = problem.size, phimap.head
    vec = u.vec if isinstance(u, IterateU) else u
    # (S @ U^T)^T is F-ordered; C rows keep phi @ phi the same per row
    w = np.add((phimap.stacked @ vec.T).T, phimap.offset, order="C")
    phi = w[..., :N]
    X = phi[..., head:] + phimap.t_rows(params.t) * w[..., N + head:]
    phi[..., :head] += params.alpha * w[..., N:N + head]
    return phi, X


def selection_arguments(problem: BilevelProblem, u: IterateU,
                        params: PenaltyParams):
    """Arguments X^i = lam_i + t_i * h_i of the max terms, families 1..5.

    h_1 = Dx - d, h_2 = Ay - b, h_3 = -z, h_4 = -r, h_5 = -s.  Returned
    as a tuple (X1, ..., X5); the sign pattern of these vectors selects
    the active piece of each complementarity residual.
    """
    _, X = affine_part(problem, u, params)
    return tuple(np.split(X, np.cumsum(problem.residual_map.lengths[7:11])))


def residual_and_selection(problem: BilevelProblem, u,
                           params: PenaltyParams):
    """Phi and the selection arguments X (all five families in one
    vector) at an iterate, or one row of each per row of a 2-D stack,
    from one product with the map; rows as in :func:`affine_part`."""
    phi, X = affine_part(problem, u, params)
    phi[..., problem.residual_map.head:] -= np.maximum(0.0, X)
    return phi, X


def row_merits(phi):
    """1/2 ||row||^2 per row of a 2-D Phi: for C-contiguous rows, each
    the merit of that row's iterate alone, bit for bit."""
    return np.array([0.5 * float(row @ row) for row in phi])


def eval_residual(problem: BilevelProblem, u: IterateU,
                  params: PenaltyParams) -> ResidualBlocks:
    """Evaluate all blocks of Phi at the iterate u."""
    return ResidualBlocks.wrap(residual_and_selection(problem, u, params)[0],
                               problem.residual_map.lengths)


def eval_residual_vec(problem, u, params):
    """Phi(u) as one vector (the .vec of :func:`eval_residual`)."""
    return eval_residual(problem, u, params).vec


def eval_merit(problem, u, params):
    """Merit function Psi(u) = 1/2 ||Phi(u)||^2 at the iterate u.

    For a 2-D array whose rows are packed iterates, an array with one
    merit per row, each equal bit for bit to the merit of that row
    wrapped as an iterate: Phi comes from one product with the map for
    all rows, and each row's merit from :func:`row_merits`.
    """
    phi, _ = residual_and_selection(problem, u, params)
    if phi.ndim == 1:
        return 0.5 * float(phi @ phi)
    return row_merits(phi)


def check_noc(problem: BilevelProblem, u: IterateU, params: PenaltyParams):
    """Measure each first-order optimality condition of the penalized
    problem separately.

    Returns a dict of maximal violations; 'satisfied' reports whether
    every entry is at most 1e-8.  Useful to audit a candidate multiplier
    set independently of the max-based residual.
    """
    blocks = eval_residual(problem, u, params)
    n, l, m = problem.n, problem.l, problem.m
    phimap, N = problem.residual_map, problem.size
    w = phimap.stacked @ u.vec + phimap.offset
    # lam = (lam1, ..., lam5) and g = (Dx - d, Ay - b, -z, -r, -s)
    lam, g = w[phimap.head:N], w[N + phimap.head:]
    viol = {  # stat_x..stat_s are the first 2n + 3l rows
        "stationarity": float(np.abs(blocks.vec[:2 * n + 3 * l]).max()),
        "lower_stationarity": float(np.abs(blocks.eq_primal).max()),
        "simplex": float(np.abs(blocks.eq_simplex).max()),
        "primal_upper": float(np.maximum(g[:m], 0).max(initial=0.0)),
        "primal_lower": float(np.maximum(g[m:m + l], 0).max()),
        "primal_signs": float(np.maximum(g[m + l:], 0).max()),
        "dual_signs": float(np.maximum(-lam, 0).max()),
        "complementarity": float(np.abs(lam * g).max()),
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
        phimap, N = problem.residual_map, problem.size
        H = phimap.stacked[N + phimap.head:, :X.shape[0]]
        return H @ X + phimap.offset[N + phimap.head:]


def assemble_affine_system(problem: BilevelProblem,
                           params: PenaltyParams) -> AffineSystem:
    """Build the affine-objective system matrices.

    Requires the upper objective to be affine (constant gradients).
    Row order matches ResidualBlocks.ORDER restricted to the smooth
    blocks; column order of X is (x, y, z, r, s) and of Gamma is
    (lam1, ..., lam7).  The smooth rows of every generalized-Jacobian
    element are [B1 B2], and v is minus those rows of Phi at u = 0.
    """
    if not problem.objective.affine:
        raise ValueError("affine system requires an affine upper objective")
    phimap, N = problem.residual_map, problem.size
    head, nX = phimap.head, 2 * problem.n + 3 * problem.l
    S, k = phimap.stacked, phimap.offset
    B = (S[:head] + params.alpha * S[N:N + head]).toarray()
    # 0.0 - phi rather than -phi: rows without a constant term get +0.0
    v = 0.0 - (k[:head] + params.alpha * k[N:N + head])
    return AffineSystem(B1=B[:, :nX], B2=B[:, nX:], v=v,
                        t_expanded=phimap.t_rows(params.t))
