"""Brute-force global oracles for small instances.

Everything here trades speed for trustworthiness: polyhedra are handled
by exhaustive active-set vertex enumeration, and global optima of
concave objectives over polytopes are found by scanning all vertices.
These routines are meant for cross-checking the Newton solver on desk
sized problems, not for production use; a dimension cap guards against
combinatorial blow-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

FEAS_TOL = 1e-9
VALUE_TOL = 1e-8
DIM_CAP = 12
W_CAP = 1e6


class OracleError(RuntimeError):
    pass


@dataclass
class Polyhedron:
    """Set {v : A_ub v <= b_ub, A_eq v = b_eq} (equalities optional)."""

    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None

    def __post_init__(self):
        self.A_ub = np.atleast_2d(np.asarray(self.A_ub, float))
        self.b_ub = np.asarray(self.b_ub, float).ravel()
        if self.A_eq is not None:
            self.A_eq = np.atleast_2d(np.asarray(self.A_eq, float))
            self.b_eq = np.asarray(self.b_eq, float).ravel()

    @property
    def dim(self):
        return self.A_ub.shape[1]

    def contains(self, v, tol=FEAS_TOL):
        v = np.asarray(v, float)
        ok = np.all(self.A_ub @ v <= self.b_ub + tol)
        if ok and self.A_eq is not None:
            ok = np.abs(self.A_eq @ v - self.b_eq).max() <= tol
        return bool(ok)

    def is_pointed(self):
        """True when the constraint normals span the whole space, which
        is necessary for any vertex to exist."""
        rows = [self.A_ub]
        if self.A_eq is not None:
            rows.append(self.A_eq)
        return np.linalg.matrix_rank(np.vstack(rows)) == self.dim

    def is_bounded(self):
        """Bounded iff every coordinate is bounded above and below
        (checked with one LP per direction)."""
        for i in range(self.dim):
            for sign in (1.0, -1.0):
                c = np.zeros(self.dim)
                c[i] = -sign  # linprog minimizes, we want max of sign*v_i
                res = linprog(c, A_ub=self.A_ub, b_ub=self.b_ub,
                              A_eq=self.A_eq, b_eq=self.b_eq,
                              bounds=(None, None), method="highs")
                if res.status == 3:  # unbounded
                    return False
                if res.status not in (0, 2):
                    raise OracleError(f"LP failed with status {res.status}")
        return True


def enumerate_vertices(poly: Polyhedron, dim_cap=DIM_CAP):
    """All vertices of a polyhedron by exhaustive basis enumeration.

    Every vertex is a feasible point where some choice of active
    inequalities, together with the equalities, has rank equal to the
    ambient dimension; we simply try all such choices.
    """
    dim = poly.dim
    if dim > dim_cap:
        raise OracleError(f"dimension {dim} exceeds cap {dim_cap}")
    if not poly.is_pointed():
        raise OracleError("polyhedron has no vertices (not pointed)")

    if poly.A_eq is not None:
        E, f = poly.A_eq, poly.b_eq
        rank_eq = np.linalg.matrix_rank(E)
    else:
        E = np.zeros((0, dim))
        f = np.zeros(0)
        rank_eq = 0
    need = dim - rank_eq
    n_ub = poly.A_ub.shape[0]
    verts = []
    for rows in itertools.combinations(range(n_ub), need):
        M = np.vstack([E, poly.A_ub[list(rows)]])
        rhs = np.concatenate([f, poly.b_ub[list(rows)]])
        if np.linalg.matrix_rank(M) < dim:
            continue
        v, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.abs(M @ v - rhs).max() > 1e-7:
            continue
        if not poly.contains(v, tol=1e-7):
            continue
        if not any(np.abs(v - w).max() <= 1e-7 for w in verts):
            verts.append(v)
    return verts


def minimize_concave_over_polytope(fun, poly: Polyhedron, dim_cap=DIM_CAP):
    """Global minimum of a concave function over a bounded polyhedron,
    attained at a vertex.  Returns (value, argmin vertex)."""
    verts = enumerate_vertices(poly, dim_cap=dim_cap)
    if not verts:
        raise OracleError("empty polyhedron")
    vals = [float(fun(v)) for v in verts]
    i = int(np.argmin(vals))
    return vals[i], verts[i]


def lower_level_argmin(A, b, x, dim_cap=DIM_CAP):
    """Optimal value and all optimal vertices of min x^T y s.t. Ay <= b."""
    poly = Polyhedron(A_ub=A, b_ub=b)
    verts = enumerate_vertices(poly, dim_cap=dim_cap)
    if not verts:
        raise OracleError("lower-level feasible set has no vertices")
    x = np.asarray(x, float)
    vals = np.array([x @ v for v in verts])
    best = vals.min()
    winners = [v for v, val in zip(verts, vals)
               if val <= best + VALUE_TOL * max(1.0, abs(best))]
    return float(best), winners


def global_penalized(problem, params, z_cap=None, dim_cap=DIM_CAP):
    """Global minimum of F(x, y) + alpha * pi(y, z) over the penalized
    feasible set {Dx <= d, Ay <= b, A^T z + x = 0, z >= 0}.

    Assumes F concave on the feasible set (affine or concave quadratic),
    so the minimum sits at a vertex.  If the multiplier block z is
    unbounded the caller must provide z_cap; enlarging the cap never
    lowers the minimum because pi is nondecreasing in z.
    """
    from .residual import eval_pi

    n, l, m = problem.n, problem.l, problem.m
    dim = 2 * n + l
    A_ub = np.zeros((m + l + l, dim))
    b_ub = np.zeros(m + l + l)
    A_ub[:m, :n] = problem.D
    b_ub[:m] = problem.d
    A_ub[m:m + l, n:2 * n] = problem.A
    b_ub[m:m + l] = problem.b
    A_ub[m + l:, 2 * n:] = -np.eye(l)
    A_eq = np.zeros((n, dim))
    A_eq[:, :n] = np.eye(n)
    A_eq[:, 2 * n:] = problem.A.T
    b_eq = np.zeros(n)
    if z_cap is not None:
        cap_rows = np.zeros((l, dim))
        cap_rows[:, 2 * n:] = np.eye(l)
        A_ub = np.vstack([A_ub, cap_rows])
        b_ub = np.concatenate([b_ub, np.full(l, float(z_cap))])
    poly = Polyhedron(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    if z_cap is None and not poly.is_bounded():
        raise OracleError("penalized feasible set unbounded; pass z_cap")

    def fun(v):
        x, y, z = v[:n], v[n:2 * n], v[2 * n:]
        return (problem.objective.eval(x, y)
                + params.alpha * eval_pi(problem, y, z))

    val, v = minimize_concave_over_polytope(fun, poly, dim_cap=dim_cap)
    return val, (v[:n], v[n:2 * n], v[2 * n:])


def bilevel_bruteforce(problem, dim_cap=DIM_CAP):
    """Global optimistic bilevel optimum by exhausting lower-level
    vertices and, for each, the polytope of upper variables that make
    that vertex optimal.

    For a lower-level vertex y with active rows J, y minimizes x^T y
    over {Ay <= b} exactly when x = -A_J^T w for some w >= 0.  The
    bilevel minimum is searched over each region
    {w : 0 <= w <= W_CAP, D(-A_J^T w) <= d} in the lifted multiplier
    coordinates; the box cap only matters on instances whose natural
    scale approaches it.  Requires F concave in x for fixed y (e.g.
    bilinear revenue objectives), so each regional minimum is at a
    vertex.  Returns (F_value, x, y, lower_value).
    """
    A, b, D, d = problem.A, problem.b, problem.D, problem.d
    lower = Polyhedron(A_ub=A, b_ub=b)
    y_verts = enumerate_vertices(lower, dim_cap=dim_cap)
    if not y_verts:
        raise OracleError("lower-level feasible set has no vertices")

    best = (np.inf, None, None, None)
    for y in y_verts:
        active = np.flatnonzero(np.abs(A @ y - b) <= 1e-7)
        if active.size == 0:
            continue  # interior point of a full-dimensional set: no x works
        AJ = A[active]
        nw = active.size
        # region in w-space: 0 <= w <= W_CAP and D(-AJ^T w) <= d
        A_ub = np.vstack([-np.eye(nw), np.eye(nw), -D @ AJ.T])
        b_ub = np.concatenate([np.zeros(nw), np.full(nw, W_CAP), d])
        region = Polyhedron(A_ub=A_ub, b_ub=b_ub)
        w_verts = enumerate_vertices(region, dim_cap=dim_cap)
        for w in w_verts:
            x = -AJ.T @ w
            # x must make y optimal, which holds by construction, and
            # satisfy the upper-level constraints
            if not np.all(D @ x <= d + 1e-7):
                continue
            val = float(problem.objective.eval(x, y))
            if val < best[0] - VALUE_TOL:
                best = (val, x, y, float(x @ y))
    if best[1] is None:
        raise OracleError("no bilevel feasible vertex pair found")
    return best
