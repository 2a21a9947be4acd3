"""Nonsingularity certificates for the generalized Jacobian.

Two sufficient conditions guarantee that every element of the
generalized Jacobian at a first-order point is nonsingular, so that the
Newton iteration is locally well defined and superlinear.  Both are
phrased through the index sets

    P_i = { j : X^i_j >= 0 },    Q_i = { j : X^i_j <= 0 },

of the selection arguments X^i = lam_i + t_i h_i (rows with X^i_j = 0
belong to both sets).  A direct numerical probe over the finitely many
kink selections complements the analytic certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .jacobian import assemble, selection_weights
from .residual import selection_arguments

FAMILY_NAMES = ("P1", "P2", "P3", "P4", "P5", "Q1", "Q2", "Q3", "Q4", "Q5")


@dataclass
class IndexSets:
    """Index sets P_i, Q_i of the five selection arguments at a point."""

    P: tuple  # P[i] is the sorted index array for family i+1
    Q: tuple
    X: tuple  # the selection arguments themselves
    tol: float

    def named(self):
        out = {}
        for i in range(5):
            out[f"P{i + 1}"] = self.P[i]
            out[f"Q{i + 1}"] = self.Q[i]
        return out


def index_sets(problem, u, params, tol=1e-9) -> IndexSets:
    Xs = selection_arguments(problem, u, params)
    P = tuple(np.flatnonzero(X >= -tol) for X in Xs)
    Q = tuple(np.flatnonzero(X <= tol) for X in Xs)
    return IndexSets(P=P, Q=Q, X=Xs, tol=tol)


@dataclass
class RegularityResult:
    """Outcome of one sufficient condition: overall verdict plus the
    individual hypothesis checks (name -> bool)."""

    holds: bool
    checks: dict

    def failed(self):
        return [name for name, ok in self.checks.items() if not ok]


def _full_column_rank(M):
    M = np.atleast_2d(np.asarray(M, float))
    return np.linalg.matrix_rank(M) == M.shape[1]


def check_theorem_invertibleA(problem, u, params, tol=1e-9):
    """Sufficient condition built on an invertible lower-level matrix.

    Requires l = n with A invertible, a full-column-rank hessian of F
    in x, and empty P1, P3, P5, Q2, Q4.
    """
    sets = index_sets(problem, u, params, tol)
    Hxx = problem.objective.hess_xx(u.x, u.y)
    checks = {
        "A_square": problem.l == problem.n,
        "A_invertible": (problem.l == problem.n
                         and _full_column_rank(problem.A)),
        "hess_xx_full_rank": _full_column_rank(Hxx),
        "P1_empty": sets.P[0].size == 0,
        "P3_empty": sets.P[2].size == 0,
        "P5_empty": sets.P[4].size == 0,
        "Q2_empty": sets.Q[1].size == 0,
        "Q4_empty": sets.Q[3].size == 0,
    }
    return RegularityResult(holds=all(checks.values()), checks=checks)


def check_theorem_fullrank_yy(problem, u, params, tol=1e-9):
    """Sufficient condition built on a full-column-rank hessian of F in
    y, with empty P1, P2, P5, Q3, Q4."""
    sets = index_sets(problem, u, params, tol)
    Hyy = problem.objective.hess_yy(u.x, u.y)
    checks = {
        "hess_yy_full_rank": _full_column_rank(Hyy),
        "P1_empty": sets.P[0].size == 0,
        "P2_empty": sets.P[1].size == 0,
        "P5_empty": sets.P[4].size == 0,
        "Q3_empty": sets.Q[2].size == 0,
        "Q4_empty": sets.Q[3].size == 0,
    }
    return RegularityResult(holds=all(checks.values()), checks=checks)


@dataclass
class ProbeResult:
    """Direct numerical nonsingularity probe over kink selections."""

    nonsingular: bool
    n_elements: int
    n_ties: int
    worst_cond: float


def probe_nonsingularity(problem, u, params, tol=1e-9, cond_limit=1e12,
                         max_elements=8, seed=0):
    """Probe generalized-Jacobian elements at u for nonsingularity.

    Rows whose selection argument sits at the kink (|X^i_j| <= tol)
    admit any derivative weight in [0, 1]; since nonsingularity of the
    whole generalized Jacobian holds iff it holds at the extreme
    selections, the probe enumerates {0, 1} assignments on the tied
    rows (all of them when there are few ties, a seeded sample of
    corners otherwise) together with the midpoint element.  A matrix
    counts as singular when its condition number exceeds cond_limit.
    """
    Xs = selection_arguments(problem, u, params)
    base = [selection_weights(X) for X in Xs]
    tie_masks = [np.abs(X) <= tol for X in Xs]
    tie_index = [(fam, j) for fam, mask in enumerate(tie_masks)
                 for j in np.flatnonzero(mask)]
    k = len(tie_index)

    assignments = []
    if k == 0:
        assignments.append(())
    elif 2 ** k <= max_elements - 1:
        assignments.extend(itertools.product((0.0, 1.0), repeat=k))
    else:
        rng = np.random.default_rng(seed)
        assignments.append((0.0,) * k)
        assignments.append((1.0,) * k)
        while len(assignments) < max_elements - 1:
            assignments.append(tuple(rng.integers(0, 2, k).astype(float)))

    worst = 0.0
    tried = 0
    ok = True
    candidates = [None] + assignments if k else [None]
    for assign in candidates:
        ps = [p.copy() for p in base]
        if assign is None:
            # midpoint element: tied rows keep weight 1/2
            pass
        else:
            for (fam, j), val in zip(tie_index, assign):
                ps[fam][j] = val
        cond = np.linalg.cond(assemble(problem, u, params, ps).toarray())
        worst = max(worst, cond)
        tried += 1
        if not np.isfinite(cond) or cond > cond_limit:
            ok = False
    return ProbeResult(nonsingular=ok, n_elements=tried, n_ties=k,
                       worst_cond=float(worst))
