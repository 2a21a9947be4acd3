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
from .residual import affine_part, selection_arguments

#: |X^i_j| <= TOL counts as a kink (in both P_i and Q_i)
TOL = 1e-9


@dataclass
class IndexSets:
    """Index sets P_i, Q_i of the five selection arguments at a point."""

    P: tuple  # P[i] is the sorted index array for family i+1
    Q: tuple

    def named(self):
        out = {}
        for i in range(5):
            out[f"P{i + 1}"] = self.P[i]
            out[f"Q{i + 1}"] = self.Q[i]
        return out


def index_sets(problem, u, params) -> IndexSets:
    Xs = selection_arguments(problem, u, params)
    return IndexSets(P=tuple(np.flatnonzero(X >= -TOL) for X in Xs),
                     Q=tuple(np.flatnonzero(X <= TOL) for X in Xs))


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


def check_theorem_invertibleA(problem, u, params):
    """Sufficient condition built on an invertible lower-level matrix.

    Requires l = n with A invertible, a full-column-rank hessian of F
    in x, and empty P1, P3, P5, Q2, Q4.
    """
    sets = index_sets(problem, u, params)
    checks = {
        "A_square": problem.l == problem.n,
        "A_invertible": (problem.l == problem.n
                         and _full_column_rank(problem.A)),
        "hess_xx_full_rank": _full_column_rank(problem.objective.Qxx),
        "P1_empty": sets.P[0].size == 0,
        "P3_empty": sets.P[2].size == 0,
        "P5_empty": sets.P[4].size == 0,
        "Q2_empty": sets.Q[1].size == 0,
        "Q4_empty": sets.Q[3].size == 0,
    }
    return RegularityResult(holds=all(checks.values()), checks=checks)


def check_theorem_fullrank_yy(problem, u, params):
    """Sufficient condition built on a full-column-rank hessian of F in
    y, with empty P1, P2, P5, Q3, Q4."""
    sets = index_sets(problem, u, params)
    checks = {
        "hess_yy_full_rank": _full_column_rank(problem.objective.Qyy),
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


def probe_nonsingularity(problem, u, params, max_elements=8):
    """Probe generalized-Jacobian elements at u for nonsingularity.

    Rows whose selection argument sits at the kink (|X^i_j| <= TOL)
    admit any derivative weight in [0, 1]; since nonsingularity of the
    whole generalized Jacobian holds iff it holds at the extreme
    selections, the probe enumerates {0, 1} assignments on the tied
    rows (all of them when there are few ties, a sample of corners
    drawn with seed 0 otherwise) together with the midpoint element.  A
    matrix counts as singular when its condition number exceeds 1e12.
    """
    _, X = affine_part(problem, u, params)
    base = selection_weights(X)
    ties = np.flatnonzero(np.abs(X) <= TOL)
    k = ties.size
    if 2 ** k <= max_elements - 1:
        corners = list(itertools.product((0.0, 1.0), repeat=k))
    else:
        rng = np.random.default_rng(0)
        corners = [(0.0,) * k, (1.0,) * k]
        while len(corners) < max_elements - 1:
            corners.append(tuple(rng.integers(0, 2, k).astype(float)))
    conds = []
    # None is the midpoint element: tied rows keep weight 1/2
    for corner in [None] + corners if k else [None]:
        p = base.copy()
        if corner is not None:
            p[ties] = corner
        conds.append(np.linalg.cond(assemble(problem, params, (p,)).toarray()))
    return ProbeResult(
        nonsingular=all(np.isfinite(c) and c <= 1e12 for c in conds),
        n_elements=len(conds), n_ties=k, worst_cond=float(max(0.0, *conds)))


def certify(problem, u, params):
    """Regularity summary at u (index sets, both sufficient conditions,
    element probe) as JSON-ready values; not a step of the method."""
    sets = index_sets(problem, u, params)
    inv_a = check_theorem_invertibleA(problem, u, params)
    full_yy = check_theorem_fullrank_yy(problem, u, params)
    probe = probe_nonsingularity(problem, u, params)
    return {
        "index_sets": {k: [int(j) for j in v]
                       for k, v in sets.named().items()},
        "theorem_invertibleA": {"holds": inv_a.holds,
                                "failed": inv_a.failed()},
        "theorem_fullrank_yy": {"holds": full_yy.holds,
                                "failed": full_yy.failed()},
        "probe": {"nonsingular": probe.nonsingular,
                  "n_elements": probe.n_elements,
                  "n_ties": probe.n_ties,
                  "worst_cond": probe.worst_cond},
    }
