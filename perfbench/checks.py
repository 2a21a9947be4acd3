"""Output check applied to every solve of the benchmark.

check(job, report, oracle_cache) returns a list of failure messages (empty
when the output is correct).  It recomputes the reported values from final_u,
ties the status to the residual, and on converged solves compares the
answer with the known root (warm) or with the brute-force oracles
(desk box instances).
"""

from __future__ import annotations

import numpy as np

from ssnbilevel import bilevel_bruteforce, eval_pi, eval_residual_vec
from ssnbilevel.oracle import lower_level_argmin

REL_TOL = 1e-9
ROOT_TOL = 1e-6
ORACLE_TOL = 1e-6
PI_TOL = 1e-8


def _close(reported, recomputed):
    return abs(reported - recomputed) <= REL_TOL * max(1.0, abs(recomputed))


def check(job, report, oracle_cache):
    """oracle_cache maps id(problem) to its bilevel_bruteforce value, so
    the oracle runs once per instance however often it is solved."""
    problem, params, u = job.problem, job.params, report.final_u
    failures = []
    recomputed = {
        "residual_norm": float(np.linalg.norm(
            eval_residual_vec(problem, u, params))),
        "objective_value": float(problem.objective.eval(u.x, u.y)),
        "penalty_value": eval_pi(problem, u.y, u.z),
    }
    for key, value in recomputed.items():
        if not _close(getattr(report, key), value):
            failures.append(f"{key} {getattr(report, key)!r} != {value!r}")
    below = recomputed["residual_norm"] <= params.delta
    if report.converged != below:
        failures.append(f"status {report.status} with residual "
                        f"{recomputed['residual_norm']:.3e}")
    if not report.converged:
        return failures
    if job.root is not None:
        err = max(np.abs(u.x - job.root.x).max(),
                  np.abs(u.y - job.root.y).max())
        if err > ROOT_TOL:
            failures.append(f"(x, y) is {err:.3e} from the known root")
    if job.box and recomputed["penalty_value"] <= PI_TOL:
        key = id(problem)
        if key not in oracle_cache:
            oracle_cache[key] = bilevel_bruteforce(problem)[0]
        if recomputed["objective_value"] < oracle_cache[key] - ORACLE_TOL:
            failures.append(f"F {recomputed['objective_value']!r} below the "
                            f"bilevel optimum {oracle_cache[key]!r}")
        lower, _ = lower_level_argmin(problem.A, problem.b, u.x)
        if abs(float(u.x @ u.y) - lower) > ORACLE_TOL:
            failures.append(f"x.y {float(u.x @ u.y)!r} != lower-level "
                            f"value {lower!r}")
    return failures
