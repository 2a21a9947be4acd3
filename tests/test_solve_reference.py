"""solve against the loop that evaluated every iterate three times.

reference_solve is the Newton loop as it ran before Phi and X of an
iterate were taken from the Armijo row that accepted it: ||Phi|| from
eval_residual_vec after each step, and the direction from
eval_residual_vec and generalized_element at each iterate.  solve must
reproduce it bit for bit while making one product with the residual
map per iterate plus one per evaluated trial block.
"""

import dataclasses
import math
import warnings

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import maximum_bipartite_matching

from ssnbilevel import (PenaltyParams, default_start, eval_pi,
                        eval_residual_vec, generalized_element,
                        residual_and_selection, solve)
from ssnbilevel import newton as newton_mod
from ssnbilevel.jacobian import selection_weights
from ssnbilevel.newton import PIVOT_REL_TOL, SolveReport
from ssnbilevel.problem import unpack

from conftest import make_ex_box
from test_line_search import (_one_at_a_time, _starts,
                              reference_line_search)
from test_newton import _counted


def reference_direction(problem, u, params):
    """The direction from Phi and the element evaluated at u."""
    phi = eval_residual_vec(problem, u, params)
    element = generalized_element(problem, u, params)
    C = element.sparse
    grad_psi = np.bincount(C.indices,
                           C.data * np.repeat(phi, np.diff(C.indptr)),
                           minlength=problem.size)
    if (maximum_bipartite_matching(C, perm_type="column") < 0).any():
        return -grad_psi, grad_psi, "gradient"
    inf_norm = np.add.reduceat(np.abs(C.data), C.indptr[:-1]).max()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(element.matrix, check_finite=False)
    if np.abs(np.diag(lu)).min() > PIVOT_REL_TOL * inf_norm:
        d = scipy.linalg.lu_solve((lu, piv), -phi, check_finite=False)
        if (np.all(np.isfinite(d)) and float(grad_psi @ d)
                <= -params.rho * np.linalg.norm(d) ** params.p_exp):
            return d, grad_psi, "newton"
    return -grad_psi, grad_psi, "gradient"


def reference_solve(problem, u0, params):
    """The Newton loop with Phi evaluated afresh at every iterate."""
    n, l, m = problem.n, problem.l, problem.m
    merit = _one_at_a_time(problem, params)
    u = u0.copy()
    res = float(np.linalg.norm(eval_residual_vec(problem, u, params)))
    psi = 0.5 * res * res
    iterates = [(0, res, psi, "initial", 0.0)]
    status = "max_iter"
    k = 0
    while k < params.max_iter:
        if res <= params.delta:
            break
        if not math.isfinite(res):
            status = "nonfinite_residual"
            break
        d, grad_psi, kind = reference_direction(problem, u, params)
        if kind == "newton":
            slope = float(grad_psi @ d)
        else:
            slope = -float(grad_psi @ grad_psi)
            if slope == 0.0:
                status = "singular_unrecoverable"
                break
        tau, psi_new, accepted = reference_line_search(
            merit, u.vec, d, psi, slope, params)
        if not accepted:
            status = "linesearch_stall"
            break
        u = unpack(u.vec + tau * d, n, l, m)
        res = float(np.linalg.norm(eval_residual_vec(problem, u, params)))
        psi = psi_new
        k += 1
        iterates.append((k, res, psi, kind, tau))
    if res <= params.delta:
        status = "converged"
    return SolveReport(
        final_u=u, status=status, iterates=iterates, alpha=params.alpha,
        objective_value=float(problem.objective.eval(u.x, u.y)),
        penalty_value=eval_pi(problem, u.y, u.z))


def test_solves_equal_the_reference_loop(workloads):
    """Same final iterate bytes, iterate trace, status, F and pi as the
    loop that evaluates each iterate afresh, on the residual-map
    families and 32 perturbed warm roots."""
    kinds, statuses, warm = set(), set(), 0
    for name, problem, params, u0 in _starts(workloads):
        got = solve(problem, u0, params)
        ref = reference_solve(problem, u0, params)
        assert got.final_u.vec.tobytes() == ref.final_u.vec.tobytes(), name
        assert got.iterates == ref.iterates, name
        assert [type(v) for e in got.iterates for v in e] == \
            [type(v) for e in ref.iterates for v in e], name
        assert got.status == ref.status, name
        assert got.objective_value == ref.objective_value, name
        assert got.penalty_value == ref.penalty_value, name
        kinds.update(got.step_kinds)
        statuses.add(got.status)
        warm += name.endswith("x10")
    assert warm == 32
    assert kinds == {"newton", "gradient"}
    assert {"converged", "max_iter"} <= statuses


def test_one_element_per_run_of_equal_selections(workloads, monkeypatch):
    """solve builds the element once per maximal run of iterations whose
    selection weights are equal, and makes as many LU factorizations as
    the loop that builds the element at every iterate."""
    calls = {"assemble": 0, "lu": 0}
    monkeypatch.setattr(newton_mod, "assemble",
                        _counted(calls, "assemble", newton_mod.assemble))
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        _counted(calls, "lu", scipy.linalg.lu_factor))
    kept = factorizations = 0
    for name, problem, params, u0 in _starts(workloads):
        points = [u0]
        calls.update(assemble=0, lu=0)
        rep = solve(problem, u0, params,
                    callback=lambda k, u, *_: points.append(u))
        built, factored = calls["assemble"], calls["lu"]
        # a stalled search and a vanished gradient follow a direction
        directions = rep.iterations + (rep.status in (
            "linesearch_stall", "singular_unrecoverable"))
        weights = [selection_weights(residual_and_selection(
            problem, u, params)[1]) for u in points[:directions]]
        runs = sum(k == 0 or not np.array_equal(weights[k], weights[k - 1])
                   for k in range(directions))
        assert built == runs, name
        calls["lu"] = 0
        reference_solve(problem, u0, params)
        assert factored == calls["lu"], name
        kept += directions - runs
        factorizations += factored
    assert kept > 0 and factorizations > 0


class _Counted:
    """A sparse matrix that counts its products with arrays."""

    def __init__(self, matrix, count):
        self.matrix, self.count = matrix, count

    def __matmul__(self, other):
        self.count[0] += 1
        return self.matrix @ other


def test_one_map_product_per_iterate_and_block(workloads, monkeypatch):
    """A solve makes 1 + (trial blocks evaluated) products with the
    residual map: one at the start point and one per block."""
    products, blocks = [0], [0]
    line_search = newton_mod.line_search

    def counted_search(evaluate, *args):
        def counted_evaluate(trials):
            blocks[0] += 1
            return evaluate(trials)
        return line_search(counted_evaluate, *args)

    def counted_map(problem):
        phimap = problem.residual_map
        if not isinstance(phimap.stacked, _Counted):
            monkeypatch.setitem(vars(problem), "residual_map",
                                dataclasses.replace(phimap, stacked=_Counted(
                                    phimap.stacked, products)))
        return problem

    def solve_counted(name, problem, params, u0):
        products[0] = blocks[0] = 0
        rep = solve(counted_map(problem), u0, params)
        assert blocks[0] >= rep.iterations, name
        assert products[0] == 1 + blocks[0], name
        return blocks[0] - rep.iterations  # second blocks and stalls

    monkeypatch.setattr(newton_mod, "line_search", counted_search)
    starts = list(_starts(workloads))
    for start in starts:
        solve_counted(*start)
    # directions 2^40 times too long: the searches accept in the second
    # block, or stall after both
    direction = newton_mod.newton_direction

    def overlong(*args):
        d, grad_psi, kind = direction(*args)
        return d * 2.0 ** 40, grad_psi, kind

    monkeypatch.setattr(newton_mod, "newton_direction", overlong)
    assert sum(solve_counted(*start) for start in starts[:4]) > 0
    # a start whose residual is not finite: the one product at u0
    problem = counted_map(make_ex_box())
    u0 = default_start(problem, [1.5], [0.5])
    u0.lam3[0] = np.nan
    products[0] = blocks[0] = 0
    rep = solve(problem, u0, PenaltyParams(alpha=30.0))
    assert rep.status == "nonfinite_residual"
    assert (products[0], blocks[0]) == (1, 0)
