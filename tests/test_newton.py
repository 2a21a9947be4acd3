"""Globalized Newton iteration: directions, line search, statuses."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from ssnbilevel import (BilevelProblem, PenaltyParams, alpha_continuation,
                        default_start, eval_residual_vec, generalized_element,
                        merit_gradient, newton_direction, quadratic_objective,
                        solve, toll)
from ssnbilevel import newton as newton_mod
from ssnbilevel.jacobian import JacobianElement
from ssnbilevel.newton import PIVOT_REL_TOL, line_search
from ssnbilevel.problem import pack, unpack

from conftest import (make_ex_box, make_ex_fractional, random_instance,
                      root_ex_box, root_ex_fractional)


def test_direction_near_root_is_newton():
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    u = root_ex_fractional(pr, 2.0)
    v = pack(u) + 1e-4 * np.random.default_rng(0).standard_normal(pr.size)
    d, grad, used = newton_direction(pr, unpack(v, 1, 1, 2), params)
    assert used == "newton"
    assert grad @ d < 0


def test_direction_falls_back_on_singular_element():
    """At a point where r > 0, s > 0 with both slack-side multipliers
    predicted active, the simplex rows of every element are dependent
    and the method must return the merit gradient."""
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    u = root_ex_fractional(pr, 2.0)
    u.lam4 = np.array([5.0])
    u.lam5 = np.array([5.0])  # both selection arguments now positive
    d, grad, used = newton_direction(pr, u, params)
    assert used == "gradient"
    assert np.array_equal(d, -grad)
    assert np.allclose(grad, merit_gradient(pr, u, params, smoothed=False))


def _counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_direction_builds_and_factors_one_element(monkeypatch):
    """A singular element is not retried: one direction call assembles
    one element.  Its simplex rows leave the pattern without a perfect
    matching, so it is not factored either, and the method falls back."""
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    u = root_ex_fractional(pr, 2.0)
    u.lam4 = np.array([5.0])
    u.lam5 = np.array([5.0])
    calls = {"element": 0, "lu": 0}
    monkeypatch.setattr(newton_mod, "generalized_element",
                        _counted(calls, "element",
                                 newton_mod.generalized_element))
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        _counted(calls, "lu", scipy.linalg.lu_factor))
    d, grad, used = newton_direction(pr, u, params)
    assert calls == {"element": 1, "lu": 0}
    assert used == "gradient"
    assert np.array_equal(d, -grad)


def test_direction_pivot_test_rejects_matched_singular_pattern(monkeypatch):
    """An element whose pattern is full passes the structural screen; if
    its values are rank deficient, the LU pivot test rejects it.  The
    point is one where the true element gives a Newton step."""
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    v = pack(root_ex_fractional(pr, 2.0))
    u = unpack(v + 1e-4 * np.random.default_rng(0).standard_normal(pr.size),
               pr.n, pr.l, pr.m)
    assert newton_direction(pr, u, params)[2] == "newton"
    ones = JacobianElement(
        sparse=scipy.sparse.csr_array(np.ones((pr.size, pr.size))),
        p=(), ties=())
    calls = {"lu": 0}
    monkeypatch.setattr(newton_mod, "generalized_element",
                        lambda problem, u, params: ones)
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        _counted(calls, "lu", scipy.linalg.lu_factor))
    phi = eval_residual_vec(pr, u, params)
    d, grad, used = newton_direction(pr, u, params)
    assert calls == {"lu": 1}
    assert used == "gradient"
    assert np.allclose(grad, ones.matrix.T @ phi, rtol=1e-12, atol=0)
    assert np.array_equal(d, -grad)


def dense_reference_direction(problem, u, params):
    """The direction without the structural screen: dense LU of every
    element, then the pivot, finiteness and descent tests."""
    phi = eval_residual_vec(problem, u, params)
    C = generalized_element(problem, u, params).matrix
    grad = C.T @ phi
    inf_norm = np.abs(C).sum(axis=1).max()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(C, check_finite=False)
    if np.abs(np.diag(lu)).min() > PIVOT_REL_TOL * inf_norm:
        d = scipy.linalg.lu_solve((lu, piv), -phi, check_finite=False)
        if (np.all(np.isfinite(d)) and float(grad @ d)
                <= -params.rho * np.linalg.norm(d) ** params.p_exp):
            return d, grad, "newton"
    return -grad, grad, "gradient"


def _first_iterates(problem, u0, params, count=10):
    """u0 and the iterates of the solve that starts there, up to count
    points in all."""
    points = [u0.copy()]
    solve(problem, u0, dataclasses.replace(params, max_iter=count - 1),
          callback=lambda k, u, res, kind, tau: points.append(u.copy()))
    return points


def _toll_grid(k, rng):
    """k x k grid, arcs right and down with integer costs 1..9, a third
    of them tolled, unit demand from corner to corner."""
    arcs = []
    for v in range(k * k):
        if (v + 1) % k:
            arcs.append((v, v + 1, float(rng.integers(1, 10))))
        if v + k < k * k:
            arcs.append((v, v + k, float(rng.integers(1, 10))))
    tolled = rng.choice(len(arcs), len(arcs) // 3, replace=False)
    return toll.TollNetwork(nodes=list(range(k * k)), arcs=arcs,
                            tolled=tuple(int(a) for a in tolled),
                            od_pairs=[(0, k * k - 1, 1.0)])


def _equivalence_cases():
    rng = np.random.default_rng(11)
    params = PenaltyParams(alpha=30.0)
    for _ in range(20):
        pr = random_instance(rng)
        x0 = rng.uniform(-pr.d[0], pr.d[1])
        y0 = rng.uniform(-pr.b[0], pr.b[1])
        for u in _first_iterates(pr, default_start(pr, [x0], [y0]),
                                 params):
            yield pr, u, params
    for name in ("network1", "network2"):
        ps = toll.preset(name)
        yield ps.problem, ps.start, ps.params
    pr, layout = toll.build_problem(_toll_grid(3, rng))
    u0 = default_start(pr, layout.costs, np.zeros(pr.n))
    for u in _first_iterates(pr, u0, params):
        yield pr, u, params
    # near the known roots, where the elements are nonsingular
    for pr, root in ((make_ex_box(), root_ex_box(30.0)),
                     (make_ex_fractional(), root_ex_fractional(
                         make_ex_fractional(), 30.0))):
        for _ in range(5):
            v = pack(root) + 1e-3 * rng.standard_normal(pr.size)
            yield pr, unpack(v, pr.n, pr.l, pr.m), params


def test_direction_matches_dense_reference():
    """The structural screen changes which elements are factored, never
    the direction: same kind, and d and grad within 1e-12 relative."""
    kinds = []
    for pr, u, params in _equivalence_cases():
        d, grad, used = newton_direction(pr, u, params)
        d_ref, grad_ref, used_ref = dense_reference_direction(pr, u, params)
        assert used == used_ref
        for got, ref in ((d, d_ref), (grad, grad_ref)):
            assert (np.linalg.norm(got - ref)
                    <= 1e-12 * max(np.linalg.norm(ref), 1e-300))
        kinds.append(used)
    assert len(kinds) >= 200
    assert {"newton", "gradient"} <= set(kinds)


def test_line_search_quadratic_merit_full_step():
    # psi(tau) = (1 - tau)^2 / 2 along d = 1 from u = 0
    params = PenaltyParams(alpha=1.0, sigma=0.1)
    merit = lambda v: 0.5 * (1.0 - v[0]) ** 2
    tau, psi, ok = line_search(merit, np.zeros(1), np.ones(1),
                               psi0=0.5, slope=-1.0, params=params)
    assert ok and tau == 1.0 and psi == 0.0


def test_line_search_backtracks():
    params = PenaltyParams(alpha=1.0, sigma=1e-4, beta=0.5)
    merit = lambda v: 0.5 * (1.0 - v[0]) ** 2
    # overlong direction overshoots the minimum; halving must kick in
    tau, psi, ok = line_search(merit, np.zeros(1), np.array([8.0]),
                               psi0=0.5, slope=-8.0, params=params)
    assert ok and tau < 1.0
    assert psi <= 0.5 + params.sigma * tau * (-8.0)


def test_line_search_stall_on_ascent():
    params = PenaltyParams(alpha=1.0)
    # merit jumps up for every nonzero step, so no halving can succeed
    merit = lambda v: 2.0 if v[0] != 0.0 else 1.0
    tau, psi, ok = line_search(merit, np.zeros(1), np.ones(1),
                               psi0=1.0, slope=-1.0, params=params)
    assert not ok


def test_solve_from_root_converges_immediately():
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    rep = solve(pr, root_ex_fractional(pr, 2.0), params)
    assert rep.status == "converged"
    assert rep.iterations == 0
    assert rep.certificates  # regularity summary attached
    assert rep.iterates[-1][1] <= params.delta


def test_solve_perturbed_root_one_newton_step():
    pr = make_ex_box()
    params = PenaltyParams(alpha=30.0)
    v = pack(root_ex_box(30.0))
    rng = np.random.default_rng(2)
    u0 = unpack(v + 1e-3 * rng.standard_normal(pr.size), pr.n, pr.l, pr.m)
    rep = solve(pr, u0, params)
    assert rep.status == "converged"
    assert "newton" in rep.step_kinds
    assert rep.final_u.x[0] == pytest.approx(2.0, abs=1e-8)
    assert rep.final_u.y[0] == pytest.approx(0.0, abs=1e-8)


def test_merit_strictly_decreasing_across_accepted_steps():
    pr = make_ex_box()
    params = PenaltyParams(alpha=30.0, max_iter=50)
    u0 = default_start(pr, [1.3], [0.7])
    rep = solve(pr, u0, params)
    merits = [entry[2] for entry in rep.iterates]
    assert all(b < a for a, b in zip(merits, merits[1:]))


def test_status_max_iter():
    pr = make_ex_box()
    params = PenaltyParams(alpha=30.0, max_iter=2)
    rep = solve(pr, default_start(pr, [1.3], [0.7]), params)
    assert rep.status in ("max_iter", "converged", "linesearch_stall")
    if rep.status == "max_iter":
        assert rep.iterations == 2
        assert not rep.converged
        assert rep.certificates == {}


def test_singular_unrecoverable_on_merit_stationary_nonroot():
    """1-d toy whose residual has a merit-stationary point that is not a
    root: Phi cannot vanish but C^T Phi can."""
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0, max_iter=200)
    # search a tiny instance for a point with zero merit gradient and
    # nonzero residual is overkill here; instead exercise the exact
    # branch by monkeypatching the direction to report a zero gradient
    from ssnbilevel import newton as newton_mod

    u0 = default_start(pr, [1.2], [0.5])

    def fake_direction(problem, u, params_):
        g = np.zeros(problem.size)
        return -g, g, "gradient"

    original = newton_mod.newton_direction
    newton_mod.newton_direction = fake_direction
    try:
        rep = newton_mod.solve(pr, u0, params)
    finally:
        newton_mod.newton_direction = original
    assert rep.status == "singular_unrecoverable"
    assert rep.residual_norm > params.delta


def test_report_trace_shape_and_dict():
    pr = make_ex_box()
    params = PenaltyParams(alpha=30.0, max_iter=5)
    rep = solve(pr, default_start(pr, [1.5], [0.3]), params)
    assert rep.iterates[0][0] == 0 and rep.iterates[0][3] == "initial"
    for entry in rep.iterates[1:]:
        k, res, merit, kind, tau = entry
        assert kind in ("newton", "gradient")
        assert 0 < tau <= 1.0
        assert merit == pytest.approx(0.5 * res * res, rel=1e-9)
    doc = rep.as_dict()
    assert doc["status"] == rep.status
    assert len(doc["iterates"]) == len(rep.iterates)
    assert doc["x"] == rep.final_u.x.tolist()


def test_default_start_recipe():
    pr = make_ex_box()
    u = default_start(pr, [1.5], [1.0])
    z0 = pr.A @ np.array([1.0]) - pr.b
    assert np.array_equal(u.z, z0)
    assert np.array_equal(u.lam2, z0) and np.array_equal(u.lam3, z0)
    assert np.array_equal(u.r, [0.0, 0.0])
    assert np.array_equal(u.s, [1.0, 1.0])
    assert np.array_equal(u.lam5, [1.0, 1.0])
    assert np.array_equal(u.lam1, np.abs(pr.D @ np.array([1.5]) - pr.d))
    assert np.array_equal(u.lam6, [0.0])
    assert np.array_equal(u.lam7, [0.0, 0.0])


def test_alpha_continuation_stops_at_first_feasible_weight():
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=1.0)
    u0 = root_ex_fractional(pr, 0.1)
    rep = alpha_continuation(pr, u0, params, [0.1, 1.0, 10.0])
    assert rep.status == "converged"
    assert rep.alpha == 0.1  # already a root with pi = 0 at the first weight
    assert rep.penalty_value <= 1e-8


def test_alpha_continuation_schedule_exhausted():
    """With a tolerance below the attainable roundoff in pi, the schedule
    runs out and the last report is relabeled."""
    pr = make_ex_box()
    params = PenaltyParams(alpha=1.0, max_iter=10)
    u0 = root_ex_box(1.0)
    u0.y = np.array([1.0])  # lower level not solved: pi = 1 at the start
    rep = alpha_continuation(pr, u0, params, [1.0], pi_tol=1e-15)
    assert rep.status == "schedule_exhausted"
    assert rep.penalty_value > 1e-15
    assert "schedule exhausted" in rep.message


def test_alpha_continuation_rejects_bad_schedule():
    pr = make_ex_box()
    params = PenaltyParams(alpha=1.0)
    u0 = default_start(pr, [1.2], [0.0])
    with pytest.raises(ValueError):
        alpha_continuation(pr, u0, params, [1.0, 1.0])
    with pytest.raises(ValueError):
        alpha_continuation(pr, u0, params, [])
