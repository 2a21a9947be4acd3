"""The Armijo search in blocks against the one-trial-at-a-time loop.

reference_line_search is the scalar Armijo loop that newton.line_search
ran before its trials were evaluated in blocks.  The block search, and
the stacked merit it evaluates, must reproduce it bit for bit: every
merit, every accepted step size and so every solve.
"""

import numpy as np
import pytest

from ssnbilevel import (PenaltyParams, build_problem, default_start,
                        eval_merit, eval_residual_vec, generalized_element,
                        newton_direction, newton_element, preset,
                        residual_and_selection, solve)
from ssnbilevel import newton as newton_mod
from ssnbilevel.jacobian import selection_weights
from ssnbilevel.newton import MAX_HALVINGS, TRIAL_BLOCK, line_search
from ssnbilevel.problem import unpack
from ssnbilevel.residual import selection_arguments

from conftest import random_instance
from test_residual_map import _cases


def reference_line_search(merit, vec, direction, psi0, slope, params):
    """Armijo backtracking, one trial per merit call: smallest j >= 0
    with merit(u + beta^j d) <= psi0 + sigma beta^j slope."""
    tau = 1.0
    for _ in range(MAX_HALVINGS + 1):
        psi_new = merit(vec + tau * direction)
        if psi_new <= psi0 + params.sigma * tau * slope:
            return tau, psi_new, True
        tau *= params.beta
    return tau, psi_new, False


def _one_at_a_time(problem, params):
    """The merit of one trial point, through an unpacked iterate."""
    n, l, m = problem.n, problem.l, problem.m
    return lambda vec: eval_merit(problem, unpack(vec, n, l, m), params)


def _layouts(stack):
    """The same stack C-ordered, F-ordered and as a strided view."""
    J, N = stack.shape
    wide = np.full((2 * J, 3 * N), np.nan)
    wide[::2, 1::3] = stack
    return {"C": np.ascontiguousarray(stack),
            "F": np.asfortranarray(stack),
            "strided": wide[::2, 1::3]}


def _trial_stacks(iterates, rng):
    """Stacks of points as the line search builds them: the iterates
    themselves, and 16 and 45 trials u + beta^j d along a random d."""
    vecs = np.array([u.vec for u in iterates])
    taus = np.cumprod([1.0] + [0.5] * MAX_HALVINGS)
    for u in iterates:
        d = rng.standard_normal(u.vec.shape[0]) * (1.0 + np.abs(u.vec))
        yield u.vec + taus[:TRIAL_BLOCK, None] * d
        yield u.vec + taus[TRIAL_BLOCK:, None] * d
    yield vecs
    yield vecs[:1]


def test_stacked_merit_equals_each_row(workloads):
    """eval_merit on a stack gives, row for row, exactly the merit of
    the row as an iterate, whatever the memory layout of the stack."""
    rng = np.random.default_rng(5)
    rows = 0
    for name, problem, params, iterates in _cases(workloads):
        one = _one_at_a_time(problem, params)
        for stack in _trial_stacks(iterates, rng):
            expected = np.array([one(row) for row in stack])
            assert np.isfinite(expected).all(), name
            for layout, arr in _layouts(stack).items():
                got = eval_merit(problem, arr, params)
                assert got.shape == (stack.shape[0],), (name, layout)
                assert np.array_equal(got, expected), (name, layout)
            rows += stack.shape[0]
    assert rows > 5000
    u = iterates[0]
    assert type(eval_merit(problem, u, params)) is float


def test_element_and_gradient_unchanged(workloads):
    """The element's per-family weights and kink masks, and the merit
    gradient, equal their per-family and transposed-product forms."""
    rng = np.random.default_rng(6)
    for name, problem, params, iterates in _cases(workloads):
        for u in iterates[:3]:
            element = generalized_element(problem, u, params)
            Xs = selection_arguments(problem, u, params)
            for p, ties, X in zip(element.p, element.ties, Xs):
                assert np.array_equal(p, selection_weights(X)), name
                assert np.array_equal(ties, X == 0), name
            phi = eval_residual_vec(problem, u, params)
            phi_u, X = residual_and_selection(problem, u, params)
            _, grad, _ = newton_direction(phi_u, newton_element(
                problem, selection_weights(X), params), params)
            assert np.array_equal(grad, element.sparse.T @ phi), name
    # kinks: an iterate with every selection argument exactly zero
    problem, params = random_instance(rng), PenaltyParams(alpha=3.0)
    u = default_start(problem, [0.0], [0.0])
    u.vec[:] = 0.0
    u.lam1 = params.t[0] * problem.d
    u.lam2 = params.t[1] * problem.b
    element = generalized_element(problem, u, params)
    assert all(ties.all() for ties in element.ties)
    assert all((p == 0.5).all() for p in element.p)


def _starts(workloads):
    """(name, problem, params, start): default starts of the families
    of the residual-map tests, and perturbed roots of the warm stacks."""
    rng = np.random.default_rng(7)
    params = PenaltyParams(alpha=30.0)
    for i in range(20):
        problem = random_instance(rng)
        x0 = rng.uniform(-problem.d[0], problem.d[1], 1)
        y0 = rng.uniform(-problem.b[0], problem.b[1], 1)
        yield f"random{i}", problem, params, default_start(problem, x0, y0)
    for name in ("network1", "network2"):
        ps = preset(name)
        yield name, ps.problem, ps.params, ps.start
    network = workloads.toll_grid(3, np.random.default_rng(1))
    problem, layout = build_problem(network)
    yield ("grid3", problem, params,
           default_start(problem, layout.costs, np.zeros(problem.n)))
    passes, _ = workloads.setup_warm(np.random.default_rng(1))
    for jobs in passes[:8]:
        for job in jobs:
            yield job.name, job.problem, job.params, job.u0


def test_solves_unchanged(workloads, monkeypatch):
    """solve with the block search returns the same bytes as solve with
    the one-trial-at-a-time loop on a per-trial unpacked iterate."""
    kinds, statuses = set(), set()
    for name, problem, params, u0 in _starts(workloads):
        got = solve(problem, u0, params)
        with monkeypatch.context() as patch:
            one = _one_at_a_time(problem, params)

            def scalar_search(evaluate, vec, direction, psi0, slope,
                              params_):
                tau, psi, ok = reference_line_search(one, vec, direction,
                                                     psi0, slope, params_)
                return tau, psi, ok, *evaluate(vec + tau * direction)

            patch.setattr(newton_mod, "line_search", scalar_search)
            ref = solve(problem, u0, params)
        assert got.final_u.vec.tobytes() == ref.final_u.vec.tobytes(), name
        assert got.iterates == ref.iterates, name
        assert [type(v) for e in got.iterates for v in e] == \
            [type(v) for e in ref.iterates for v in e], name
        assert got.status == ref.status, name
        assert got.objective_value == ref.objective_value, name
        assert got.penalty_value == ref.penalty_value, name
        kinds.update(got.step_kinds)
        statuses.add(got.status)
    assert kinds == {"newton", "gradient"}
    assert {"converged", "max_iter"} <= statuses


def _phi_rows(values):
    """One-entry Phi rows whose merits are the given values."""
    return np.sqrt(2.0 * np.asarray(values))[:, None]


class _Recorder:
    """A stack evaluation whose merits are a function of the first
    coordinate, which records the trial points of every call."""

    def __init__(self, fun):
        self.fun = fun
        self.calls = []

    def __call__(self, stack):
        self.calls.append(stack[:, 0].copy())
        return _phi_rows([self.fun(v) for v in stack[:, 0]]), stack

    def scalar(self, vec):
        row = _phi_rows([self.fun(vec[0])])[0]
        return 0.5 * float(row @ row)


def _both(fun, psi0, slope, params, direction=1.0):
    """(block result, reference result, trial points per merit call)."""
    merit = _Recorder(fun)
    vec, d = np.zeros(1), np.array([direction])
    got = line_search(merit, vec, d, psi0, slope, params)[:3]
    ref = reference_line_search(merit.scalar, vec, d, psi0, slope, params)
    assert [type(v) for v in got] == [float, float, bool]
    return got, ref, merit.calls


def test_tau_sequence_with_beta_three_tenths():
    """beta = 0.3: the trial step sizes are the repeated products of the
    scalar loop, bit for bit, and the accepted one too."""
    params = PenaltyParams(beta=0.3, sigma=1e-4)
    taus, tau = [], 1.0
    for _ in range(MAX_HALVINGS + 1):
        taus.append(tau)
        tau *= 0.3
    got, ref, calls = _both(lambda v: 0.0 if v < 1e-5 else 1.0, 1.0, -1.0,
                            params)
    assert got == ref and got[2]
    assert got[0] == taus[10]  # 0.3^10 < 1e-5 < 0.3^9
    assert list(calls[0]) == taus[:TRIAL_BLOCK]
    assert len(calls) == 1


def test_acceptance_in_the_second_block():
    """The first acceptable trial after trial 16 is taken from the
    second block of 45 trials."""
    params = PenaltyParams(beta=0.5, sigma=1e-4)
    got, ref, calls = _both(lambda v: 0.0 if v <= 0.5 ** 20 else 2.0, 1.0,
                            -1.0, params)
    assert got == ref == (0.5 ** 20, 0.0, True)
    assert [len(c) for c in calls] == [TRIAL_BLOCK,
                                       MAX_HALVINGS + 1 - TRIAL_BLOCK]
    assert calls[1][0] == 0.5 ** TRIAL_BLOCK


def test_nan_merits_are_never_accepted():
    params = PenaltyParams(beta=0.5, sigma=1e-4)
    got, ref, _ = _both(lambda v: np.nan if v > 0.01 else 0.0, 1.0, -1.0,
                        params)
    assert got == ref == (0.5 ** 7, 0.0, True)
    got, ref, calls = _both(lambda v: np.nan, 1.0, -1.0, params)
    assert not got[2] and not ref[2]
    assert got[0] == ref[0] and np.isnan(got[1]) and np.isnan(ref[1])
    assert len(calls) == 2


def test_stall_returns_the_scalar_loops_tau_and_merit():
    """A stall returns beta^61, the step size after the last halving,
    and the merit of the last trial, beta^60."""
    for beta in (0.5, 0.3, 0.9):
        params = PenaltyParams(beta=beta, sigma=1e-4)
        got, ref, calls = _both(lambda v: 2.0 + v, 1.0, -1.0, params)
        assert got == ref and not got[2]
        assert got[1] == 2.0 + calls[-1][-1]
        tau = 1.0
        for _ in range(MAX_HALVINGS + 1):
            tau *= beta
        assert got[0] == tau


def test_random_merits_match_the_scalar_loop():
    """Seeded merit tables, thresholds and slopes: the block search and
    the scalar loop pick the same trial every time."""
    rng = np.random.default_rng(8)
    accepted = []
    for _ in range(300):
        params = PenaltyParams(beta=rng.uniform(0.05, 0.95),
                               sigma=rng.uniform(1e-6, 0.4))
        # room for a step size the scalar loop would not have tried
        table = rng.uniform(0.0, 2.0, 2 * (MAX_HALVINGS + 1))
        table[rng.random(table.size) < 0.1] = np.nan
        first = rng.integers(0, MAX_HALVINGS + 3)
        table[:first] = np.maximum(table[:first], 1.5)  # fail until first
        taus = {}

        def fun(v):
            j = taus.setdefault(v, len(taus))
            return table[j]

        slope = -rng.uniform(0.0, 10.0)
        got, ref, _ = _both(fun, 1.0, slope, params)
        assert got[0] == ref[0] and got[2] == ref[2]
        assert got[1] == ref[1] or (np.isnan(got[1]) and np.isnan(ref[1]))
        accepted.append(got[2])
    assert 0 < sum(accepted) < len(accepted)


def test_rows_of_the_accepted_trial_are_returned():
    """Phi and X come back as the rows of the accepted trial, or of the
    last trial on a stall."""
    params = PenaltyParams(beta=0.5, sigma=1e-4)
    for fun, j in ((lambda v: 0.0 if v <= 0.5 ** 20 else 2.0, 20),
                   (lambda v: 2.0, MAX_HALVINGS)):
        merit = _Recorder(fun)
        *_, phi, X = line_search(merit, np.zeros(1), np.ones(1), 1.0, -1.0,
                                 params)
        assert X.tolist() == [0.5 ** j]  # the recorder's X is the trial
        assert phi.tolist() == _phi_rows([fun(0.5 ** j)])[0].tolist()


@pytest.mark.parametrize("slope", [-1.0, 0.0])
def test_full_step_in_first_trial(slope):
    params = PenaltyParams()
    got, ref, calls = _both(lambda v: 0.0, 0.5, slope, params)
    assert got == ref == (1.0, 0.0, True) and len(calls) == 1
