"""Residual map, penalty value, complementarity rewrite, affine form."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssnbilevel import (PenaltyParams, assemble_affine_system, check_noc,
                        eval_merit, eval_pi, eval_residual,
                        eval_residual_vec, quadratic_objective)
from ssnbilevel.problem import BilevelProblem, IterateU
from ssnbilevel.residual import ResidualBlocks, selection_arguments

from conftest import (make_ex_box, make_ex_fractional, random_instance,
                      random_iterate, root_ex_box, root_ex_fractional)


def test_known_root_fractional_example():
    pr = make_ex_fractional()
    for alpha in (0.5, 2.0, 17.0):
        params = PenaltyParams(alpha=alpha)
        u = root_ex_fractional(pr, alpha)
        assert np.linalg.norm(eval_residual_vec(pr, u, params)) <= 1e-12
        noc = check_noc(pr, u, params)
        assert noc["satisfied"], noc


def test_known_root_box_example():
    pr = make_ex_box()
    for alpha in (1.0, 30.0):
        params = PenaltyParams(alpha=alpha)
        u = root_ex_box(alpha)
        assert np.linalg.norm(eval_residual_vec(pr, u, params)) <= 1e-12
        assert check_noc(pr, u, params)["satisfied"]


def test_pi_value_and_sign():
    pr = make_ex_box()
    # y = 0 with z = (2, 0): min(2, 0) + min(0, 2) = 0
    assert eval_pi(pr, [0.0], [2.0, 0.0]) == pytest.approx(0.0)
    # y = 1 gives slacks (1, 1); z = (2, 0) -> min(2,1) + min(0,1) = 1
    assert eval_pi(pr, [1.0], [2.0, 0.0]) == pytest.approx(1.0)


def test_pi_zero_iff_lower_level_optimal():
    """With z a feasible dual vector (A^T z = -x, z >= 0), pi vanishes
    exactly when y solves the lower level for that x."""
    pr = make_ex_box()
    x = np.array([1.5])
    z_opt = np.array([1.5, 0.0])  # dual of min x y over 0 <= y <= 2
    assert eval_pi(pr, [0.0], z_opt) == pytest.approx(0.0)  # y = 0 optimal
    assert eval_pi(pr, [2.0], z_opt) > 0.0  # y = 2 suboptimal


def test_residual_block_order_and_stacking():
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    u = random_iterate(pr, np.random.default_rng(0))
    blocks = eval_residual(pr, u, params)
    vec = eval_residual_vec(pr, u, params)
    assert vec.shape == (pr.size,)
    off = 0
    for name in ResidualBlocks.ORDER:
        seg = getattr(blocks, name)
        assert np.array_equal(vec[off:off + seg.shape[0]], seg)
        off += seg.shape[0]
    assert off == pr.size
    assert np.array_equal(blocks.vec, vec)
    assert eval_merit(pr, u, params) == pytest.approx(0.5 * vec @ vec)


def test_merit_nonnegative_and_zero_at_root():
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    assert eval_merit(pr, root_ex_fractional(pr, 2.0), params) <= 1e-25
    u = random_iterate(pr, np.random.default_rng(1))
    assert eval_merit(pr, u, params) >= 0.0


# --- complementarity rewrite: lam - max(0, lam + t h) = 0  <=>
#     lam >= 0, h <= 0, lam * h = 0 -------------------------------------

def _max_equation_holds(lam, h, t):
    return lam - max(0.0, lam + t * h) == 0.0


def _triple_holds(lam, h):
    return lam >= 0.0 and h <= 0.0 and lam * h == 0.0


@settings(max_examples=1000, deadline=None)
@given(lam=st.one_of(st.just(0.0), st.floats(-5, 5, allow_nan=False)),
       h=st.one_of(st.just(0.0), st.floats(-5, 5, allow_nan=False)),
       tpick=st.integers(0, 4))
def test_complementarity_biconditional(lam, h, tpick):
    ts = np.array([0.37, 1.0, 0.045, 2.6, 0.0025])
    t = ts[tpick]
    # force exact complementarity for a slice of the samples so both
    # sides of the biconditional are exercised
    if abs(lam * h) < 0.25:
        h = 0.0
    assert _max_equation_holds(lam, h, t) == _triple_holds(lam, h)


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(0, 5, allow_nan=False), h=st.floats(-5, 0,
                                                         allow_nan=False),
       tpick=st.integers(0, 4))
def test_complementarity_forward_direction(lam, h, tpick):
    """Every genuine complementary pair satisfies the max equation."""
    ts = np.array([0.37, 1.0, 0.045, 2.6, 0.0025])
    if lam > 0:
        h = 0.0
    assert _max_equation_holds(lam, h, ts[tpick])


def test_selection_arguments_signs_at_root():
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    X1, X2, X3, X4, X5 = selection_arguments(
        pr, root_ex_fractional(pr, 2.0), params)
    assert X1[0] < 0          # strict upper slack on x >= 1
    assert X1[1] == 0.0       # binding bound with zero multiplier: a tie
    assert X2[0] > 0          # active lower constraint, positive multiplier
    assert X3[0] < 0 and X5[0] < 0
    assert X4[0] > 0


def test_check_noc_flags_violations():
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    u = root_ex_fractional(pr, 2.0)
    u.lam2 = -u.lam2  # break dual feasibility
    noc = check_noc(pr, u, params)
    assert not noc["satisfied"]
    assert noc["dual_signs"] > 1.0


# --- affine-objective system ------------------------------------------

def _affine_instance(rng):
    n, l, m = 2, 3, 2
    obj = quadratic_objective(kx=rng.standard_normal(n),
                              ky=rng.standard_normal(n), n=n)
    return BilevelProblem(D=rng.standard_normal((m, n)),
                          d=rng.standard_normal(m),
                          A=rng.standard_normal((l, n)),
                          b=rng.standard_normal(l), objective=obj)


def test_affine_system_matches_residual():
    rng = np.random.default_rng(42)
    pr = _affine_instance(rng)
    params = PenaltyParams(alpha=3.0)
    sys_ = assemble_affine_system(pr, params)
    n, l, m = pr.n, pr.l, pr.m
    for _ in range(50):
        u = random_iterate(pr, rng, scale=2.0)
        phi = eval_residual_vec(pr, u, params)
        X = np.concatenate([u.x, u.y, u.z, u.r, u.s])
        G = np.concatenate([u.lam1, u.lam2, u.lam3, u.lam4, u.lam5,
                            u.lam6, u.lam7])
        smooth = sys_.B1 @ X + sys_.B2 @ G - sys_.v
        head = 3 * n + 4 * l
        assert np.abs(smooth - phi[:head]).max() <= 1e-12
        lam_families = np.concatenate([u.lam1, u.lam2, u.lam3, u.lam4,
                                       u.lam5])
        comp = lam_families - np.maximum(
            0.0, lam_families + sys_.t_expanded * sys_.psi(X, pr))
        assert np.abs(comp - phi[head:]).max() <= 1e-12


def test_affine_system_rejects_quadratic_objective():
    pr = make_ex_fractional()
    with pytest.raises(ValueError):
        assemble_affine_system(pr, PenaltyParams(alpha=1.0))


def test_residual_matches_on_random_instances():
    """Penalty value enters stat_s exactly as alpha * slack."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        pr = random_instance(rng)
        params = PenaltyParams(alpha=rng.uniform(0.5, 10.0))
        u = random_iterate(pr, rng)
        blocks = eval_residual(pr, u, params)
        slack = pr.b - pr.A @ u.y
        assert np.allclose(blocks.stat_s,
                           params.alpha * slack + u.lam7 - u.lam5)
