"""Containers, packing and data validation."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssnbilevel import (BilevelProblem, PenaltyParams, quadratic_objective,
                        pack, unpack, validate)
from ssnbilevel.problem import (BLOCK_ORDER, DimensionError, IterateU,
                                block_lengths, block_slices)

from conftest import make_ex_box, make_ex_fractional, random_iterate


def test_dimensions_of_example():
    pr = make_ex_fractional()
    assert (pr.n, pr.l, pr.m) == (1, 1, 2)
    assert pr.size == 3 * 1 + 8 * 1 + 2


def test_block_slices_partition():
    n, l, m = 3, 5, 2
    slices = block_slices(n, l, m)
    total = 3 * n + 8 * l + m
    covered = np.zeros(total, int)
    for name in BLOCK_ORDER:
        covered[slices[name]] += 1
    assert np.all(covered == 1)
    assert sum(block_lengths(n, l, m).values()) == total


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4), l=st.integers(1, 6), m=st.integers(1, 5),
       seed=st.integers(0, 10 ** 6))
def test_pack_unpack_roundtrip(n, l, m, seed):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(3 * n + 8 * l + m)
    u = unpack(vec, n, l, m)
    assert np.array_equal(pack(u), vec)
    v = pack(u)
    u2 = unpack(v, n, l, m)
    for name in BLOCK_ORDER:
        assert np.array_equal(getattr(u, name), getattr(u2, name))


def test_unpack_and_pack_copy():
    vec = np.arange(13.0)
    u = unpack(vec, 1, 1, 2)
    vec[:] = -1.0
    assert np.array_equal(u.vec, np.arange(13.0))  # unpack copied vec
    packed = pack(u)
    packed[:] = -2.0
    assert np.array_equal(u.vec, np.arange(13.0))  # pack returned a copy


def test_block_views_write_through():
    u = IterateU.zeros(1, 1, 2)
    lam1 = u.lam1
    u.lam1 = [3.0, 4.0]
    assert np.array_equal(u.vec[block_slices(1, 1, 2)["lam1"]], [3.0, 4.0])
    assert np.array_equal(lam1, [3.0, 4.0])  # a block is a view of vec
    u.x[0] = 5.0
    assert u.vec[0] == 5.0
    for dup in (u.copy(), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
        dup.x = [6.0]
        assert dup.vec[0] == 6.0 and u.x[0] == 5.0
    with pytest.raises(ValueError):
        u.lam1 = np.zeros(3)  # a block keeps its length
    with pytest.raises(AttributeError):
        u.vec = np.zeros(13)  # rebinding vec would orphan the views


def test_keyword_constructor_needs_every_block():
    blocks = {name: [0.0] for name in BLOCK_ORDER}
    assert IterateU(**blocks).vec.shape == (12,)
    del blocks["lam7"]
    with pytest.raises(TypeError):
        IterateU(**blocks)


def test_unpack_rejects_wrong_length():
    with pytest.raises(DimensionError):
        unpack(np.zeros(10), 1, 1, 2)


def test_iterate_check_dims():
    pr = make_ex_fractional()
    u = IterateU.zeros(pr.n, pr.l, pr.m)
    u.check_dims(pr)
    blocks = {name: getattr(u, name) for name in BLOCK_ORDER}
    blocks["lam1"] = np.zeros(5)
    with pytest.raises(DimensionError, match="lam1"):
        IterateU(**blocks).check_dims(pr)


def test_quadratic_objective_values_and_derivatives():
    rng = np.random.default_rng(0)
    n = 3
    Qxx = rng.standard_normal((n, n))
    Qxy = rng.standard_normal((n, n))
    Qyy = rng.standard_normal((n, n))
    kx, ky = rng.standard_normal(n), rng.standard_normal(n)
    obj = quadratic_objective(Qxx=Qxx, Qxy=Qxy, Qyy=Qyy, kx=kx, ky=ky,
                              const=1.5)
    Qxx_s, Qyy_s = 0.5 * (Qxx + Qxx.T), 0.5 * (Qyy + Qyy.T)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    expected = (0.5 * x @ Qxx_s @ x + x @ Qxy @ y + 0.5 * y @ Qyy_s @ y
                + kx @ x + ky @ y + 1.5)
    assert obj.eval(x, y) == pytest.approx(expected, rel=1e-12)
    h = 1e-6
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd_x = (obj.eval(x + e, y) - obj.eval(x - e, y)) / (2 * h)
        fd_y = (obj.eval(x, y + e) - obj.eval(x, y - e)) / (2 * h)
        assert obj.grad_x(x, y)[i] == pytest.approx(fd_x, abs=1e-5)
        assert obj.grad_y(x, y)[i] == pytest.approx(fd_y, abs=1e-5)
    for name, block in (("hess_xx", obj.Qxx), ("hess_xy", obj.Qxy),
                        ("hess_yy", obj.Qyy)):
        H = getattr(obj, name)(x, y)
        assert H is block and not H.flags.writeable
    assert np.array_equal(obj.Qxx, Qxx_s) and np.array_equal(obj.Qxy, Qxy)
    assert not obj.kx.flags.writeable
    for given in (Qxx, Qxy, Qyy, kx, ky):
        assert given.flags.writeable  # the caller's arrays stay writable
    assert not obj.affine
    assert quadratic_objective(kx=[1.0, 2.0]).affine


def test_penalty_params_validation():
    p = PenaltyParams(alpha=2.0)
    assert p.t.shape == (5,)
    assert p.with_alpha(7.0).alpha == 7.0
    assert p.alpha == 2.0  # original untouched
    with pytest.raises(ValueError):
        PenaltyParams(alpha=-1.0)
    with pytest.raises(ValueError):
        PenaltyParams(t=[0.1, 0.1, 0.0, 0.1, 0.1])
    with pytest.raises(ValueError):
        PenaltyParams(sigma=0.7)
    with pytest.raises(ValueError):
        PenaltyParams(p_exp=2.0)
    scalar_t = PenaltyParams(t=[0.3])
    assert np.allclose(scalar_t.t, 0.3)


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", ["alpha", "t", "epsilon", "delta", "rho",
                                  "p_exp", "beta", "sigma", "max_iter"])
def test_penalty_params_reject_nonfinite(name, value):
    """A non-finite scalar, or one non-finite t entry, is rejected as
    such (an infinite delta used to stop every solve at once)."""
    if name == "t":
        value = [0.045, value, 0.025, 0.005, 0.0025]
    with pytest.raises(ValueError, match="finite"):
        PenaltyParams(**{name: value})


@pytest.mark.parametrize("name, value, message", [
    ("max_iter", 1.5, "integer"),
    ("max_iter", 2.0, "integer"),
    ("max_iter", True, "not a bool"),
    ("alpha", True, "not a bool"),
    ("delta", np.True_, "not a bool"),
    ("epsilon", False, "not a bool"),
], ids=["max_iter-fraction", "max_iter-float", "max_iter-bool", "alpha-bool",
        "delta-numpy-bool", "epsilon-bool"])
def test_penalty_params_reject_non_integer_and_bool(name, value, message):
    """max_iter must be an integer and no scalar may be a bool: 1.5 used
    to run two iterations, True one, and alpha=True solved at alpha 1."""
    with pytest.raises(ValueError, match=message):
        PenaltyParams(**{name: value})
    assert PenaltyParams(max_iter=np.int64(3)).max_iter == 3


def test_problem_and_params_compare_and_hash_by_identity():
    """Comparing or hashing a problem or parameter set used to raise
    (the generated __eq__ and __hash__ reached numpy arrays); both are
    identities now, as the per-problem residual map cache assumes."""
    problem, other = make_ex_box(), make_ex_box()
    assert problem == problem and problem != other
    assert {problem: 1, other: 2}[problem] == 1
    assert hash(problem) != hash(other)
    params = PenaltyParams()
    assert params == params and params != PenaltyParams()
    assert params != params.with_alpha(params.alpha)
    assert {params: 1}[params] == 1


def test_validate_accepts_good_and_flags_bad():
    pr = make_ex_fractional()
    assert validate(pr) == []

    obj = quadratic_objective(Qxx=np.eye(2), n=2)  # n = 2 against n = 1
    bad = BilevelProblem(D=[[-1.0]], d=[-1.0], A=[[-1.0]], b=[0.0],
                         objective=obj)
    diags = validate(bad)
    assert any(msg.startswith("objective") for msg in diags)


def test_validate_reports_shape_mismatch():
    obj = quadratic_objective(Qxx=[[-6.0]], n=1)
    bad = BilevelProblem(D=[[-1.0]], d=[-1.0, 2.0], A=[[-1.0]], b=[0.0],
                         objective=obj)
    assert any("d:" in msg for msg in validate(bad))


def test_random_iterate_helper_matches_dims():
    pr = make_ex_fractional()
    u = random_iterate(pr, np.random.default_rng(1))
    u.check_dims(pr)
