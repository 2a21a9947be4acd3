"""Jacobian assembly against finite differences and the smoothing limit."""

import dataclasses

import numpy as np
import pytest

from ssnbilevel import (PenaltyParams, eval_residual_vec, fd_jacobian,
                        generalized_element, merit_gradient,
                        smoothed_jacobian, smoothed_residual)
from ssnbilevel.jacobian import selection_weights

from conftest import (make_ex_box, make_ex_fractional, random_instance,
                      random_iterate, root_ex_fractional)


def test_selection_weights_rules():
    X = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(selection_weights(X), [0.0, 0.5, 1.0])


def test_smoothed_jacobian_matches_fd():
    rng = np.random.default_rng(0)
    pr = make_ex_box()
    params = PenaltyParams(alpha=3.0, epsilon=0.01)
    for _ in range(5):
        u = random_iterate(pr, rng)
        C = smoothed_jacobian(pr, u, params)
        J = fd_jacobian(pr, u, params, smoothed=True)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(C - J).max() / scale <= 1e-6


def test_generalized_element_matches_fd_off_kinks():
    """Away from kinks the residual is differentiable and the element is
    its classical Jacobian."""
    rng = np.random.default_rng(3)
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0, epsilon=0.0)
    for _ in range(5):
        u = random_iterate(pr, rng)  # kinks have measure zero
        C = generalized_element(pr, u, params).matrix
        J = fd_jacobian(pr, u, params, smoothed=False)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(C - J).max() / scale <= 1e-6


def test_generalized_element_is_smoothing_limit():
    """The half-rule element equals lim_{eps -> 0} of the smoothed
    Jacobian, including at constructed tie points."""
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    u = root_ex_fractional(pr, 2.0)  # has an exact tie in family 1
    G = generalized_element(pr, u, params).matrix
    Geps = smoothed_jacobian(pr, u,
                             dataclasses.replace(params, epsilon=1e-16))
    assert np.abs(G - Geps).max() <= 1e-6
    # at the tie row the half weight appears on the multiplier diagonal
    el = generalized_element(pr, u, params)
    assert el.p[0][1] == 0.5
    assert el.ties[0][1]


def test_smoothed_residual_coincides_at_eps_zero():
    rng = np.random.default_rng(5)
    pr = make_ex_box()
    params = PenaltyParams(alpha=4.0, epsilon=0.0)
    u = random_iterate(pr, rng)
    assert np.array_equal(smoothed_residual(pr, u, params),
                          eval_residual_vec(pr, u, params))


def test_smoothed_residual_shifts_only_comp_rows():
    rng = np.random.default_rng(6)
    pr = make_ex_box()
    u = random_iterate(pr, rng)
    p0 = PenaltyParams(alpha=4.0, epsilon=0.0)
    p1 = PenaltyParams(alpha=4.0, epsilon=0.01)
    head = 3 * pr.n + 4 * pr.l
    a = smoothed_residual(pr, u, p0)
    b = smoothed_residual(pr, u, p1)
    assert np.array_equal(a[:head], b[:head])
    assert np.abs(a[head:] - b[head:]).max() > 0


def test_merit_gradient_matches_fd():
    rng = np.random.default_rng(8)
    for smoothed, eps in ((True, 0.01), (False, 0.0)):
        pr = random_instance(rng)
        params = PenaltyParams(alpha=2.5, epsilon=eps)
        u = random_iterate(pr, rng)
        g = merit_gradient(pr, u, params, smoothed=smoothed)
        from ssnbilevel.problem import pack, unpack

        def psi(vec):
            uu = unpack(vec, pr.n, pr.l, pr.m)
            if smoothed:
                phi = smoothed_residual(pr, uu, params)
            else:
                phi = eval_residual_vec(pr, uu, params)
            return 0.5 * float(phi @ phi)

        v = pack(u)
        h = 1e-6
        for i in range(v.shape[0]):
            e = np.zeros_like(v)
            e[i] = h
            fd = (psi(v + e) - psi(v - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=5e-5, rel=1e-4)
