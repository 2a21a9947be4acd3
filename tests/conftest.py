"""Shared fixtures: the two analytic desk examples with their known
roots, a generator of random desk-scale instances, and the benchmark's
modules loaded from their files."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ssnbilevel import BilevelProblem, quadratic_objective
from ssnbilevel.problem import IterateU


def make_ex_fractional(two_row=True, negate=False):
    """Desk example with optimum x = 5/3, y = 0.

    Upper objective 10x - 3x^2 + 10xy - 3y^2 over 1 <= x <= 5/3 with
    lower level Argmin {x y : y >= 0}.  The one-row variant drops the
    x <= 5/3 bound, which is inactive as a constraint of the concave
    objective's interior maximizer and leaves the stationary point
    unchanged.  negate=True flips the objective sign (the revenue
    reading, under which (5/3, 0) is the global minimizer).
    """
    sign = -1.0 if negate else 1.0
    obj = quadratic_objective(Qxx=[[-6.0 * sign]], Qxy=[[10.0 * sign]],
                              Qyy=[[-6.0 * sign]], kx=[10.0 * sign],
                              ky=[0.0], const=0.0, n=1)
    if two_row:
        D, d = [[-1.0], [1.0]], [-1.0, 5.0 / 3.0]
    else:
        D, d = [[-1.0]], [-1.0]
    return BilevelProblem(D=D, d=d, A=[[-1.0]], b=[0.0], objective=obj)


def root_ex_fractional(problem, alpha, negate=False):
    """Known root of the residual for make_ex_fractional at weight alpha.

    With the negated objective the gradient in y flips sign, so lam2
    becomes alpha - 50/3 (valid once alpha >= 50/3)."""
    lam2 = alpha - 50.0 / 3.0 if negate else 50.0 / 3.0 + alpha
    if lam2 < 0:
        raise ValueError("alpha too small for the negated-objective root")
    return IterateU(
        x=[5.0 / 3.0], y=[0.0], z=[5.0 / 3.0], r=[0.0], s=[1.0],
        lam1=np.zeros(problem.m), lam2=[lam2], lam3=[0.0],
        lam4=[5.0 * alpha / 3.0], lam5=[0.0], lam6=[0.0], lam7=[0.0])


def make_ex_box():
    """Desk example with optimum x = 2, y = 0.

    Upper objective -3x^2 + 10xy - 3y^2 over 1 <= x <= 2 with lower
    level Argmin {x y : 0 <= y <= 2}."""
    obj = quadratic_objective(Qxx=[[-6.0]], Qxy=[[10.0]], Qyy=[[-6.0]],
                              kx=[0.0], ky=[0.0], const=0.0, n=1)
    return BilevelProblem(D=[[-1.0], [1.0]], d=[-1.0, 2.0],
                          A=[[-1.0], [1.0]], b=[0.0, 2.0], objective=obj)


def root_ex_box(alpha):
    """Multiplier point at (2, 0) satisfying the full residual system.

    Derived from first principles: z = (2, 0) solves the lower-level
    dual, the binding upper bound x <= 2 carries lam1 = 12 and all
    remaining multipliers follow from the stationarity rows."""
    return IterateU(
        x=[2.0], y=[0.0], z=[2.0, 0.0], r=[0.0, 1.0], s=[1.0, 0.0],
        lam1=[0.0, 12.0], lam2=[20.0 + alpha, 0.0], lam3=[0.0, alpha],
        lam4=[2.0 * alpha, 0.0], lam5=[0.0, 2.0 * alpha],
        lam6=[0.0], lam7=[0.0, 0.0])


def random_instance(rng):
    """Small random instance with box constraints on x and y (n = 1,
    l = m = 2) and a concave quadratic objective, bounded on the
    penalized feasible set's primal part."""
    lo = rng.uniform(-2.0, 0.0)
    hi = lo + rng.uniform(0.5, 2.5)
    ylo = rng.uniform(-2.0, 0.0)
    yhi = ylo + rng.uniform(0.5, 2.5)
    obj = quadratic_objective(
        Qxx=[[-rng.uniform(0.0, 3.0)]], Qxy=[[rng.uniform(-3.0, 3.0)]],
        Qyy=[[-rng.uniform(0.0, 3.0)]], kx=[rng.uniform(-3.0, 3.0)],
        ky=[rng.uniform(-3.0, 3.0)], const=0.0, n=1)
    return BilevelProblem(D=[[-1.0], [1.0]], d=[-lo, hi],
                          A=[[-1.0], [1.0]], b=[-ylo, yhi], objective=obj)


def random_iterate(problem, rng, scale=1.0):
    from ssnbilevel.problem import block_lengths, BLOCK_ORDER

    lengths = block_lengths(problem.n, problem.l, problem.m)
    return IterateU(**{name: scale * rng.standard_normal(lengths[name])
                       for name in BLOCK_ORDER})


@pytest.fixture
def ex_fractional():
    return make_ex_fractional()


@pytest.fixture
def ex_box():
    return make_ex_box()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py loaded from its file, unchanged."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def workloads():
    return load_perfbench("workloads")
