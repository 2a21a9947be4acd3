"""Seeded inputs of the three benchmark workloads.

Every workload is built by ``setup(rng)``, which returns a list of
passes (each a list of :class:`Job`) and the seconds spent in each
toll-network build.  The benchmark runs passes in order until its time
is up, cycling through the list when it runs out.  The program receives
only the generated problems and start points; the seed never reaches it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from ssnbilevel import (BilevelProblem, IterateU, PenaltyParams,
                        default_start, quadratic_objective, toll)
from ssnbilevel.problem import BLOCK_ORDER, pack, unpack

ALPHA = 30.0
GRID_SIZES = (4, 5, 6)
GRID_TOLLED_SHARE = 0.3
DESK_INSTANCES = 150
# one warm pass: three ex_box stacks to one ex_fractional stack, so that
# the median solve falls among the ex_box solves and p90 among the
# ex_fractional ones rather than in the gap between two equal groups
WARM_PASS = (("ex_box", 10),) * 3 + (("ex_fractional", 10),)
# enough distinct starts that a run never repeats one: how many of them
# fail is then averaged over the whole run, not fixed by a few draws
WARM_PASSES = 512
WARM_NOISE = 1e-3


@dataclass
class Job:
    """One solve call and what its output check needs.

    root is the known root (warm only); box marks an n = 1 box instance
    small enough for the brute-force oracles (desk only).
    """

    name: str
    problem: BilevelProblem
    u0: IterateU
    params: PenaltyParams
    root: IterateU | None = None
    box: bool = False


# -- grid ---------------------------------------------------------------
# Why: isolates the factorization.  Every iteration factors the three
# exactly singular tie-rule elements (148 lu_factor calls per 50-iteration
# solve) and dense LU is 78-84% of solve time, so a sparse or regularized
# factorization shows up here first.

def toll_grid(k, rng):
    """k x k grid with arcs running right and down, integer costs 1..9,
    30% of arcs tolled and one unit demand from corner to corner."""
    arcs = []
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                arcs.append((v, v + 1, float(rng.integers(1, 10))))
            if i + 1 < k:
                arcs.append((v, v + k, float(rng.integers(1, 10))))
    n_tolled = round(GRID_TOLLED_SHARE * len(arcs))
    tolled = rng.choice(len(arcs), n_tolled, replace=False)
    return toll.TollNetwork(nodes=list(range(k * k)), arcs=arcs,
                            tolled=tuple(int(a) for a in tolled),
                            od_pairs=[(0, k * k - 1, 1.0)])


def setup_grid(rng):
    jobs, build_s = [], []
    params = PenaltyParams(alpha=ALPHA)
    for k in GRID_SIZES:
        network = toll_grid(k, rng)
        t0 = time.perf_counter()
        problem, layout = toll.build_problem(network)
        build_s.append(time.perf_counter() - t0)
        u0 = default_start(problem, layout.costs, np.zeros(problem.n))
        jobs.append(Job(f"grid{k}", problem, u0, params))
    return [jobs], build_s


# -- desk ---------------------------------------------------------------
# Why: N <= 200 and LU is about 6% of solve time.  The time goes to about
# 11 merit trials per iteration (each an unpack plus a residual), to
# assembly and to per-call overhead.  This is the bypass workload for a
# sparse factorization (predicted: no gain, or a loss) and the target
# workload for a flat iterate.

def ex_box():
    """Optimum x = 2, y = 0: min -3x^2 + 10xy - 3y^2 over 1 <= x <= 2,
    y in Argmin {x y : 0 <= y <= 2}."""
    obj = quadratic_objective(Qxx=[[-6.0]], Qxy=[[10.0]], Qyy=[[-6.0]], n=1)
    return BilevelProblem(D=[[-1.0], [1.0]], d=[-1.0, 2.0],
                          A=[[-1.0], [1.0]], b=[0.0, 2.0], objective=obj)


def ex_box_root(alpha):
    return IterateU(
        x=[2.0], y=[0.0], z=[2.0, 0.0], r=[0.0, 1.0], s=[1.0, 0.0],
        lam1=[0.0, 12.0], lam2=[20.0 + alpha, 0.0], lam3=[0.0, alpha],
        lam4=[2.0 * alpha, 0.0], lam5=[0.0, 2.0 * alpha],
        lam6=[0.0], lam7=[0.0, 0.0])


def ex_fractional():
    """Optimum x = 5/3, y = 0: min 10x - 3x^2 + 10xy - 3y^2 over
    1 <= x <= 5/3, y in Argmin {x y : y >= 0}."""
    obj = quadratic_objective(Qxx=[[-6.0]], Qxy=[[10.0]], Qyy=[[-6.0]],
                              kx=[10.0], n=1)
    return BilevelProblem(D=[[-1.0], [1.0]], d=[-1.0, 5.0 / 3.0],
                          A=[[-1.0]], b=[0.0], objective=obj)


def ex_fractional_root(alpha):
    return IterateU(
        x=[5.0 / 3.0], y=[0.0], z=[5.0 / 3.0], r=[0.0], s=[1.0],
        lam1=[0.0, 0.0], lam2=[50.0 / 3.0 + alpha], lam3=[0.0],
        lam4=[5.0 * alpha / 3.0], lam5=[0.0], lam6=[0.0], lam7=[0.0])


def random_box_instance(rng):
    """Box constraints on x and y (n = 1, l = m = 2) and a concave
    quadratic objective; the family of the test suite's random_instance,
    drawn in the same order."""
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


def box_start(problem, rng):
    """default_start at a uniform primal guess inside the x and y boxes
    (a missing upper y bound is taken as 1 above the lower one)."""
    xlo, xhi = -problem.d[0], problem.d[1]
    ylo = -problem.b[0]
    yhi = problem.b[1] if problem.l > 1 else ylo + 1.0
    return default_start(problem, [rng.uniform(xlo, xhi)],
                         [rng.uniform(ylo, yhi)])


def setup_desk(rng):
    params = PenaltyParams(alpha=ALPHA)
    jobs = []
    for i in range(DESK_INSTANCES):
        problem = random_box_instance(rng)
        jobs.append(Job(f"desk{i}", problem, box_start(problem, rng),
                        params, box=True))
    for name, make in (("ex_box", ex_box), ("ex_fractional", ex_fractional)):
        problem = make()
        jobs.append(Job(name, problem, box_start(problem, rng), params,
                        box=True))
    build_s = []
    for name in ("network1", "network2"):
        t0 = time.perf_counter()
        ps = toll.preset(name)
        build_s.append(time.perf_counter() - t0)
        jobs.append(Job(name, ps.problem, ps.start, ps.params))
    return [jobs], build_s


# -- warm ---------------------------------------------------------------
# Why: the same Newton layer used differently.  Most solves converge in
# one Newton step, and then the certificates take most of the time: a
# dense cond() at N = 210 for ex_box, eight of them at N = 130 for the
# tied ex_fractional root.  Some starts need a run of gradient steps
# first and about 5% do not converge, which gives a real tail.  It stands for
# warm-started re-solves such as the later stages of alpha_continuation,
# and it is the only workload on which the regularity layer works today.
# Stacks of 10 copies, not 30 or 60: a start fails about once per 300
# perturbed copies, so 1 in 8 starts of a 30-copy stack fails, and each
# failure costs 15-30 converged solves; too few of them fit in a run to
# average, and they would set every timing.

WARM_BASES = {"ex_box": (ex_box, ex_box_root),
              "ex_fractional": (ex_fractional, ex_fractional_root)}


def stack(problem, k):
    """Block-diagonal problem made of k independent copies."""
    obj = problem.objective
    zero = np.zeros(problem.n)
    blocks = {name: block_diag(*[getattr(obj, name)(zero, zero)] * k)
              for name in ("hess_xx", "hess_xy", "hess_yy")}
    stacked = quadratic_objective(
        Qxx=blocks["hess_xx"], Qxy=blocks["hess_xy"], Qyy=blocks["hess_yy"],
        kx=np.tile(obj.grad_x(zero, zero), k),
        ky=np.tile(obj.grad_y(zero, zero), k), n=k * problem.n)
    return BilevelProblem(D=block_diag(*[problem.D] * k),
                          d=np.tile(problem.d, k),
                          A=block_diag(*[problem.A] * k),
                          b=np.tile(problem.b, k), objective=stacked)


def stack_root(root, k):
    """Known root of the stacked problem: each block concatenated."""
    return IterateU(**{name: np.tile(getattr(root, name), k)
                       for name in BLOCK_ORDER})


def setup_warm(rng):
    params = PenaltyParams(alpha=ALPHA)
    stacks = {}
    for base, k in dict.fromkeys(WARM_PASS):
        make, make_root = WARM_BASES[base]
        stacks[base, k] = (stack(make(), k), stack_root(make_root(ALPHA), k))
    passes = []
    for _ in range(WARM_PASSES):
        jobs = []
        for base, k in WARM_PASS:
            problem, root = stacks[base, k]
            noise = WARM_NOISE * rng.standard_normal(problem.size)
            u0 = unpack(pack(root) + noise, problem.n, problem.l, problem.m)
            jobs.append(Job(f"{base}x{k}", problem, u0, params, root=root))
        passes.append(jobs)
    return passes, []


SETUPS = {"grid": setup_grid, "desk": setup_desk, "warm": setup_warm}
