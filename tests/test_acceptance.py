"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line with the measured numbers and
then asserts.  The two network-benchmark reproductions and the analytic
regularity certificates are known not to hold for the programs as
published (see the failure details they print); they are kept failing
rather than weakened.
"""

import time

import numpy as np
import pytest

from ssnbilevel import (PenaltyParams, alpha_continuation,
                        assemble_affine_system, bilevel_bruteforce,
                        check_theorem_fullrank_yy, check_theorem_invertibleA,
                        eval_pi, eval_residual_vec, fd_jacobian,
                        generalized_element, global_penalized,
                        probe_nonsingularity, quadratic_objective,
                        smoothed_jacobian, solve)
from ssnbilevel.oracle import lower_level_argmin
from ssnbilevel.problem import BilevelProblem, pack, unpack
from ssnbilevel.toll import preset, revenue

from conftest import (make_ex_box, make_ex_fractional, random_instance,
                      random_iterate, root_ex_box, root_ex_fractional)


def _line(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_acceptance_01_network1_reproduction():
    ps = preset("network1")
    assert ps.params.alpha == 0.45
    t0 = time.time()
    rep = solve(ps.problem, ps.start, ps.params)
    dt = time.time() - t0
    u = rep.final_u
    lower = float(u.x @ u.y)
    pi = eval_pi(ps.problem, u.y, u.z)
    conds = {
        "iterations <= 50": rep.iterations <= 50,
        "residual <= 1e-6": rep.residual_norm <= 1e-6,
        "pi <= 1e-6": pi <= 1e-6,
        "upper within 5e-2 of -7.0346":
            abs(rep.objective_value - (-7.0346)) <= 5e-2,
        "lower within 5e-2 of 12.9927": abs(lower - 12.9927) <= 5e-2,
        "runtime <= 5s": dt <= 5.0,
    }
    ok = all(conds.values())
    _line(1, ok,
          f"status={rep.status}, ||Phi||={rep.residual_norm:.3g}, "
          f"pi={pi:.3g}, F={rep.objective_value:.4f}, f={lower:.4f}, "
          f"{dt:.2f}s; failed: {[k for k, v in conds.items() if not v]} "
          f"(the target lower value exceeds the shortest-path cost bound, "
          f"so pi <= 1e-6 and f = 12.9927 cannot hold together; no "
          f"residual root exists at this penalty weight)")
    assert ok


def test_acceptance_02_network2_reproduction():
    ps = preset("network2")
    assert ps.params.alpha == 4.791
    t0 = time.time()
    rep = solve(ps.problem, ps.start, ps.params)
    dt = time.time() - t0
    u = rep.final_u
    lower = float(u.x @ u.y)
    primary = {
        "upper within 5e-2 of -11.7003":
            abs(rep.objective_value - (-11.7003)) <= 5e-2,
        "lower within 5e-2 of 34.0099": abs(lower - 34.0099) <= 5e-2,
        "runtime <= 5s": dt <= 5.0,
    }
    # fallback: a certified stationary point with optimal routing and
    # revenue near the benchmark's quoted value, via weight continuation
    rep2 = alpha_continuation(ps.problem, ps.start, ps.params,
                              [4.791, 10.0, 20.0, 50.0])
    u2 = rep2.final_u
    rev = revenue(u2.x, u2.y, ps.layout)
    f_opt, _ = lower_level_argmin(ps.problem.A, ps.problem.b, u2.x)
    fallback = {
        "residual <= 1e-6": rep2.residual_norm <= 1e-6,
        "routing optimal": abs(float(u2.x @ u2.y) - f_opt) <= 1e-6,
        "revenue within 10% of 11": abs(rev - 11.0) <= 1.1,
    }
    ok = all(primary.values()) or all(fallback.values())
    _line(2, ok,
          f"primary: F={rep.objective_value:.4f}, f={lower:.4f}, "
          f"failed {[k for k, v in primary.items() if not v]}; fallback: "
          f"||Phi||={rep2.residual_norm:.3g}, revenue={rev:.4f}, failed "
          f"{[k for k, v in fallback.items() if not v]} (the published "
          f"program caps attainable revenue at 5, and every "
          f"generalized-Jacobian element is singular at its roots, so "
          f"neither clause is reachable)")
    assert ok


def test_acceptance_03_analytic_examples_agree():
    # fractional-bound example, revenue reading: optimum (5/3, 0)
    pr = make_ex_fractional(negate=True)
    _, x_bf, y_bf, _ = bilevel_bruteforce(pr)
    u_star = root_ex_fractional(pr, 60.0, negate=True)
    rng = np.random.default_rng(7)
    u0 = unpack(pack(u_star) + 1e-3 * rng.standard_normal(pr.size), 1, 1, 2)
    rep = solve(pr, u0, PenaltyParams(alpha=60.0))
    err_a = max(abs(x_bf[0] - 5.0 / 3.0), abs(y_bf[0]),
                abs(rep.final_u.x[0] - 5.0 / 3.0), abs(rep.final_u.y[0]))

    # box example: optimum (2, 0)
    prb = make_ex_box()
    _, xb, yb, _ = bilevel_bruteforce(prb)
    u0b = unpack(pack(root_ex_box(30.0))
                 + 1e-3 * np.random.default_rng(3).standard_normal(prb.size),
                 1, 2, 2)
    repb = solve(prb, u0b, PenaltyParams(alpha=30.0))
    err_b = max(abs(xb[0] - 2.0), abs(yb[0]),
                abs(repb.final_u.x[0] - 2.0), abs(repb.final_u.y[0]))
    ok = (rep.converged and repb.converged
          and err_a <= 1e-6 and err_b <= 1e-6)
    _line(3, ok,
          f"brute force and Newton agree at (5/3, 0) to {err_a:.2e} and "
          f"at (2, 0) to {err_b:.2e}")
    assert ok


def test_acceptance_04_residual_roots():
    rng = np.random.default_rng(11)
    alphas = (1.0, 2.0, 5.0, 20.0, 100.0)
    ts = [rng.uniform(0.001, 3.0, 5) for _ in range(5)]
    worst = 0.0
    pr1 = make_ex_fractional()
    pr2 = make_ex_box()
    for alpha in alphas:
        for t in ts:
            params = PenaltyParams(alpha=alpha, t=t)
            r1 = np.linalg.norm(
                eval_residual_vec(pr1, root_ex_fractional(pr1, alpha),
                                  params))
            r2 = np.linalg.norm(
                eval_residual_vec(pr2, root_ex_box(alpha), params))
            worst = max(worst, r1, r2)
    ok = worst <= 1e-12
    _line(4, ok,
          f"both published multiplier points are residual roots for 5 "
          f"weights x 5 random t vectors, worst ||Phi|| = {worst:.2e}")
    assert ok


def test_acceptance_05_jacobian_correctness():
    rng = np.random.default_rng(0)
    worst_fd = 0.0
    for name in ("network1", "network2"):
        ps = preset(name)
        params = PenaltyParams(alpha=ps.params.alpha, epsilon=0.01)
        for _ in range(20):
            u = random_iterate(ps.problem, rng)
            C = smoothed_jacobian(ps.problem, u, params)
            J = fd_jacobian(ps.problem, u, params, smoothed=True)
            worst_fd = max(worst_fd,
                           np.abs(C - J).max() / max(1.0, np.abs(J).max()))
    # vanishing-smoothing limit at a constructed tie point
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    u = root_ex_fractional(pr, 2.0)  # exact tie on the binding bound row
    import dataclasses

    G = generalized_element(pr, u, params).matrix
    Geps = smoothed_jacobian(pr, u, dataclasses.replace(params,
                                                        epsilon=1e-14))
    worst_limit = np.abs(G - Geps).max()
    ok = worst_fd <= 1e-5 and worst_limit <= 1e-6
    _line(5, ok,
          f"smoothed Jacobian vs finite differences (20 iterates x 2 "
          f"presets): {worst_fd:.2e}; half-rule element vs vanishing-"
          f"smoothing limit at a tie point: {worst_limit:.2e}")
    assert ok


def test_acceptance_06_complementarity_rewrite_suite():
    rng = np.random.default_rng(4)
    bad = 0
    for t in rng.uniform(0.001, 3.0, 5):
        for _ in range(1000):
            lam = rng.uniform(-5.0, 5.0)
            h = rng.uniform(-5.0, 5.0)
            which = rng.integers(0, 4)
            if which == 0:
                h = 0.0          # complementary with lam free-signed
            elif which == 1:
                lam = max(lam, 0.0)
                h = 0.0          # genuine pair, lam active
            elif which == 2:
                lam = 0.0
                h = min(h, 0.0)  # genuine pair, constraint slack
            triple = lam >= 0.0 and h <= 0.0 and lam * h == 0.0
            eqn = (lam - max(0.0, lam + t * h)) == 0.0
            if triple != eqn:
                bad += 1
    ok = bad == 0
    _line(6, ok,
          f"max-equation and complementarity triple agree on 1000 random "
          f"triples for each of 5 random t > 0 ({bad} mismatches)")
    assert ok


def test_acceptance_07_exact_penalty_oracle_suite():
    rng = np.random.default_rng(123)
    schedule = (1.0, 10.0, 100.0, 1000.0)
    fails = 0
    for _ in range(50):
        pr = random_instance(rng)
        bl, *_ = bilevel_bruteforce(pr)
        hit = False
        for a in schedule:
            val, (x, y, z) = global_penalized(pr, PenaltyParams(alpha=a),
                                              z_cap=1e3)
            pi = eval_pi(pr, y, z)
            if abs(pi) <= 1e-8 and abs(val - bl) <= 1e-8 * max(1.0,
                                                               abs(bl)):
                hit = True
                break
        if not hit:
            fails += 1
    ok = fails == 0
    _line(7, ok,
          f"on 50 random desk-scale instances some weight in "
          f"{schedule} makes the penalized global minimum exact and "
          f"equal to the bilevel optimum ({fails} failures)")
    assert ok


def test_acceptance_08_local_quadratic_rate():
    pr = make_ex_fractional()
    params = PenaltyParams(alpha=2.0)
    v_star = pack(root_ex_fractional(pr, 2.0))
    direction = np.random.default_rng(36).standard_normal(pr.size)
    direction /= np.linalg.norm(direction)
    u0 = unpack(v_star + 9.9e-3 * direction, 1, 1, 2)
    errs = [float(np.linalg.norm(pack(u0) - v_star))]
    solve(pr, u0, params,
          callback=lambda k, u, res, kind, tau:
          errs.append(float(np.linalg.norm(pack(u) - v_star))))
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    decreasing = (len(ratios) >= 3
                  and ratios[-3] > ratios[-2] > ratios[-1])
    # quadratic-fit bound: the constant fitted on the second-to-last
    # step must also cover the last one
    C = errs[-2] / errs[-3] ** 2
    quad = errs[-1] <= C * errs[-2] ** 2
    ok = decreasing and quad
    _line(8, ok,
          f"start {errs[0]:.2e} from the root; last ratios "
          f"{ratios[-3]:.2e} > {ratios[-2]:.2e} > {ratios[-1]:.2e}, "
          f"fitted constant C={C:.1f} covers the final error "
          f"{errs[-1]:.2e}")
    assert ok


def test_acceptance_09_regularity_certificates():
    pr1 = make_ex_fractional()
    params2 = PenaltyParams(alpha=2.0)
    u1 = root_ex_fractional(pr1, 2.0)
    resA = check_theorem_invertibleA(pr1, u1, params2)
    pr2 = make_ex_box()
    params30 = PenaltyParams(alpha=30.0)
    u2 = root_ex_box(30.0)
    resY = check_theorem_fullrank_yy(pr2, u2, params30)
    probe1 = probe_nonsingularity(pr1, u1, params2, max_elements=8)
    probe2 = probe_nonsingularity(pr2, u2, params30, max_elements=8)
    # context: dropping the inactive upper bound removes the forced tie
    pr1v = make_ex_fractional(two_row=False)
    resAv = check_theorem_invertibleA(pr1v, root_ex_fractional(pr1v, 2.0),
                                      params2)
    ok = (resA.holds and resY.holds
          and probe1.nonsingular and probe2.nonsingular)
    _line(9, ok,
          f"invertible-matrix certificate holds={resA.holds} (failed "
          f"{resA.failed()}), price-hessian certificate holds="
          f"{resY.holds} (failed {resY.failed()}), probed elements "
          f"nonsingular: {probe1.nonsingular} and {probe2.nonsingular} "
          f"(worst cond {max(probe1.worst_cond, probe2.worst_cond):.2e}); "
          f"the certificates fail at the published points because a "
          f"binding bound carries a zero multiplier (a tie) and an "
          f"active dual component forces a nonempty index set; with the "
          f"inactive bound dropped the first certificate holds="
          f"{resAv.holds}")
    assert ok


def test_acceptance_10_affine_system_cross_check():
    rng = np.random.default_rng(42)
    n, l, m = 2, 3, 2
    obj = quadratic_objective(kx=rng.standard_normal(n),
                              ky=rng.standard_normal(n), n=n)
    pr = BilevelProblem(D=rng.standard_normal((m, n)),
                        d=rng.standard_normal(m),
                        A=rng.standard_normal((l, n)),
                        b=rng.standard_normal(l), objective=obj)
    params = PenaltyParams(alpha=3.0)
    sys_ = assemble_affine_system(pr, params)
    worst = 0.0
    for _ in range(50):
        u = random_iterate(pr, rng, scale=2.0)
        phi = eval_residual_vec(pr, u, params)
        X = np.concatenate([u.x, u.y, u.z, u.r, u.s])
        G = np.concatenate([u.lam1, u.lam2, u.lam3, u.lam4, u.lam5,
                            u.lam6, u.lam7])
        head = 3 * n + 4 * l
        smooth = sys_.B1 @ X + sys_.B2 @ G - sys_.v
        lam = np.concatenate([u.lam1, u.lam2, u.lam3, u.lam4, u.lam5])
        comp = lam - np.maximum(0.0, lam + sys_.t_expanded * sys_.psi(X, pr))
        worst = max(worst, np.abs(smooth - phi[:head]).max(),
                    np.abs(comp - phi[head:]).max())
    ok = worst <= 1e-12
    _line(10, ok,
          f"matrix form of the residual agrees with the direct "
          f"evaluation at 50 random points, worst deviation {worst:.2e}")
    assert ok
