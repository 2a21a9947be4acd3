"""Command-line front end.

Three subcommands:

* ``solve``          run the Newton method on a problem file or preset
* ``verify``         cross-check a solve against the brute-force oracles
* ``check-jacobian`` finite-difference audit of the Jacobian assembly

Exit codes: 0 success/convergence, 1 non-convergence (or failed check),
2 parse/validation failure, 3 instance too large for the oracle.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import jacobian, newton, oracle, regularity, toll
from .problem import (BilevelProblem, DimensionError, IterateU,
                      PenaltyParams, quadratic_objective, validate)
from .residual import eval_pi, eval_residual_vec

PARAM_KEYS = ("alpha", "t", "epsilon", "delta", "rho", "p", "beta",
              "sigma", "max_iter")
START_KEYS = ("x", "y", "z", "r", "s", "lam1", "lam2", "lam3", "lam4",
              "lam5", "lam6", "lam7")


class CLIError(Exception):
    """Problem-file parse or validation failure (exit code 2)."""


def _check_keys(obj, allowed, context):
    if not isinstance(obj, dict):
        raise CLIError(f"{context}: must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise CLIError(f"{context}: unknown keys {sorted(unknown)}")


def _matrix(obj, key, context):
    if key not in obj:
        raise CLIError(f"{context}: missing '{key}'")
    try:
        arr = np.asarray(obj[key], float)
    except (TypeError, ValueError):
        raise CLIError(f"{context}: '{key}' is not a numeric array")
    if not np.all(np.isfinite(arr)):
        raise CLIError(f"{context}: '{key}' contains non-finite values")
    return arr


def _list(doc, key, path):
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise CLIError(f"{path}:{key}: must be a list")
    return value


def _entry(obj, key, where, convert=None):
    """obj[key], passed through convert if given; a missing key, a
    failed conversion or a non-finite result raises CLIError naming the
    entry (where.key)."""
    if key not in obj:
        raise CLIError(f"{where}.{key}: missing")
    if convert is None:
        return obj[key]
    try:
        value = convert(obj[key])
    except (TypeError, ValueError):
        raise CLIError(f"{where}.{key}: not a number: {obj[key]!r}")
    if not np.isfinite(value):
        raise CLIError(f"{where}.{key}: not finite: {obj[key]!r}")
    return value


def load_problem_file(path):
    """Parse a problem JSON file.

    Returns (problem, layout-or-None, params-dict, start-dict-or-None).
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path}: malformed JSON at byte offset {exc.pos}: "
                       f"{exc.msg}")
    if not isinstance(doc, dict):
        raise CLIError(f"{path}: top level must be an object")
    _check_keys(doc, ("kind", "D", "d", "A", "b", "objective", "nodes",
                      "arcs", "od", "params", "start"), path)
    kind = doc.get("kind")
    layout = None
    if kind == "generic":
        obj = doc.get("objective", {})
        where = f"{path}:objective"
        _check_keys(obj, ("Qxx", "Qxy", "Qyy", "kx", "ky", "const"), where)
        blocks = {key: _matrix(obj, key, where)
                  for key in ("Qxx", "Qxy", "Qyy", "kx", "ky") if key in obj}
        const = _entry(obj, "const", where, float) if "const" in obj else 0.0
        A = _matrix(doc, "A", path)
        try:
            objective = quadratic_objective(**blocks, const=const,
                                            n=np.atleast_2d(A).shape[1])
        except DimensionError as exc:
            raise CLIError(f"{path}: {exc}")
        problem = BilevelProblem(D=_matrix(doc, "D", path),
                                 d=_matrix(doc, "d", path),
                                 A=A, b=_matrix(doc, "b", path),
                                 objective=objective)
    elif kind == "toll":
        arcs, tolled, toll_lb = [], [], {}
        for i, arc in enumerate(_list(doc, "arcs", path)):
            where = f"{path}:arcs[{i}]"
            _check_keys(arc, ("tail", "head", "cost", "tolled", "toll_lb"),
                        where)
            arcs.append((_entry(arc, "tail", where),
                         _entry(arc, "head", where),
                         _entry(arc, "cost", where, float)))
            if arc.get("tolled"):
                tolled.append(i)
                if "toll_lb" in arc:
                    toll_lb[i] = _entry(arc, "toll_lb", where, float)
        od = []
        for i, pair in enumerate(_list(doc, "od", path)):
            where = f"{path}:od[{i}]"
            _check_keys(pair, ("origin", "destination", "demand"), where)
            od.append((_entry(pair, "origin", where),
                       _entry(pair, "destination", where),
                       _entry(pair, "demand", where, float)
                       if "demand" in pair else 1.0))
        try:
            network = toll.TollNetwork(
                nodes=_list(doc, "nodes", path), arcs=arcs,
                tolled=tuple(tolled), od_pairs=od, toll_lb=toll_lb)
            problem, layout = toll.build_problem(network)
        except (ValueError, toll.NoPathError) as exc:
            raise CLIError(f"{path}: {exc}")
    else:
        raise CLIError(f"{path}: 'kind' must be 'generic' or 'toll'")

    params = doc.get("params", {})
    _check_keys(params, PARAM_KEYS, f"{path}:params")
    start = doc.get("start")
    if start is not None:
        _check_keys(start, START_KEYS, f"{path}:start")
    diags = validate(problem)
    if diags:
        raise CLIError(f"{path}: " + "; ".join(diags))
    return problem, layout, params, start


def _build_params(file_params, args, preset_alpha=None):
    kw = {}
    if preset_alpha is not None:
        kw["alpha"] = preset_alpha
    for key in PARAM_KEYS:
        if key in file_params:
            kw["p_exp" if key == "p" else key] = file_params[key]
    if args.alpha is not None:
        kw["alpha"] = args.alpha
    tflags = [args.t1, args.t2, args.t3, args.t4, args.t5]
    if any(v is not None for v in tflags):
        base = np.asarray(kw.get("t", PenaltyParams().t), float)
        kw["t"] = [base[i] if v is None else v for i, v in enumerate(tflags)]
    if args.eps is not None:
        kw["epsilon"] = args.eps
    if args.delta is not None:
        kw["delta"] = args.delta
    if args.max_iter is not None:
        kw["max_iter"] = args.max_iter
    try:
        return PenaltyParams(**kw)
    except (TypeError, ValueError) as exc:
        raise CLIError(f"invalid parameters: {exc}")


def _load_instance(args):
    """Resolve --preset/file into (problem, layout, params, start)."""
    if args.preset:
        ps = toll.preset(args.preset)
        params = _build_params({}, args, preset_alpha=ps.params.alpha)
        return ps.problem, ps.layout, params, ps.start
    if not args.file:
        raise CLIError("either a problem file or --preset is required")
    problem, layout, file_params, start_doc = load_problem_file(args.file)
    params = _build_params(file_params, args)
    if start_doc is not None:
        try:
            start = IterateU(**{k: _matrix(start_doc, k, f"{args.file}:start")
                                for k in START_KEYS})
            start.check_dims(problem)
        except (TypeError, ValueError) as exc:
            raise CLIError(f"invalid start point: {exc}")
    elif layout is not None:
        start = newton.default_start(problem, layout.costs,
                                     np.zeros(problem.n))
    else:
        start = newton.default_start(problem, np.zeros(problem.n),
                                     np.zeros(problem.n))
    return problem, layout, params, start


def _alpha_schedule(arg):
    if arg is None:
        return None
    try:
        values = [float(v) for v in arg.split(",") if v.strip()]
    except ValueError:
        raise CLIError(f"bad --alpha-schedule {arg!r}")
    if not values:
        raise CLIError("empty --alpha-schedule")
    if not all(np.isfinite(v) and v > 0 for v in values):
        raise CLIError(f"--alpha-schedule {arg!r}: weights must be "
                       f"finite and positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise CLIError(f"--alpha-schedule {arg!r}: weights must be "
                       f"strictly increasing")
    return values


def _finite_or_null(value):
    """value with every non-finite float, at any depth, made None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _report_json(report, extra=None):
    """The report as strict JSON: a non-finite number is written null."""
    doc = report.as_dict()
    for name in ("r", "s", "lam1", "lam2", "lam3", "lam4", "lam5",
                 "lam6", "lam7"):
        doc[name] = getattr(report.final_u, name).tolist()
    if extra:
        doc.update(extra)
    return json.dumps(_finite_or_null(doc), indent=2, sort_keys=True,
                      allow_nan=False)


def report_from_json(text):
    """Rebuild a SolveReport from its serialized form; a null number
    reads back as NaN."""
    def number(v):
        return np.nan if v is None else v

    doc = json.loads(text)
    u = IterateU(**{k: np.asarray(doc[k], float) for k in START_KEYS})
    return newton.SolveReport(
        final_u=u, status=doc["status"],
        iterates=[tuple(map(number, e)) for e in doc["iterates"]],
        alpha=number(doc["alpha"]),
        objective_value=number(doc["objective_value"]),
        penalty_value=number(doc["penalty_value"]), message=doc["message"])


def cmd_solve(args):
    problem, layout, params, start = _load_instance(args)
    schedule = _alpha_schedule(args.alpha_schedule)

    if schedule:
        report = newton.alpha_continuation(problem, start, params, schedule)
    else:
        report = newton.solve(problem, start, params)

    print(f"{'iter':>5} {'||Phi||':>14} {'merit':>14} {'step':>9} "
          f"{'tau':>10}")
    for (k, res, merit, kind, tau) in report.iterates:
        print(f"{k:>5} {res:>14.6e} {merit:>14.6e} {kind:>9} {tau:>10.3e}")
    print(f"status: {report.status} ({report.message}) after "
          f"{report.iterations} iterations, "
          f"||Phi|| = {report.residual_norm:.3e}, alpha = {report.alpha:g}")
    print(f"upper objective F = {report.objective_value:.6f}, "
          f"penalty pi = {report.penalty_value:.3e}")
    u = report.final_u
    extra = {}
    if layout is not None:
        lower_value = float(np.dot(u.x, u.y))
        rev = toll.revenue(u.x, u.y, layout)
        print(f"lower objective f = {lower_value:.6f}, revenue = {rev:.6f}")
        try:
            tolls = toll.recover_tolls(u.x, layout)
            for i, T in sorted(tolls.items()):
                print(f"  toll on x{i + 1}: {T:.6f}")
            extra["tolls"] = {f"x{i + 1}": T for i, T in tolls.items()}
        except toll.InconsistencyError as exc:
            print(f"  toll recovery skipped: {exc}")
        extra["revenue"] = rev
        extra["lower_objective"] = lower_value
    if args.out:
        extra["certificates"] = (
            regularity.certify(problem, u, params.with_alpha(report.alpha))
            if report.residual_norm <= params.delta else {})
        with open(args.out, "w") as fh:
            fh.write(_report_json(report, extra))
    return 0 if report.converged else 1


def cmd_verify(args):
    problem, layout, params, start = _load_instance(args)
    schedule = _alpha_schedule(args.alpha_schedule) or [1.0, 10.0, 100.0,
                                                        1000.0]
    # the penalized oracle works in (x, y, z) space of dimension 2n + l,
    # which bounds every polyhedron the oracles enumerate (the lower level
    # has dimension n, a multiplier region at most l)
    if 2 * problem.n + problem.l > args.dim_cap:
        print(f"instance dimension {2 * problem.n + problem.l} exceeds "
              f"oracle cap {args.dim_cap}")
        return 3
    F_best, x_bf, y_bf, f_low = oracle.bilevel_bruteforce(
        problem, dim_cap=args.dim_cap)
    print(f"brute force: F = {F_best:.8f} at x = {np.round(x_bf, 6)}, "
          f"y = {np.round(y_bf, 6)}")
    agree = False
    for a in schedule:
        p = params.with_alpha(a)
        try:
            val, (xg, yg, zg) = oracle.global_penalized(
                problem, p, z_cap=args.z_cap, dim_cap=args.dim_cap)
        except oracle.OracleError as exc:
            if "unbounded" not in str(exc):
                raise
            # recession in z never lowers the minimum, so a generous
            # data-scaled cap is safe for the comparison
            cap = 1e3 * max(1.0, np.abs(problem.b).max(),
                            np.abs(problem.d).max())
            print(f"multiplier block unbounded; capping z at {cap:g}")
            val, (xg, yg, zg) = oracle.global_penalized(
                problem, p, z_cap=cap, dim_cap=args.dim_cap)
        pi = eval_pi(problem, yg, zg)
        rep = newton.solve(problem, start, p)
        print(f"alpha = {a:g}: penalized min = {val:.8f}, pi = {pi:.2e}, "
              f"solve F = {rep.objective_value:.8f} "
              f"(||Phi|| = {rep.residual_norm:.2e})")
        if abs(pi) <= 1e-8 and abs(val - F_best) <= 1e-6 * max(
                1.0, abs(F_best)):
            if abs(rep.objective_value - F_best) <= args.tol:
                agree = True
    print("verdict:", "agree" if agree else "disagree")
    return 0 if agree else 1


def cmd_check_jacobian(args):
    if args.points < 1:
        raise CLIError(f"--points must be at least 1, got {args.points}")
    problem, layout, params, start = _load_instance(args)
    rng = np.random.default_rng(args.seed)
    n, l, m = problem.n, problem.l, problem.m
    worst_fd = 0.0
    worst_limit = 0.0
    for _ in range(args.points):
        u = newton.default_start(problem, rng.standard_normal(n),
                                 rng.standard_normal(n))
        for name in ("z", "r", "s", "lam1", "lam2", "lam3", "lam4",
                     "lam5", "lam6", "lam7"):
            setattr(u, name, rng.standard_normal(getattr(u, name).shape[0]))
        C = jacobian.smoothed_jacobian(problem, u, params)
        J = jacobian.fd_jacobian(problem, u, params, smoothed=True)
        scale = max(1.0, np.abs(J).max())
        worst_fd = max(worst_fd, np.abs(C - J).max() / scale)
        # generalized element as the vanishing-smoothing limit
        G = jacobian.generalized_element(problem, u, params).matrix
        Geps = jacobian.smoothed_jacobian(
            problem, u, dataclasses.replace(params, epsilon=1e-14))
        worst_limit = max(worst_limit,
                          np.abs(G - Geps).max() / max(1.0, np.abs(G).max()))
    print(f"max relative error, smoothed jacobian vs finite differences: "
          f"{worst_fd:.3e}")
    print(f"max relative error, generalized element vs vanishing-epsilon "
          f"jacobian: {worst_limit:.3e}")
    return 0 if max(worst_fd, worst_limit) <= args.tol else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ssnbilevel",
        description="Semismooth Newton solver for simple bilevel programs "
                    "with a linear lower level")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", nargs="?", help="problem JSON file")
        p.add_argument("--preset", choices=("network1", "network2"))
        p.add_argument("--alpha", type=float, default=None,
                       help="penalty weight")
        for i in range(1, 6):
            p.add_argument(f"--t{i}", type=float, default=None,
                           help=f"complementarity scalar t{i}")
        p.add_argument("--eps", type=float, default=None,
                       help="smoothing parameter")
        p.add_argument("--delta", type=float, default=None,
                       help="residual stopping tolerance")
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--alpha-schedule", default=None,
                       help="comma-separated increasing penalty weights")
        p.add_argument("--out", default=None, help="write JSON report here")

    p_solve = sub.add_parser("solve", help="run the Newton method")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify",
                              help="cross-check against brute-force oracles")
    common(p_verify)
    p_verify.add_argument("--dim-cap", type=int, default=oracle.DIM_CAP)
    p_verify.add_argument("--z-cap", type=float, default=None,
                          help="box cap on the multiplier block when the "
                               "penalized feasible set is unbounded")
    p_verify.add_argument("--tol", type=float, default=1e-6)
    p_verify.set_defaults(func=cmd_verify)

    p_check = sub.add_parser("check-jacobian",
                             help="finite-difference Jacobian audit")
    common(p_check)
    p_check.add_argument("--points", type=int, default=20)
    p_check.add_argument("--tol", type=float, default=1e-5)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check_jacobian)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
