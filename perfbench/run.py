"""Solver benchmark: timed solve loops over seeded instance ladders.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

Workloads (built in workloads.py): grid (seeded toll grids), desk (box
family, desk examples and the two presets) and warm (perturbed roots of
block-diagonal stacks).  Each run is a closed loop with one client:
sequential solve calls in this process, with BLAS pinned to one thread
by environment variables set here, before numpy loads.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes over the same inputs and prints
the per-layer metrics (per solve unless named otherwise) and the
tracing overhead, and writes the spans to .bench_out/.  Every solve is
checked (checks.py); the last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.  The line before it holds
machine facts, sample counts and the digest of the first pass's
(status, iterations, step_kinds), which is information, not a gate.

Timing noise: on the shared 2-vCPU virtual machine where the bounds in
BENCHMARK.json were set, one deterministic desk solve took 60-160 ms
within a few seconds: the host runs this code at two speeds, about
60 ms and 100 ms per desk solve, whose shares drift over minutes.  Ten
runs of identical work therefore spread 10-20% (interquartile range
over median), which is why the timing bounds sit near the 0.25 maximum.
Quantiles of the solve time jump between the two speeds as their
shares move (16-30% over ten runs for the median and p90 on desk), so
they are printed on the information line and not gated; solves_per_s,
a mean, moves smoothly with the shares and is the gated timing.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# set-up is sampled SETUP_REPEATS times before the loop and then again
# between two solves once SETUP_INTERVAL seconds have passed, and the
# median sample is reported.  A sample is the mean of set-ups repeated
# for SETUP_SAMPLE_S: one 2-90 ms set-up catches only one of the
# machine's two speeds (see the module docstring), and samples taken only
# at the start would catch only the speed of the first second
SETUP_REPEATS = 3
SETUP_INTERVAL = 2.0
SETUP_SAMPLE_S = 0.2
# converged_frac reads this floor when fewer than 1 in 20 solves converge:
# a metric must never be 0, and on desk the converged count of a seed's
# 154 instances (0, 1 or 2 today) would otherwise swing from seed to seed
CONVERGED_FLOOR = 0.05


def import_program():
    """Put the checkout's src/ first on the path and import the solver
    from there, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ssnbilevel
    except ImportError as exc:
        sys.exit(f"cannot import ssnbilevel from {src}: {exc}")
    if Path(ssnbilevel.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"ssnbilevel was imported from {ssnbilevel.__file__}, "
                 f"not from {src}")


def quantile(values, q):
    """Nearest-rank quantile: the ceil(q n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


# what the benchmark keeps of a SolveReport: enough for the metrics and
# the digest, and small, so that peak_rss_mb does not grow with the run
Outcome = namedtuple(
    "Outcome", "status converged iterations step_kinds residual_norm")


class SetupTimer:
    """Times the workload's set-up, spread over the whole run."""

    def __init__(self, setup):
        self._setup = setup
        self._last = 0.0
        self.samples = []
        self.build_s = []

    def run(self):
        t0 = perf_counter()
        n = 0
        while n == 0 or perf_counter() - t0 < SETUP_SAMPLE_S:
            passes, builds = self._setup()
            self.build_s += builds
            n += 1
        self._last = perf_counter()
        self.samples.append((self._last - t0) / n)
        return passes

    def between_solves(self):
        if perf_counter() - self._last >= SETUP_INTERVAL:
            self.run()


class Runner:
    """Solves jobs, checks each output and keeps one record per solve."""

    def __init__(self):
        from checks import check

        self._check = check
        self.oracle_cache = {}
        self.attempted = 0
        self.failed = 0

    def run(self, job, solve):
        """Returns (wall_s, check_s, outcome), outcome None on an exception."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            report = solve(job.problem, job.u0, job.params)
        except Exception:  # a failed operation is counted, not fatal
            wall = perf_counter() - t0
            self.failed += 1
            print(f"{job.name}: solve raised\n{traceback.format_exc()}",
                  file=sys.stderr)
            return wall, 0.0, None
        wall = perf_counter() - t0
        t0 = perf_counter()
        failures = self._check(job, report, self.oracle_cache)
        check_s = perf_counter() - t0
        if failures:
            self.failed += 1
            print(f"{job.name}: {'; '.join(failures)}", file=sys.stderr)
        return wall, check_s, Outcome(report.status, report.converged,
                                      report.iterations, report.step_kinds,
                                      report.residual_norm)


def run_passes(passes, seconds, do_pass):
    """Run whole passes, cycling through `passes`, until `seconds` have
    passed; returns the number of passes run."""
    start = perf_counter()
    n = 0
    while n == 0 or perf_counter() - start < seconds:
        do_pass(passes[n % len(passes)])
        n += 1
    return n


def digest(outcomes):
    trace = [[r.status, r.iterations, r.step_kinds] if r else None
             for r in outcomes]
    return hashlib.sha256(json.dumps(trace).encode()).hexdigest()[:16]


def end_to_end(records, setup_s, attempted):
    """End-to-end metrics and, apart from them, the solve-time quantiles.

    records holds one (wall_s, check_s, outcome) per solve.  solves_per_s
    counts solves per second of solve time.  The median solve averages
    the two middle ones, so that on grid it is the mean k = 5 solve
    whether a run made one pass or two, and p90 is nearest-rank, so that
    it is a k = 6 solve.  Both quantiles are information, not gated
    metrics: see the module docstring.
    """
    walls = [wall for wall, _, r in records if r is not None]
    converged = sum(1 for _, _, r in records if r is not None and r.converged)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quantiles = {"solve_s_p50": statistics.median(walls),
                 "solve_s_p90": quantile(walls, 0.9)}
    return quantiles, {
        "solves_per_s": (len(walls) / sum(walls), "1/s"),
        "converged_frac": (max(converged / attempted, CONVERGED_FLOOR),
                           "ratio"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, traced, untraced_s, build_s):
    """Per-layer metrics from the traced records and spans, plus the
    self-time accounting errors."""
    from tracing import SELF_METRICS, coverage_errors, self_times, span_metric

    outcomes = [r for _, _, r in traced if r is not None]
    walls = [wall for wall, _, _ in traced]
    solves = len(traced)
    self_s, calls, errors = self_times(tracer.spans)
    errors += coverage_errors(self_s, walls)
    layer_s = dict.fromkeys(SELF_METRICS, 0.0)
    for by_name in self_s.values():
        for name, seconds in by_name.items():
            metric = span_metric(name)
            if metric is not None:
                layer_s[metric] += seconds / solves
    iterations = sum(r.iterations for r in outcomes)
    newton_steps = sum(r.step_kinds.count("newton") for r in outcomes)
    factorizations = calls["newton.lu_factor"]
    elements = calls["jacobian.generalized_element"]
    merit_calls = calls["residual.eval_merit"]
    metrics = {
        "toll.build_s": (statistics.fmean(build_s) if build_s else 0.0, "s"),
        "problem.unpack_calls": (calls["problem.unpack"] / solves, "count"),
        "residual.evals": ((calls["residual.eval_residual_vec"]
                            + merit_calls) / solves, "count"),
        "jacobian.elements": (elements / solves, "count"),
        "jacobian.density": (tracer.counters["density_sum"] / elements
                             if elements else 0.0, "ratio"),
        "newton.factorizations": (factorizations / solves, "count"),
        "newton.factor_gflop_computed": (
            tracer.counters["factor_gflop"] / solves, "GFLOP"),
        "newton.factor_yield": (newton_steps / factorizations
                                if factorizations else 0.0, "ratio"),
        "newton.iterations": (iterations / solves, "count"),
        "newton.newton_step_frac": (newton_steps / iterations
                                    if iterations else 0.0, "ratio"),
        "newton.merit_trials_per_iter": (merit_calls / iterations
                                         if iterations else 0.0, "count"),
        "newton.final_residual_p50": (
            statistics.median(r.residual_norm for r in outcomes), "1"),
        "regularity.probe_elements": (
            tracer.counters["probe_elements"] / solves, "count"),
        "oracle.check_s": (sum(c for _, c, _ in traced) / solves, "s"),
        "trace.overhead_frac": (sum(walls) / untraced_s - 1.0, "ratio"),
    }
    metrics.update({k: (v, "s") for k, v in layer_s.items()})
    return metrics, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "desk", "warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import numpy as np

    from ssnbilevel import solve
    from tracing import SELF_METRICS, Tracer
    from workloads import SETUPS

    timer = SetupTimer(
        lambda: SETUPS[args.workload](np.random.default_rng(args.seed)))
    for _ in range(SETUP_REPEATS):
        passes = timer.run()

    runner = Runner()
    plain, traced = [], []
    tracer = Tracer()
    untraced_s = 0.0

    def plain_pass(jobs):
        records = []
        for job in jobs:
            timer.between_solves()
            records.append(runner.run(job, solve))
        plain.append(records)

    def paired_pass(jobs):
        nonlocal untraced_s
        plain_pass(jobs)
        untraced_s += sum(wall for wall, _, _ in plain[-1])
        with tracer.installed():
            traced.extend(runner.run(job, tracer.solve) for job in jobs)

    n_passes = run_passes(passes, args.seconds,
                          paired_pass if args.trace else plain_pass)
    errors = []
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": n_passes, "solves": runner.attempted,
            "digest": digest([r for _, _, r in plain[0]]),
            "setup_repeats": len(timer.samples), "machine": machine_facts()}
    if args.trace:
        metrics, errors = per_layer(tracer, traced, untraced_s, timer.build_s)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        for err in errors:
            print(f"trace: {err}", file=sys.stderr)
        total = sum(metrics[k][0] for k in SELF_METRICS)
        info["self_time_shares"] = {k: metrics[k][0] / total
                                    for k in SELF_METRICS}
    else:
        quantiles, metrics = end_to_end(
            [record for records in plain for record in records],
            timer.samples, runner.attempted)
        info.update({name: {"value": value, "unit": "s"}
                     for name, value in quantiles.items()})

    print(json.dumps(info))
    print(json.dumps({
        "correct": runner.failed == 0 and not errors,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
