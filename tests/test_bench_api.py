"""The public names the benchmark uses.

perfbench/workloads.py builds its inputs through IterateU(**blocks),
pack, unpack, BLOCK_ORDER and the objective's grad_*/hess_* methods, and
perfbench/tracing.py wraps module attributes of newton.py.  Building the
three workloads and tracing one solve here makes a break in those names
fail the test suite instead of the benchmark run.  The modules are
loaded from their files and not changed.
"""

import numpy as np
import pytest

from ssnbilevel import (PenaltyParams, default_start, eval_residual_vec,
                        validate)

from conftest import load_perfbench, make_ex_box


@pytest.mark.parametrize("name", ["grid", "desk", "warm"])
def test_workload_setup_builds(workloads, name):
    passes, _ = workloads.SETUPS[name](np.random.default_rng(1))
    assert passes and all(passes)
    for job in passes[0]:
        assert validate(job.problem) == []
        job.u0.check_dims(job.problem)
        assert np.all(np.isfinite(job.u0.vec))
    if name == "warm":
        # the stacked roots are roots of the stacked problems
        for job in passes[0]:
            phi = eval_residual_vec(job.problem, job.root, job.params)
            assert np.linalg.norm(phi) <= 1e-9
            assert 0 < np.abs(job.u0.vec - job.root.vec).max() < 1e-2


def test_traced_solve_records_each_layer():
    """The traced benchmark (--trace 1) wraps newton's module attributes;
    a solve under the tracer must record spans for each of them."""
    tracing = load_perfbench("tracing")
    problem = make_ex_box()
    u0 = default_start(problem, [1.5], [0.5])
    tracer = tracing.Tracer()
    with tracer.installed():
        report = tracer.solve(problem, u0, PenaltyParams(alpha=30.0))
    assert report.iterations > 0
    names = {span[3] for span in tracer.spans}
    assert {"newton.solve", "problem.unpack",
            "newton.line_search"} <= names
    self_s, _, errors = tracing.self_times(tracer.spans)
    assert errors == []
    for name in self_s[0]:  # run.py stops on a span it cannot map
        tracing.span_metric(name)
