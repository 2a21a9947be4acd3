"""The public names the benchmark's workloads use.

perfbench/workloads.py builds its inputs through IterateU(**blocks),
pack, unpack, BLOCK_ORDER and the objective's grad_*/hess_* methods.
Building the three workloads here makes a break in those names fail the
test suite instead of the benchmark run.  The module is loaded from its
file and not changed.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ssnbilevel import eval_residual_vec, validate

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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
