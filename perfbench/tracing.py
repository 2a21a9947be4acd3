"""Spans at the layer boundaries that newton.solve crosses.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, the functions newton.solve reaches in other layers by wrappers
that record one span per call: (solve, id, parent, name, start, end).
Spans stay in memory; write() dumps them as gzip JSON lines.  The
program's source is not edited.  A span's name is "<layer>.<function>",
with the layers named after the package modules.
"""

from __future__ import annotations

import contextlib
import gzip
import json
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.linalg

from ssnbilevel import newton, regularity

ROOT_SPAN = "newton.solve"
COUNTER_SPAN = "trace.counter"
COVERAGE_TOL = 0.01  # share of a solve's wall time the spans may miss
SELF_METRICS = ("problem.unpack_s", "residual.eval_s", "jacobian.assemble_s",
                "newton.factor_s", "newton.linesearch_s", "newton.self_s",
                "regularity.certify_s")


def span_metric(name):
    """The per-layer self-time metric a span's self time adds to (None
    for the tracer's own counter spans)."""
    if name == COUNTER_SPAN:
        return None
    if name.startswith("regularity."):
        return "regularity.certify_s"
    return {"problem.unpack": "problem.unpack_s",
            "residual.eval_residual_vec": "residual.eval_s",
            "residual.eval_merit": "residual.eval_s",
            "jacobian.generalized_element": "jacobian.assemble_s",
            "newton.lu_factor": "newton.factor_s",
            "newton.line_search": "newton.linesearch_s",
            "newton.solve": "newton.self_s"}[name]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._solve = -1

    def _wrap(self, name, fn, after=None):
        """after(args, out), if given, computes counters from a call; it
        runs under its own "trace.counter" span so that its cost is not
        charged to the calling layer."""
        if after is not None:
            after = self._wrap(COUNTER_SPAN, after)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = self._next_id
            self._next_id += 1
            self._stack.append(span_id)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((self._solve, span_id, parent, name,
                                   start, end))
            if after is not None:
                after(args, out)
            return out
        return traced

    def _count_density(self, args, element):
        self.counters["density_sum"] += (np.count_nonzero(element.matrix)
                                         / element.matrix.size)

    def _count_flops(self, args, out):
        n = args[0].shape[0]
        self.counters["factor_gflop"] += 2.0 / 3.0 * n ** 3 / 1e9

    def _count_probe(self, args, probe):
        self.counters["probe_elements"] += probe.n_elements

    @contextlib.contextmanager
    def installed(self):
        """Wrap the boundary functions as newton sees them; restore on exit.

        _certificates imports the regularity functions when it runs, so
        patching the regularity module reaches it.
        """
        targets = [
            (newton, "eval_residual_vec", "residual.eval_residual_vec", None),
            (newton, "eval_merit", "residual.eval_merit", None),
            (newton, "unpack", "problem.unpack", None),
            (newton, "generalized_element", "jacobian.generalized_element",
             self._count_density),
            (newton, "line_search", "newton.line_search", None),
            (scipy.linalg, "lu_factor", "newton.lu_factor", self._count_flops),
            (regularity, "index_sets", "regularity.index_sets", None),
            (regularity, "check_theorem_invertibleA",
             "regularity.check_theorem_invertibleA", None),
            (regularity, "check_theorem_fullrank_yy",
             "regularity.check_theorem_fullrank_yy", None),
            (regularity, "probe_nonsingularity",
             "regularity.probe_nonsingularity", self._count_probe),
        ]
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in targets]
        try:
            for module, attr, name, after in targets:
                setattr(module, attr, self._wrap(name, getattr(module, attr),
                                                 after))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def solve(self, problem, u0, params):
        """newton.solve under a root span; its spans share a new solve id."""
        self._solve += 1
        return self._wrap(ROOT_SPAN, newton.solve)(problem, u0, params)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for solve, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"solve": solve, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def self_times(spans):
    """Per-solve self time by span name and call counts.

    A span's self time is its duration minus the durations of its
    children.  Returns (self_s, calls, errors): self_s[solve][name]
    and calls[name] sum over spans; errors lists spans that are not
    nested inside their parent or that overlap a sibling.
    """
    by_id = {s[1]: s for s in spans}
    child_s = defaultdict(float)
    children = defaultdict(list)
    errors = []
    for solve, span_id, parent, name, start, end in spans:
        if parent is None:
            continue
        p = by_id[parent]
        if start < p[4] or end > p[5] or solve != p[0]:
            errors.append(f"span {span_id} ({name}) escapes its parent")
        child_s[parent] += end - start
        children[parent].append((start, end))
    for parent, intervals in children.items():
        intervals.sort()
        if any(b[0] < a[1] for a, b in zip(intervals, intervals[1:])):
            errors.append(f"children of span {parent} overlap")
    self_s = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(int)
    for solve, span_id, parent, name, start, end in spans:
        self_s[solve][name] += end - start - child_s[span_id]
        calls[name] += 1
    return self_s, calls, errors


def coverage_errors(self_s, walls):
    """Solves whose span self times do not add up to the wall time the
    caller measured around the solve (walls[solve])."""
    errors = []
    for solve, wall in enumerate(walls):
        total = sum(self_s[solve].values())
        if abs(wall - total) > COVERAGE_TOL * wall + 1e-4:
            errors.append(f"solve {solve}: spans cover {total:.6f}s of "
                          f"{wall:.6f}s")
    return errors
