"""Outside-in tracing of optaccel's layers, and the per-layer metrics.

``Tracer.installed()`` replaces public functions of the program's modules
with timing wrappers for the duration of a ``with`` block and restores the
originals afterwards; the program's code is not changed.  Calls at cell
level and above are kept as full spans (id, name, start, end, parent span,
cell, time covered by child spans).  Step-level calls are aggregated per
(cell, name) as count, total time and child time, so a trace stays bounded
however long the runs are.  Self time is a span's time minus its children's.

A cell is numbered by the ``problem_from_config`` call that starts it;
spans after the last cell (summary tables, manifest) carry its number.
"""

from __future__ import annotations

import functools
import json
import pathlib
import time
from contextlib import contextmanager

from optaccel import harness, optimizers, problems, trace

__all__ = ["Tracer", "computed_counters", "layer_metrics"]

_CELL_START = "problems.problem_from_config"
_WRITE = "harness.write"

# (owner, attribute, span name, full span?).  The owner is the namespace the
# program looks the name up in at call time, e.g. harness imports
# problem_from_config into its own namespace.
_TARGETS = (
    (harness, "run_experiment", "harness.run_experiment", True),
    (harness, "problem_from_config", _CELL_START, True),
    (harness, "trace_to_csv", "trace.trace_to_csv", True),
    (harness, "time_to_eps", "analysis.time_to_eps", True),
    (optimizers, "run_acc_mb_sgd", "optimizers.run_acc_mb_sgd", True),
    (optimizers, "run_sgd", "optimizers.run_sgd", True),
    (optimizers, "run_restarted", "optimizers.run_restarted", True),
    (trace.TraceRecorder, "build", "trace.build", True),
    (pathlib.Path, "write_text", _WRITE, True),
    (optimizers, "stage_budget", "optimizers.stage_budget", False),
    (optimizers, "acc_step", "optimizers.acc_step", False),
    (optimizers, "project_ball", "optimizers.project_ball", False),
    (optimizers, "sample_batch", "problems.sample_batch", False),
    (optimizers, "minibatch_gradient", "problems.minibatch_gradient", False),
    (problems.DiscreteLeastSquares, "suboptimality",
     "problems.suboptimality", False),
    (problems.DiscreteLeastSquares, "exact_grad", "problems.exact_grad",
     False),
    (trace.TraceRecorder, "append", "trace.append", False),
)


class Tracer:
    """Span recorder for the calls made inside ``installed()`` blocks."""

    def __init__(self):
        # (id, name, start, end, parent, cell, child time)
        self.spans: list[tuple] = []
        # (cell, name) -> [count, total time, child time]
        self.agg: dict[tuple, list] = {}
        self.cell = -1
        self.bytes_written = 0
        self.missing: list[str] = []
        self._stack: list[list] = []   # [child time, id of nearest full span]
        self._next_id = 0
        self._t0 = time.perf_counter()

    def _full(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == _CELL_START:
                self.cell += 1
            elif name == _WRITE:
                # the program writes ASCII only, so characters are bytes
                self.bytes_written += len(args[1] if len(args) > 1
                                          else kwargs["data"])
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                self.spans.append((span_id, name, t0 - self._t0,
                                   t1 - self._t0, parent, self.cell,
                                   frame[0]))
        return wrapper

    def _step(self, name, fn):
        stack, agg, clock = self._stack, self.agg, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                entry = agg.get((self.cell, name))
                if entry is None:
                    agg[(self.cell, name)] = [1, dur, frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += frame[0]
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, full in _TARGETS:
                fn = getattr(owner, attr, None)
                if fn is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr,
                        (self._full if full else self._step)(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def totals(self) -> dict[str, list]:
        """Per name: [count, total seconds, child seconds] over all cells."""
        out: dict[str, list] = {}
        for (_, name), (count, total, child) in self.agg.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += count
            acc[1] += total
            acc[2] += child
        for _, name, start, end, _, _, child in self.spans:
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += child
        return out

    def dump(self, path: pathlib.Path) -> None:
        """Write every span and aggregate as JSON."""
        spans = [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                  "cell": c, "child": ch}
                 for i, n, s, e, p, c, ch in sorted(self.spans)]
        agg = [{"cell": c, "name": n, "count": k, "total": t, "child": ch}
               for (c, n), (k, t, ch) in sorted(self.agg.items())]
        path.write_text(json.dumps({"spans": spans, "aggregates": agg,
                                    "missing": self.missing}) + "\n")


def computed_counters(cells) -> dict[str, dict[str, float]]:
    """Bytes and flops per call of the step kernels, from array shapes.

    ``cells`` are ``gate.CellCheck`` records; averages are weighted by steps
    (one call of each kernel per step).  Counts assume float64 arrays and
    count each array touched once, so they ignore cache effects:

    - sample_batch: the ``b x d`` gather is read and written (16 b d B);
    - minibatch_gradient: ``x @ w``, ``x * r`` and the sum each touch
      ``x``-sized data (32 b d B) for 4 b d flops;
    - diagnostics (suboptimality + exact gradient): two ``d x d`` matrix
      vector products read the second moment twice (16 d^2 B, 4 d^2 flops).
    """
    steps = sum(c.steps for c in cells)

    def mean(f):
        total = sum(c.steps * f(c.b, c.d) for c in cells)
        return total / steps if steps else 0.0

    return {
        "problems.sample_batch": {"bytes": mean(lambda b, d: 16 * b * d),
                                  "flops": 0.0},
        "problems.minibatch_gradient": {"bytes": mean(lambda b, d: 32 * b * d),
                                        "flops": mean(lambda b, d: 4 * b * d)},
        "problems.diagnostics": {"bytes": mean(lambda b, d: 16 * d * d),
                                 "flops": mean(lambda b, d: 4 * d * d)},
    }


def layer_metrics(tracer: Tracer, cells, repeats: int) -> dict[str, float]:
    """Per-layer metrics of ``repeats`` traced workload repeats.

    ``cells`` are the gate's records for those repeats.  ``.calls``,
    ``.s``, ``rows``, ``cells`` and byte totals are per workload repeat;
    ``.us`` and ``.ms`` values are per call, or per step where a function
    runs once per cell (``run_sgd``) or is the sum of two
    (``diagnostics``).  Kernel bytes and flops are computed per call.
    """
    tot = tracer.totals()

    def count(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def seconds(name, self_time=False):
        _, total, child = tot.get(name, (0, 0.0, 0.0))
        return total - child if self_time else total

    def ratio(x, n):
        return x / n if n else 0.0

    def per_call_us(name, self_time=False):
        return ratio(seconds(name, self_time) * 1e6, count(name))

    def status_count(status):
        return sum(c.status == status for c in cells) / repeats

    rows = count("trace.append")
    sgd_steps = sum(c.steps for c in cells if c.algorithm == "sgd")
    diag_s = seconds("problems.suboptimality") + seconds("problems.exact_grad")
    kernels = computed_counters(cells)
    return {
        "problems.sample_batch.us": per_call_us("problems.sample_batch"),
        "problems.sample_batch.bytes":
            kernels["problems.sample_batch"]["bytes"],
        "problems.minibatch_gradient.us":
            per_call_us("problems.minibatch_gradient"),
        "problems.minibatch_gradient.bytes":
            kernels["problems.minibatch_gradient"]["bytes"],
        "problems.minibatch_gradient.flops":
            kernels["problems.minibatch_gradient"]["flops"],
        "problems.diagnostics.us": ratio(diag_s * 1e6, rows),
        "problems.diagnostics.bytes": kernels["problems.diagnostics"]["bytes"],
        "problems.diagnostics.flops": kernels["problems.diagnostics"]["flops"],
        "problems.problem_from_config.calls": count(_CELL_START) / repeats,
        "problems.problem_from_config.s": seconds(_CELL_START) / repeats,
        "optimizers.acc_step.calls": count("optimizers.acc_step") / repeats,
        "optimizers.acc_step.us":
            per_call_us("optimizers.acc_step", self_time=True),
        "optimizers.project_ball.us": per_call_us("optimizers.project_ball"),
        "optimizers.run_sgd.us":
            ratio(seconds("optimizers.run_sgd", self_time=True) * 1e6,
                  sgd_steps),
        "optimizers.stage_budget.calls":
            count("optimizers.stage_budget") / repeats,
        "optimizers.aborted": status_count("aborted"),
        "trace.append.us": per_call_us("trace.append"),
        "trace.build.us": per_call_us("trace.build"),
        "trace.trace_to_csv.us_per_row":
            ratio(seconds("trace.trace_to_csv") * 1e6, rows),
        "trace.rows": rows / repeats,
        "analysis.time_to_eps.ms":
            ratio(seconds("analysis.time_to_eps") * 1e3,
                  count("analysis.time_to_eps")),
        "harness.run_experiment.s":
            seconds("harness.run_experiment", self_time=True) / repeats,
        "harness.write.s": seconds(_WRITE) / repeats,
        "harness.bytes_written": tracer.bytes_written / repeats,
        "harness.cells": len(cells) / repeats,
        "harness.cells_failed": status_count("failed"),
    }
