#!/usr/bin/env python3
"""Sweep-throughput benchmark of optaccel.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_d32 --seed 0 \
        --seconds 25 --trace 0

A workload (see ``workloads.py``) is a list of chunks of sweep specs that do
the same work with different run seeds.  Each chunk runs through the public
``harness.load_spec`` / ``harness.run_experiment`` API with one worker, and
whole passes over the chunks repeat until ``--seconds`` have passed.  Every
chunk passes the correctness gate in ``gate.py`` and must reproduce its
first run's manifest content hashes; any failure makes the command exit 1.

``--trace 0`` reports the end-to-end metrics:

- ``steps_per_s``: optimizer steps per second of ``run_experiment`` wall
  time, the upper quartile over chunk runs;
- ``setup_s``: the median, over fresh interpreters started between chunks,
  of the time to import the CLI's modules and load one chunk's specs
  (loading validates, which builds each problem once);
- ``peak_rss_mb``: peak resident set size of this process.

Both times are measured in units of a fixed reference loop run just
before and after each chunk or interpreter (``_reference``) and scaled by
``REFERENCE_S``.  Other tenants of a shared machine slow it by up to 2x
for seconds to minutes, which moves raw throughput between 25 s runs by
25%; the reference loop slows with them and leaves the program's own
speed.  The raw wall-clock figures are in the report.

``--trace 1`` runs each chunk untraced and then traced, checks that both
give the same content hashes, and reports the per-layer metrics of
``tracer.py`` plus ``trace.overhead_s``, the traced minus untraced wall time
of one pass.  The last line of standard output is a JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller report and
the span trace are written under ``.perfbench_out/<workload>/``.

BLAS is pinned to one thread, so every workload is a serial,
single-process run on any machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# relative to ROOT, so content hashes do not depend on where ROOT is
OUT = Path(".perfbench_out")
PROBES_PER_PASS = 4
# a fast time of _reference() on one core of a 2-vCPU Intel Xeon VM with
# Python 3.11 and NumPy 2.4; it only sets the scale of steps_per_s and setup_s
REFERENCE_S = 0.0025
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# the cost `optaccel run` pays before its first cell: the CLI's imports
# (every module) and loading, hence validating, each spec
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import optaccel.cli
from optaccel.harness import load_spec
for path in sys.argv[1:]:
    load_spec(path)
print(time.perf_counter() - t0)
"""


def _parse(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 gives the recorded workloads")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


class Runner:
    """Runs a workload's chunks and gates every chunk run."""

    def __init__(self, chunk_paths):
        import gate
        from optaccel import harness
        self.harness, self.check = harness, gate.check_sweep
        self.chunks = [[harness.load_spec(p) for p in paths]
                       for paths in chunk_paths]
        self.hashes = {}         # chunk -> content hashes of its first run
        self.steps = {}          # chunk -> optimizer steps
        self.cells = []          # gate records of every run
        self.traced_cells = []   # ... of the traced runs only
        self.errors = []

    def run(self, i, tracer=None) -> float:
        """Run chunk ``i`` once; return the wall time of its specs."""
        specs = self.chunks[i]
        for spec in specs:
            shutil.rmtree(spec.output_dir, ignore_errors=True)
        with tracer.installed() if tracer else nullcontext():
            t0 = time.perf_counter()
            manifests = [self.harness.run_experiment(spec, workers=1)
                         for spec in specs]
            wall = time.perf_counter() - t0
        hashes = [m["content_hash"] for m in manifests]
        first = self.hashes.setdefault(i, hashes)
        if hashes != first:
            kind = "traced" if tracer else "untraced"
            self.errors.append(f"chunk {i}: {kind} run changed the content "
                               f"hashes: {hashes} != {first}")
        cells = [c for spec, manifest in zip(specs, manifests)
                 for c in self.check(spec, manifest)]
        self.steps[i] = sum(c.steps for c in cells)
        self.cells += cells
        if tracer:
            self.traced_cells += cells
        self.errors += [f"chunk {i}: {c.stem}: {c.status}: {c.detail}"
                        for c in cells if not c.ok]
        return wall


def _passes(seconds, min_passes, run_pass) -> int:
    """Call ``run_pass`` until the next call would end after ``seconds``."""
    start = time.perf_counter()
    n = 0
    while True:
        t0 = time.perf_counter()
        run_pass()
        n += 1
        took = time.perf_counter() - t0
        if n >= min_passes and time.perf_counter() - start + took > seconds:
            return n


def _setup_probe(spec_paths) -> float:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, *map(str, spec_paths)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _reference() -> float:
    """Seconds taken by a fixed loop of small NumPy operations.

    The loop does the kind of work an optimizer step does (a 32-dimensional
    matrix-vector product, Philox draws, a norm) without calling the
    program, so its time tracks how fast the shared machine is at the
    moment and never how fast the program is.
    """
    import numpy as np
    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(key=7))
    m = np.eye(32)
    x = np.zeros(32)
    for _ in range(400):
        x = x - 0.01 * (m @ x - gen.standard_normal(32))
        float(np.linalg.norm(x))
    return time.perf_counter() - t0


def _against_reference(run) -> tuple[float, float]:
    """Return what ``run()`` returns and the mean of reference loops
    timed just before and just after it."""
    before = _reference()
    seconds = run()
    return seconds, (before + _reference()) / 2


def _measure(runner, chunk_paths, seconds, report) -> dict:
    """End-to-end metrics over at least two passes, tracing off."""
    n = len(runner.chunks)
    stride = -(-n // PROBES_PER_PASS)
    runs, setup = [], []   # (steps, seconds, reference seconds), (s, ref s)

    def one_pass():
        for i in range(n):
            if i % stride == 0:
                setup.append(_against_reference(
                    lambda: _setup_probe(chunk_paths[0])))
            wall, ref = _against_reference(lambda: runner.run(i))
            runs.append((runner.steps[i], wall, ref))

    report["passes"] = _passes(seconds, 2, one_pass)
    raw = [steps / wall for steps, wall, _ in runs]
    report.update(chunk_runs=runs, setup_runs=setup,
                  wall_steps_per_s={"median": statistics.median(raw),
                                    "q75": statistics.quantiles(raw, n=4)[2]},
                  wall_setup_s=statistics.median(t for t, _ in setup))
    rates = [steps / wall * ref / REFERENCE_S for steps, wall, ref in runs]
    return {
        "steps_per_s": statistics.quantiles(rates, n=4)[2],
        "setup_s": statistics.median(t / ref * REFERENCE_S
                                     for t, ref in setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _measure_traced(runner, seconds, out_dir, report) -> dict:
    """Per-layer metrics over whole passes of untraced/traced chunk pairs."""
    import tracer as tracing
    n = len(runner.chunks)
    tr = tracing.Tracer()
    pairs = []

    def one_pass():
        for i in range(n):
            pairs.append((runner.run(i), runner.run(i, tr)))

    passes = _passes(seconds, 1, one_pass)
    metrics = tracing.layer_metrics(tr, runner.traced_cells, passes)
    metrics["trace.overhead_s"] = n * statistics.median(
        traced - plain for plain, traced in pairs)
    tr.dump(out_dir / "trace.json")
    report.update(passes=passes, walls=pairs, missing_targets=tr.missing)
    return metrics


def _env_block() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV}}


def _src_loc() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "optaccel").glob("*.py")))


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    os.environ.update(BLAS_ENV)   # before numpy is imported
    if not (SRC / "optaccel" / "__init__.py").is_file():
        print(f"no optaccel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import optaccel
    if Path(optaccel.__file__).resolve().parent != SRC / "optaccel":
        print(f"imported optaccel from {optaccel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracer import computed_counters
    from workloads import write_chunks

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    chunk_paths = write_chunks(args.workload, args.seed, out_dir)
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    report = {"workload": args.workload, "why": why[args.workload],
              "seed": args.seed, "trace": args.trace, "env": _env_block(),
              "src_loc": _src_loc()}
    runner = Runner(chunk_paths)
    if args.trace:
        metrics = _measure_traced(runner, args.seconds, out_dir, report)
    else:
        metrics = _measure(runner, chunk_paths, args.seconds, report)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, but BENCHMARK.json "
                           f"declares {sorted(units)}")

    cells = runner.cells
    failed = sum(not c.ok for c in cells)
    errors = runner.errors
    report.update({
        "cells": len(cells), "failed": failed,
        "failed_ratio": failed / len(cells),
        "content_hashes": runner.hashes,
        "worst_bound_ratio": max((c.final_subopt / c.bound
                                  for c in cells if c.ok), default=None),
        "computed_counters": computed_counters(cells),
        "errors": errors[:50],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })
    (out_dir / f"report_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  cells {len(cells)}  "
          f"src_loc {report['src_loc']}")
    for k, v in metrics.items():
        print(f"  {k:<36} {v:>14.6g} {units[k]}")
    print(f"  {'failed_ratio':<36} {report['failed_ratio']:>14.6g} ratio")
    for e in errors[:10]:
        print(f"gate: {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": len(cells),
                      "failed": failed if correct else max(failed, 1),
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
