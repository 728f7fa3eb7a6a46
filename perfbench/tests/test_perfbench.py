"""Tests of the benchmark's own code: workloads, tracer, correctness gate.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from optaccel import harness, optimizers  # noqa: E402

INTERP = {"family": "interpolation_least_squares",
          "params": {"d": 8, "n_atoms": 4, "H": 1.0, "B": 1.0}, "seed": 3}
GROWTH = {"family": "growth",
          "params": {"d": 6, "r": 3, "lam": 0.25, "H": 1.0, "Delta": 1.0},
          "seed": 5}


def tiny_specs(tmp_path):
    """One small spec per algorithm, so every traced function is called."""
    raws = {
        "acc": {"problems": [INTERP], "algorithm": "acc_mb_sgd",
                "b_grid": [1, 4], "T_grid": [8, 16], "n_seeds": 2,
                "eps_targets": [0.1]},
        "restarted": {"problems": [GROWTH], "algorithm": "restarted",
                      "b_grid": [8], "T_grid": [400], "n_seeds": 1},
        "sgd": {"problems": [GROWTH], "algorithm": "sgd", "b_grid": [2],
                "T_grid": [32], "n_seeds": 2, "overrides": {"eta": 0.25}},
    }
    specs = []
    for name, raw in raws.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            dict(raw, output_dir=str(tmp_path / name), workers=1)))
        specs.append(harness.load_spec(path))
    return specs


def run_all(specs, workers=1):
    return [harness.run_experiment(s, workers=workers) for s in specs]


def chunk_specs(workload, seed, out_dir):
    return [[json.loads(p.read_text()) for p in chunk]
            for chunk in workloads.write_chunks(workload, seed, out_dir)]


class TestWorkloads:
    def test_sweep_d32_chunks_make_up_the_shipped_demo_sweep(self, tmp_path):
        demo = ROOT / "demos" / "specs" / "interpolation_sweep.json"
        shipped = json.loads(demo.read_text())
        chunks = chunk_specs("sweep_d32", 0, tmp_path)
        seeds = []
        for [raw] in chunks:
            assert raw["n_seeds"] == 1
            seeds.append(raw.pop("base_seed"))
            for key in ("output_dir", "workers", "n_seeds"):
                del raw[key]
        assert seeds == list(range(shipped["base_seed"],
                                   shipped["base_seed"] + shipped["n_seeds"]))
        for key in ("output_dir", "workers", "n_seeds", "base_seed"):
            del shipped[key]
        assert all(raw == shipped for [raw] in chunks)

    def test_chunks_differ_only_in_run_seeds(self, tmp_path):
        for name in workloads.WORKLOADS:
            chunks = chunk_specs(name, 0, tmp_path / name)
            assert len(chunks) > 1
            for chunk in chunks:
                for raw in chunk:
                    del raw["base_seed"], raw["output_dir"]
            assert all(chunk == chunks[0] for chunk in chunks)

    def test_seed_shifts_problem_and_run_seeds(self, tmp_path):
        for name in workloads.WORKLOADS:
            base = workloads.write_chunks(name, 0, tmp_path / "s0")
            moved = workloads.write_chunks(name, 7, tmp_path / "s7")
            for p0, p7 in zip(sum(base, []), sum(moved, [])):
                r0, r7 = (json.loads(p.read_text()) for p in (p0, p7))
                assert r7["base_seed"] == r0["base_seed"] + 7
                assert [p["seed"] for p in r7["problems"]] == \
                    [p["seed"] + 7 for p in r0["problems"]]
                harness.load_spec(p7)   # valid for the program

    def test_benchmark_json_names_every_workload(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in declared["workloads"]] == \
            list(workloads.WORKLOADS)

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            workloads.write_chunks("sweep_d32", -1, tmp_path)


class TestTracer:
    def test_transparent_and_restores_functions(self, tmp_path):
        specs = tiny_specs(tmp_path)
        plain = [m["content_hash"] for m in run_all(specs)]
        before = optimizers.acc_step
        tr = tracer.Tracer()
        with tr.installed():
            assert optimizers.acc_step is not before
            traced = [m["content_hash"] for m in run_all(specs)]
        assert optimizers.acc_step is before
        assert traced == plain
        assert tr.missing == []

    def test_layer_counts(self, tmp_path):
        specs = tiny_specs(tmp_path)
        tr = tracer.Tracer()
        with tr.installed():
            manifests = run_all(specs)
        cells = [c for s, m in zip(specs, manifests)
                 for c in gate.check_sweep(s, m)]
        m = tracer.layer_metrics(tr, cells, repeats=1)
        acc_steps = (8 + 16) * 2 * 2
        restart_steps = sum(c.steps for c in cells
                            if c.algorithm == "restarted")
        sgd_steps = 32 * 2
        assert m["harness.cells"] == 8 + 1 + 2
        assert m["problems.problem_from_config.calls"] == 8 + 1 + 2
        assert m["optimizers.acc_step.calls"] == acc_steps + restart_steps
        assert m["trace.rows"] == acc_steps + restart_steps + sgd_steps
        assert m["optimizers.stage_budget.calls"] > 0
        assert m["optimizers.run_sgd.us"] > 0
        assert m["harness.cells_failed"] == 0
        written = sum(p.stat().st_size for s in specs
                      for p in Path(s.output_dir).iterdir())
        assert m["harness.bytes_written"] == written
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert set(m) | {"trace.overhead_s"} == \
            {d["name"] for d in declared["per_layer"]}
        spans = {s[1] for s in tr.spans}
        assert {"harness.run_experiment", "harness.write",
                "analysis.time_to_eps"} <= spans
        for span_id, _, start, end, parent, _, child in tr.spans:
            assert 0 <= child <= end - start
            assert parent is None or parent < span_id


class TestGate:
    def test_clean_sweep_passes(self, tmp_path):
        specs = tiny_specs(tmp_path)
        for spec, manifest in zip(specs, run_all(specs)):
            checks = gate.check_sweep(spec, manifest)
            assert len(checks) == (len(spec.b_grid) * len(spec.T_grid)
                                   * spec.n_seeds)
            assert all(c.ok for c in checks), checks

    def test_rejects_cell_above_error_bound(self, tmp_path):
        spec = tiny_specs(tmp_path)[0]
        manifest = harness.run_experiment(spec, workers=1)
        name = next(n for n in manifest["artifacts"] if n.endswith(".json"))
        path = Path(spec.output_dir) / name
        header = json.loads(path.read_text())
        checks = gate.check_sweep(spec, manifest)
        bound = next(c.bound for c in checks if c.stem == name[:-5])
        header["final_subopt"] = 1.01 * bound
        path.write_text(json.dumps(header))
        bad = [c for c in gate.check_sweep(spec, manifest) if not c.ok]
        assert [(c.stem, c.status) for c in bad] == \
            [(name[:-5], "above_bound")]

    def test_rejects_failed_and_missing_cells(self, tmp_path):
        # a 1-iteration budget cannot fit the first restart stage
        spec = replace(tiny_specs(tmp_path)[1], T_grid=(1,))
        manifest = harness.run_experiment(spec, workers=1)
        assert [c.status for c in gate.check_sweep(spec, manifest)] == \
            ["failed"]
        manifest["failures"] = []
        assert [c.status for c in gate.check_sweep(spec, manifest)] == \
            ["missing"]

    def test_aborted_cell_fails(self, tmp_path):
        spec = tiny_specs(tmp_path)[2]
        manifest = harness.run_experiment(spec, workers=1)
        name = next(n for n in manifest["artifacts"] if n.endswith(".json"))
        path = Path(spec.output_dir) / name
        header = json.loads(path.read_text())
        header["aborted"] = True
        path.write_text(json.dumps(header))
        assert sorted(c.status for c in gate.check_sweep(spec, manifest)) == \
            ["aborted", "ok"]


def test_serial_and_two_workers_write_identical_artifacts(tmp_path):
    specs = tiny_specs(tmp_path)
    serial = run_all(specs)
    files = {}
    for m in serial:
        out = Path(m["spec"]["output_dir"])
        files.update({(out.name, n): (out / n).read_bytes()
                      for n in m["artifacts"]})
    for s in specs:
        shutil.rmtree(s.output_dir)
    parallel = run_all(specs, workers=2)
    assert [m["content_hash"] for m in parallel] == \
        [m["content_hash"] for m in serial]
    for m in parallel:
        out = Path(m["spec"]["output_dir"])
        for n in m["artifacts"]:
            assert (out / n).read_bytes() == files[(out.name, n)]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_d32",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
