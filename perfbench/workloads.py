"""The benchmark's workloads, generated from a workload seed.

A workload is a list of chunks run back to back; one pass over the chunks is
one repeat of the workload.  A chunk is one or more sweep specs that differ
from the other chunks of its workload only in the run seeds, so every chunk
does the same work and each chunk's wall time is one sample of it.  Chunks
are short so that a run holds many samples: other tenants of a shared
machine slow the program for seconds at a time, and only many short samples
show its speed through that.

A workload seed ``s`` adds ``s`` to every problem seed and to every
``base_seed``, so a claim can be rechecked on inputs not used while making
it; seed 0 gives the recorded workloads.  The program under test sees only
the generated spec files.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["WORKLOADS", "write_chunks"]


def _interpolation(d: int, B: float, seed: int) -> dict:
    return {"family": "interpolation_least_squares",
            "params": {"d": d, "n_atoms": 16, "H": 1.0, "B": B},
            "seed": seed}


def _sweep_d32(s: int) -> list[dict]:
    # the grid of demos/specs/interpolation_sweep.json, one run seed a chunk
    return [{"sweep": {
        "problems": [_interpolation(32, 1.0, 334 + s)],
        "algorithm": "acc_mb_sgd",
        "b_grid": [1, 4, 16, 64],
        "T_grid": [64, 128, 256, 512, 1024],
        "n_seeds": 1, "base_seed": s + i,
        "eps_targets": [0.01, 0.003], "overrides": {}}}
        for i in range(20)]


def _sweep_d2048(s: int) -> list[dict]:
    return [{"sweep": {
        "problems": [_interpolation(2048, 4.0, 334 + s)],
        "algorithm": "acc_mb_sgd",
        "b_grid": [16, 256],
        "T_grid": [64],
        "n_seeds": 1, "base_seed": s + i,
        "eps_targets": [0.01], "overrides": {}}}
        for i in range(4)]


def _restart_sgd_growth(s: int) -> list[dict]:
    growth = {"family": "growth",
              "params": {"d": 64, "r": 8, "lam": 0.05, "H": 1.0,
                         "Delta": 1.0},
              "seed": 5 + s}
    chunks = []
    for i in range(4):
        common = {"problems": [growth], "b_grid": [8, 32], "T_grid": [8192],
                  "n_seeds": 1, "base_seed": s + i, "eps_targets": [1e-6]}
        chunks.append({
            "restarted": dict(common, algorithm="restarted", overrides={}),
            "sgd": dict(common, algorithm="sgd", overrides={"eta": 0.25})})
    return chunks


# why each workload is in the benchmark is recorded in BENCHMARK.json
WORKLOADS = {
    "sweep_d32": _sweep_d32,
    "sweep_d2048": _sweep_d2048,
    "restart_sgd_growth": _restart_sgd_growth,
}


def write_chunks(workload: str, seed: int, out_dir: Path) -> list[list[Path]]:
    """Write the workload's spec files under ``out_dir``, chunk by chunk.

    Chunk ``i``'s specs are written as ``out_dir/c<i>/<name>.spec.json``;
    each writes its artifacts to ``out_dir/c<i>/<name>`` and asks for one
    worker.
    """
    if seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {seed}")
    chunks = []
    for i, chunk in enumerate(WORKLOADS[workload](seed)):
        chunk_dir = out_dir / f"c{i}"
        chunk_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, raw in chunk.items():
            raw = dict(raw, output_dir=str(chunk_dir / name), workers=1)
            path = chunk_dir / f"{name}.spec.json"
            path.write_text(json.dumps(raw, indent=1) + "\n")
            paths.append(path)
        chunks.append(paths)
    return chunks
