"""Iterate columns of benchmark-sized cells pinned to committed hashes.

The ``t``, ``norm_w``, ``norm_wag`` and ``stage`` columns depend only on the
design, the sample stream and the optimizer, never on how the diagnostics
are evaluated, so they must stay bit-identical when the closed forms are
rewritten.  The hashes were recorded before the closed forms moved to the
design's square-root factor.
"""

import hashlib
import json
from pathlib import Path

import pytest

from optaccel.harness import load_spec, run_experiment

GOLDEN = Path(__file__).parent / "golden"

CELLS = {
    # one cell of the shipped interpolation sweep (d=32, 16 atoms)
    "sweep_d32_cell": {
        "problems": [{"family": "interpolation_least_squares",
                      "params": {"d": 32, "n_atoms": 16, "H": 1.0, "B": 1.0},
                      "seed": 334}],
        "algorithm": "acc_mb_sgd", "b_grid": [16], "T_grid": [1024]},
    # one restarted cell on the growth family with a long budget
    "restart_growth_cell": {
        "problems": [{"family": "growth",
                      "params": {"d": 64, "r": 8, "lam": 0.05, "H": 1.0,
                                 "Delta": 1.0},
                      "seed": 5}],
        "algorithm": "restarted", "b_grid": [8], "T_grid": [8192]},
}


def iterate_columns_hash(csv_text: str) -> str:
    """sha256 of the ``t,norm_w,norm_wag,stage`` columns of a trace CSV."""
    rows = [ln.split(",") for ln in csv_text.strip().splitlines()]
    keep = [0, 1, 2, 6]
    assert [rows[0][i] for i in keep] == ["t", "norm_w", "norm_wag", "stage"]
    text = "\n".join(",".join(r[i] for i in keep) for r in rows) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_iterate_columns_match_golden(name, tmp_path):
    raw = dict(CELLS[name], n_seeds=1, base_seed=0,
               output_dir=str(tmp_path / "out"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    manifest = run_experiment(load_spec(path))
    assert manifest["failures"] == []
    traces = [n for n in manifest["artifacts"]
              if n.endswith(".csv") and n not in ("summary.csv",
                                                   "speedup.csv")]
    assert len(traces) == 1
    got = iterate_columns_hash((tmp_path / "out" / traces[0]).read_text())
    want = (GOLDEN / f"{name}_columns.sha256").read_text().strip()
    assert got == want
