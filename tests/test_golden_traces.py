"""Iterate columns and run headers of benchmark-sized cells pinned to
committed hashes.

The ``t``, ``norm_w``, ``norm_wag`` and ``stage`` columns depend only on the
design, the sample stream and the optimizer, never on how the diagnostics
are evaluated, so they must stay bit-identical when the closed forms are
rewritten.  The hashes were recorded before the closed forms moved to the
design's square-root factor.

The header pins cover what a run is told to do: the problem, the
accelerated run's ``schedule`` and the restarted run's ``plan``.  They
leave out ``final_subopt``, a diagnostic, as the columns hash leaves out
the diagnostic columns.
"""

import hashlib
import json
from pathlib import Path

import pytest

from optaccel.harness import load_spec, run_experiment
from optaccel.trace import canonical_json, sha256_text

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
    keep = [rows[0].index(c) for c in ("t", "norm_w", "norm_wag", "stage")]
    text = "\n".join(",".join(r[i] for i in keep) for r in rows) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(CELLS))
def cell_run(request, tmp_path_factory):
    """A golden cell's name, trace CSV and header JSON, run once."""
    name = request.param
    tmp = tmp_path_factory.mktemp(name)
    raw = dict(CELLS[name], n_seeds=1, base_seed=0,
               output_dir=str(tmp / "out"))
    path = tmp / "spec.json"
    path.write_text(json.dumps(raw))
    manifest = run_experiment(load_spec(path))
    assert manifest["failures"] == []
    traces = [n for n in manifest["artifacts"]
              if n.endswith(".csv") and n not in ("summary.csv",
                                                   "speedup.csv")]
    assert len(traces) == 1
    trace = tmp / "out" / traces[0]
    return name, trace.read_text(), trace.with_suffix(".json").read_text()


def test_iterate_columns_match_golden(cell_run):
    name, csv_text, _ = cell_run
    got = iterate_columns_hash(csv_text)
    want = (GOLDEN / f"{name}_columns.sha256").read_text().strip()
    assert got == want


def test_header_matches_golden(cell_run):
    name, _, header_text = cell_run
    header = json.loads(header_text)
    del header["final_subopt"]
    got = sha256_text(canonical_json(header))
    want = (GOLDEN / f"{name}_header.sha256").read_text().strip()
    assert got == want
