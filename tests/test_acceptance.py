"""Acceptance gate: one test per criterion, at the stated tolerances.

Each criterion binds to a verification suite (`optaccel.verify`); suites run
once per session and every test prints its own pass/fail line, so
`pytest -v tests/test_acceptance.py` doubles as the acceptance report.
"""

import json
from pathlib import Path

import pytest

from optaccel.harness import load_spec, run_experiment
from optaccel.verify import SUITES, run_suite

# every suite's report content hash: whatever changes a suite's checks,
# values, thresholds or details shows here
PINNED = json.loads((Path(__file__).parent / "golden"
                     / "verify_report_hashes.json").read_text())

_CACHE = {}


def suite(name):
    if name not in _CACHE:
        _CACHE[name] = run_suite(name)
    return _CACHE[name]


def _assert_checks(report, names=None, criterion=""):
    checks = [c for c in report["checks"]
              if names is None or any(c["name"].startswith(n) for n in names)]
    assert checks, f"no checks matched {names} in suite {report['suite']}"
    failed = [c for c in checks if not c["passed"]]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {criterion}: "
          + "; ".join(f"{c['name']}={c['value']:.4g} {c['op']} "
                      f"{c['threshold']:.4g}" for c in checks))
    assert not failed, failed


def test_criterion_01_assumption_certification():
    _assert_checks(suite("assumptions"),
                   criterion="criterion 1 (assumption certification)")


def test_criterion_02_variance_bound_at_minimizer():
    _assert_checks(suite("lemma3"),
                   criterion="criterion 2 (gradient variance <= 2*H*Lstar)")


def test_criterion_03_projection_inequality():
    _assert_checks(suite("lemma1"),
                   criterion="criterion 3 (projected-update optimality)")


def test_criterion_04_deterministic_accelerated_rate():
    _assert_checks(suite("rate_convex"), names=["noiseless_quadratic"],
                   criterion="criterion 4 (noiseless quadratic rate)")


def test_criterion_05_interpolation_rates():
    _assert_checks(suite("rate_convex"), names=["interpolation"],
                   criterion="criterion 5 (interpolation regime slopes)")


def test_criterion_06_linear_minibatch_speedup():
    _assert_checks(suite("speedup"),
                   names=["table_monotone", "halving", "regime_pairs",
                          "critical_batch"],
                   criterion="criterion 6 (linear speedup + critical batch)")


def test_criterion_07_sgd_sees_no_speedup():
    _assert_checks(suite("speedup"), names=["sgd_no_speedup"],
                   criterion="criterion 7 (SGD minibatch contrast)")


def test_criterion_08_restarted_linear_convergence():
    _assert_checks(suite("rate_restart"),
                   criterion="criterion 8 (restart linear convergence)")


def test_criterion_09_sigma_star_setting():
    _assert_checks(suite("sigma_star"),
                   criterion="criterion 9 (variance-parameterized rates)")


def test_criterion_10_reproducibility(tmp_path):
    # verify suites: every report's content hash equals its pinned value
    assert sorted(PINNED) == sorted(SUITES)
    for name, pinned in PINNED.items():
        assert suite(name)["content_hash"] == pinned, name

    # experiments: identical artifact hashes on rerun, serial == parallel
    raw = {
        "problems": [{"family": "interpolation_least_squares",
                      "params": {"d": 8, "n_atoms": 4, "H": 1.0, "B": 1.0},
                      "seed": 7}],
        "algorithm": "acc_mb_sgd",
        "b_grid": [1, 4], "T_grid": [16, 64], "n_seeds": 3, "base_seed": 0,
        "eps_targets": [0.05], "output_dir": str(tmp_path / "out"),
        "overrides": {}, "workers": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(raw))
    spec = load_spec(spec_path)
    m1 = run_experiment(spec)
    m2 = run_experiment(spec)
    assert m1["content_hash"] == m2["content_hash"]
    m3 = run_experiment(spec, workers=3)
    assert m3["artifacts"] == m1["artifacts"]
    print("[PASS] criterion 10 (reproducibility): pinned suite hashes and "
          f"manifest {m1['content_hash'][:12]} stable across reruns")
