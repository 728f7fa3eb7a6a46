"""Spec validation, experiment execution, manifests, plotdata, CLI."""

import copy
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import Future, ProcessPoolExecutor, wait
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optaccel import (harness, make_schedule, make_sign_vector_problem,
                      optimizers, problems)
from optaccel.cli import main as cli_main
from optaccel.harness import (ExperimentSpec, SpecError, emit_plotdata,
                              load_spec, run_experiment, spec_hash)
from optaccel.optimizers import make_budget_plan, sgd_step
from optaccel.problems import problem_from_config
from optaccel.trace import canonical_json, trace_from_csv
from optaccel.verify import SUITES, run_suite
from strategies import FAMILY_EXAMPLES, family_configs

SIGN_PROBLEM = {"family": "sign_vector",
                "params": {"n": 2, "H": 1.0, "B": 1.0,
                           "sigma_signs": [1, -1, 1, 1]},
                "seed": 0}
GROWTH_PROBLEM = {"family": "growth",
                  "params": {"d": 6, "r": 3, "lam": 0.25, "H": 1.0,
                             "Delta": 1.0},
                  "seed": 5}
# a restart's first stage takes 985 steps at b=8 on this design
SLOW_GROWTH_PROBLEM = {"family": "growth",
                       "params": {"d": 6, "r": 3, "lam": 0.1, "H": 1.0,
                                  "Delta": 1.0},
                       "seed": 11}


# the overrides each algorithm reads
READS = {"acc_mb_sgd": (), "sgd": ("eta",), "restarted": ()}


def minimal_spec(tmp_path, **kw):
    raw = {
        "problems": [SIGN_PROBLEM],
        "algorithm": "acc_mb_sgd",
        "b_grid": [1],
        "T_grid": [16],
        "n_seeds": 1,
        "base_seed": 0,
        "eps_targets": [],
        "output_dir": str(tmp_path / "out"),
        "overrides": {},
        "workers": 1,
    }
    raw.update(kw)
    return raw


def fail_runs_at_T1(monkeypatch):
    """Make each ``acc_mb_sgd`` cell with ``T=1`` fail while it runs, as a
    cell that validation cannot foresee does."""
    run = optimizers.run_acc_mb_sgd

    def run_or_fail(problem, b, T, **kw):
        if T == 1:
            raise RuntimeError(f"no run at T={T}")
        return run(problem, b, T, **kw)

    monkeypatch.setattr(optimizers, "run_acc_mb_sgd", run_or_fail)


def write_spec(tmp_path, raw, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def write_canonical(spec, path):
    """Write a validated spec back as canonical JSON."""
    path.write_text(canonical_json(asdict(spec)) + "\n")
    return path


class TestLoadSpec:
    def test_round_trip_bytes(self, tmp_path):
        path = write_spec(tmp_path, minimal_spec(tmp_path))
        spec = load_spec(path)
        spec2 = load_spec(write_canonical(spec, tmp_path / "canon.json"))
        write_canonical(spec2, tmp_path / "canon2.json")
        assert (tmp_path / "canon.json").read_bytes() == \
            (tmp_path / "canon2.json").read_bytes()
        assert spec_hash(spec) == spec_hash(spec2)

    def test_golden_shipped_spec(self, tmp_path):
        shipped = Path(__file__).parent.parent / "demos" / "specs" / \
            "interpolation_sweep.json"
        golden = Path(__file__).parent / "golden" / \
            "interpolation_sweep_spec.sha256"
        spec = load_spec(shipped)
        assert spec_hash(spec) == golden.read_text().strip()


# -- refused specs ------------------------------------------------------------
#
# Every spec that validation refuses is one row ``(id, edit, message)``:
# ``edit`` turns ``minimal_spec``'s dict into the document at the spec
# path, and ``message``, ``{path}`` filled in, is what ``load_spec`` raises
# and ``optaccel run`` prints.  An id starts with the spec field or
# problem-config key it breaks, or with ``document``.


def spec(**kw):
    """An edit that sets spec keys."""
    return lambda raw: {**raw, **kw}


def one_problem(family, params, **kw):
    """An edit to one ``family`` problem with ``params``, and spec keys."""
    return spec(problems=[{"family": family, "params": params, "seed": 0}],
                **kw)


def bad_param(family, at=0, **params):
    """An edit whose problem ``at``, after ``at`` sign problems, is
    ``family``'s example config with ``params`` set."""
    cfg = FAMILY_EXAMPLES[family]
    return spec(problems=[SIGN_PROBLEM] * at + [
        dict(cfg, params=dict(cfg["params"], **params))])


DIRECTORY = object()


def write_document(path, doc):
    """Write a dict or list as JSON, bytes as they are, ``DIRECTORY`` as a
    directory and ``None`` as nothing."""
    if doc is DIRECTORY:
        path.mkdir()
    elif doc is not None:
        path.write_bytes(doc if isinstance(doc, bytes)
                         else json.dumps(doc).encode())


GROWTH_PARAMS = GROWTH_PROBLEM["params"]
INTERP, QUAD, SPIKE = ("interpolation_least_squares", "noiseless_quadratic",
                       "gaussian_spike")
SPIKE_PARAMS = FAMILY_EXAMPLES[SPIKE]["params"]
INT_PARAMS = {"d", "n_atoms", "r", "n", "sign"}
POSITIVE = "entries must be positive integers"
DISTINCT = "entries must be distinct, got {value}"
AT_MOST_2_53 = "entries must be at most 2**53"
FINITE = "must be finite positive numbers"
COUNT = "must be a positive integer, got {value}"
SEED = "must be an integer >= 0, got {value}"
TINY_H = {"H": 1e-310, "B": 1.0, "p": 0.5, "s": 0.0, "sign": 1}

REFUSED_SPECS = [
    # the document: unreadable, unparsable, not an object, or wrong keys
    ("document-missing_file", lambda raw: None,
     "{path}: unreadable spec: FileNotFoundError"),
    ("document-directory", lambda raw: DIRECTORY,
     "{path}: unreadable spec: IsADirectoryError"),
    ("document-parse_error", lambda raw: b'{"problems": [,]}',
     "{path}: parse error at line 1 column 15: Expecting value"),
    ("document-deep_nesting", lambda raw: b"[" * 100_000 + b"]" * 100_000,
     "{path}: unreadable spec: RecursionError"),
    ("document-long_integer",
     lambda raw: b'{"problems": ' + b"9" * 5000 + b"}",
     "{path}: unreadable spec: ValueError"),
    ("document-not_utf8", lambda raw: b'{"output_dir": "\xff"}',
     "{path}: unreadable spec: UnicodeDecodeError"),
    ("document-array", lambda raw: [{"problems": []}],
     "{path}: spec must be a JSON object"),
    ("document-unknown_key", spec(grid=[1]), "unknown spec keys: ['grid']"),
    ("document-missing_key",
     lambda raw: {k: v for k, v in raw.items() if k != "output_dir"},
     "missing spec keys: ['output_dir']"),
    # ``json.loads`` alone would keep a repeated key's last copy and run it
    ("document-repeated_key", lambda raw: json.dumps(raw).encode()[:-1]
     + b', "T_grid": [8]}',
     "{path}: repeated key 'T_grid'"),
    ("params-repeated_key", lambda raw: json.dumps(raw).encode().replace(
        b'"H": 1.0', b'"H": 1.0, "H": 2.0'),
     "{path}: repeated key 'H'"),
    ("overrides-repeated_key", lambda raw: json.dumps(raw).encode().replace(
        b'"overrides": {}', b'"overrides": {"eta": 1.0, "eta": 2.0}'),
     "{path}: repeated key 'eta'"),
    # the problem list and each problem config
    ("problems-object", spec(problems=GROWTH_PROBLEM),
     "problems: must be a non-empty list"),
    # not read as a set of keys, nor iterated, before the check
    *((f"problems-{name}", spec(problems=[cfg]), "problems[0]: ValueError: "
       f"a problem config must be a JSON object, got {cfg!r}")
      for name, cfg in [("string", "growth"), ("number", 5), ("null", None),
                        ("pairs", [["family", "growth"]])]),
    ("problems-unknown_config_key", spec(problems=[dict(SIGN_PROBLEM, d=2)]),
     "problems[0]: ValueError: unknown problem config keys: ['d']"),
    # the same problem twice once the default seed is filled in
    ("problems-duplicate", spec(problems=[
        dict(GROWTH_PROBLEM, seed=0), {"params": GROWTH_PARAMS,
                                       "family": "growth"}]),
     "problems[1]: duplicates problems[0]"),
    ("family-unknown", spec(problems=[dict(SIGN_PROBLEM, family="logistic")]),
     "problems[0]: ValueError: unknown problem family 'logistic'; known: "),
    # neither an absent family nor a list is a name to look up
    ("family-missing", spec(problems=[{"params": GROWTH_PARAMS}]),
     "problems[0]: ValueError: unknown problem family None"),
    ("family-list", spec(problems=[dict(GROWTH_PROBLEM, family=["growth"])]),
     "problems[0]: ValueError: unknown problem family ['growth']"),
    *((f"seed-{name}", spec(problems=[dict(cfg, seed=seed)]),
       f"problems[0]: ValueError: {cfg['family']}: seed must be an integer "
       f">= 0, got {seed}")
      for name, cfg, seed in [("float", SIGN_PROBLEM, 2.7),
                              ("true", SIGN_PROBLEM, True),
                              ("false", GROWTH_PROBLEM, False),
                              ("negative", SIGN_PROBLEM, -1)]),
    ("params-holds_seed", bad_param("growth", seed=7),
     "problems[0]: ValueError: growth: params must be a JSON object without "
     "'seed'"),
    ("params-list", one_problem("growth", list(GROWTH_PARAMS.items())),
     "problems[0]: ValueError: growth: params must be a JSON object"),
    # a parameter of the wrong kind, named with its problem's index;
    # json.dumps writes NaN and Infinity, which json.loads accepts
    *((f"params-{name}", bad_param(family, at, **{key: value}),
       f"problems[{at}]: {error}: {family}: parameter {key!r} must be "
       f"{'an integer' if key in INT_PARAMS else 'a finite number'}, "
       f"got {value!r}")
      for name, at, family, key, value, error in [
          ("bool_d", 1, INTERP, "d", True, "ValueError"),
          ("bool_n_atoms", 1, INTERP, "n_atoms", True, "ValueError"),
          ("bool_r", 1, "growth", "r", True, "ValueError"),
          ("bool_n", 1, "sign_vector", "n", True, "ValueError"),
          ("bool_sign", 0, SPIKE, "sign", True, "ValueError"),
          ("float_d", 0, QUAD, "d", 8.0, "ValueError"),
          ("bool_lam", 0, "growth", "lam", True, "TypeError"),
          ("string_H", 0, QUAD, "H", "big", "TypeError"),
          ("inf_B", 0, INTERP, "B", math.inf, "ValueError"),
          ("nan_s", 0, SPIKE, "s", math.nan, "ValueError"),
          ("nan_B", 0, SPIKE, "B", math.nan, "ValueError"),
          ("past_float_spread", 0, QUAD, "spread", 10**400, "ValueError")]),
    ("params-bool_sigma_signs",
     bad_param("sign_vector", sigma_signs=[True, -1, 1, 1]),
     "problems[0]: ValueError: sigma_signs entries must be the integers"),
    ("params-float_sigma_signs",
     bad_param("sign_vector", sigma_signs=[1.0, -1.0, 1.0, 1.0]),
     "problems[0]: ValueError: sigma_signs entries must be the integers"),
    # a parameter outside its family's range
    ("params-spread_below_1", bad_param(QUAD, spread=0.5),
     "problems[0]: ValueError: need d >= 1 and finite H > 0, B > 0, "
     "spread >= 1, got d=4, H=1.0, B=1.0, spread=0.5"),
    ("params-zero_sign", bad_param(SPIKE, sign=0),
     "problems[0]: ValueError: sign must be +1 or -1"),
    ("params-zero_spike_H", bad_param(SPIKE, H=0.0),
     "problems[0]: ValueError: H and B must be positive"),
    ("params-zero_spike_B", bad_param(SPIKE, B=0.0),
     "problems[0]: ValueError: H and B must be positive"),
    # finite parameters whose problem has an infinite Delta or B, found by
    # TestSpecFuzz; the finite check reports them, with no overflow warning
    # first (a warning fails the run under the test settings)
    *((f"params-overflow_{name}", one_problem(family, params),
       f"problems[0]: ValueError: {family}: parameters overflow a float: "
       "certified constants and ball bounds must be finite")
      for name, family, params in [
          ("interp_B", INTERP, {"d": 4, "n_atoms": 2, "H": 1.0, "B": 1e160}),
          ("growth_Delta", "growth",
           {"d": 4, "r": 2, "lam": 0.1, "H": 1.0, "Delta": 1.7e308}),
          ("quad_H", QUAD, {"d": 3, "H": 1.7e308, "B": 1.0, "spread": 10.0}),
          ("quad_B", QUAD, {"d": 3, "H": 1.0, "B": 1e160, "spread": 10.0}),
          # (4 H B)**2, which bounds the squared gradient deviation
          ("interp_4HB_squared", INTERP,
           {"d": 4, "n_atoms": 2, "H": 1e200, "B": 1e50}),
          # 4 H B**2 overflows, (4 H B)**2 and Delta do not
          ("interp_4HB2", INTERP,
           {"d": 4, "n_atoms": 2, "H": 1e-10, "B": 1e159}),
          # at a subnormal H the planted interpolator's norm overflows;
          # unchecked, wstar = 0 and Delta = 0 under B = 1
          ("interp_subnormal_H", INTERP,
           {"d": 4, "n_atoms": 2, "H": 1e-310, "B": 1.0}),
          # the label noise sqrt(H) s z of an informative sample overflows
          # the squared gradient, while p H s**2 stays finite
          ("spike_label_noise", SPIKE,
           {"H": 1e150, "B": 1e-100, "p": 0.01, "s": 3e79, "sign": 1}),
          # B**2 (or s**2) of a Python float raises OverflowError in the
          # maker
          ("sign_B_squared", "sign_vector",
           {"n": 2, "H": 1.0, "B": 1e200, "sigma_signs": [1, -1, 1, 1]}),
          ("spike_B_squared", SPIKE, dict(SPIKE_PARAMS, B=1e200)),
          ("spike_s_squared", SPIKE, dict(SPIKE_PARAMS, s=1e200)),
          # Delta = 0.5 wstar' A wstar meets inf - inf inside the matmul
          ("quad_Delta", QUAD, {"d": 3, "H": 1e300, "B": 1e200})]),
    # each cell's step rule is made at load; each of these ran before with
    # a stepsize of 0 or a NaN row, and exit 0
    ("problems-acc_gamma_zero", one_problem(SPIKE, {
        "H": 1e-175, "B": 1e-100, "p": 0.5, "s": 1e150, "sign": 1}),
     "problems[0]: b=1, T=16: the base stepsize underflows to 0"),
    ("problems-acc_gamma_T_inf", one_problem(SPIKE, TINY_H, T_grid=[4]),
     "problems[0]: b=1, T=4: the last stepsize gamma * T overflows"),
    ("problems-sgd_step_inf",
     one_problem(SPIKE, TINY_H, algorithm="sgd", T_grid=[4]),
     "problems[0]: b=1, T=4: the SGD step min(1 / (2 H), eta) must be "
     "finite and positive, got inf"),
    # the plan's one stage of 784 steps has gamma = 5.3e305
    ("problems-restart_stage_gamma_T_inf", one_problem("growth", {
        "d": 2, "r": 1, "lam": 1e-310, "H": 1e-310, "Delta": 1e-10},
        algorithm="restarted", T_grid=[1000]),
     "problems[0]: b=1, T=1000: the last stepsize gamma * T overflows"),
    # lam / H = 1e-30 puts the first stage's horizon past 2**63
    ("problems-restart_stage_past_2_63", one_problem("growth", {
        "d": 2, "r": 1, "lam": 1e-30, "H": 1.0, "Delta": 1.0},
        algorithm="restarted", T_grid=[1000]),
     "problems[0]: b=1, T=1000: the error bound exceeds eps past 2**63 "
     "steps"),
    # the first stage of this design takes 985 steps at b=8, so T=2 holds
    # no stage; found by TestSpecFuzz once it ran what it accepts
    ("T_grid-below_first_restart_stage", spec(
        algorithm="restarted", b_grid=[8], T_grid=[2, 4096],
        problems=[SLOW_GROWTH_PROBLEM]),
     "problems[0]: b=8, T=2: budget T=2 is below the first stage's 985 "
     "iterations"),
    # T=400 plans one stage; a larger budget plans more, and a late stage's
    # target e**-t * Delta underflows to 0
    ("T_grid-restart_target_underflows", one_problem(
        "growth", dict(GROWTH_PARAMS, Delta=1e-300), algorithm="restarted",
        b_grid=[8], T_grid=[400, 30000]),
     "problems[0]: b=8, T=30000: eps and B_sq must be positive"),
    ("algorithm-unknown", spec(algorithm="adam"),
     "algorithm: must be one of ('acc_mb_sgd', 'sgd', 'restarted'), "
     "got 'adam'"),
    # the grids and counts: a schedule or plan converts b and T to floats,
    # exact up to 2**53; a repeated entry would run its cells twice, and
    # count their seeds twice; a negative seed keys streams as 2**64 - it
    *((f"{key}-{name}", spec(**{key: value}),
       f"{key}: {error}".format(value=value))
      for key, name, value, error in [
          ("b_grid", "empty", [], "empty grid"),
          ("b_grid", "bool", [True], POSITIVE),
          ("T_grid", "bool", [16, True], POSITIVE),
          ("b_grid", "float", [2.0], POSITIVE),
          ("T_grid", "zero", [16, 0], POSITIVE),
          ("b_grid", "repeated", [2, 2], DISTINCT),
          ("T_grid", "repeated", [16, 8, 16], DISTINCT),
          ("eps_targets", "repeated", [0.5, 0.5], DISTINCT),
          ("eps_targets", "repeated_int_and_float", [1, 1.0], DISTINCT),
          # a first entry that loads must not hide a later one
          ("b_grid", "past_float", [8, 10**400], AT_MOST_2_53),
          ("T_grid", "past_float", [8, 10**400], AT_MOST_2_53),
          ("b_grid", "past_2_53", [2**53 + 1], AT_MOST_2_53),
          ("T_grid", "past_2_53", [2**53 + 1], AT_MOST_2_53),
          ("eps_targets", "nan_and_bool", [math.nan, True], FINITE),
          ("eps_targets", "bool", [True], FINITE),
          ("eps_targets", "inf", [math.inf], FINITE),
          ("eps_targets", "zero", [0.0], FINITE),
          ("n_seeds", "bool", True, COUNT),
          ("n_seeds", "float", 2.0, COUNT),
          ("n_seeds", "negative", -3, COUNT),
          ("workers", "bool", True, COUNT),
          ("workers", "float", 2.0, COUNT),
          ("workers", "zero", 0, COUNT),
          ("base_seed", "bool", False, SEED),
          ("base_seed", "negative", -1, SEED),
          ("base_seed", "below_minus_2_64", -2**64, SEED)]),
    ("output_dir-empty", spec(output_dir=""),
     "output_dir: must be a non-empty string"),
    # refused at load: the run's first mkdir named neither field nor spec
    ("output_dir-nul", lambda raw: dict(raw, output_dir=raw["output_dir"]
                                        + "\0"),
     "output_dir: must be a non-empty string without NUL"),
    ("overrides-list", spec(algorithm="sgd", overrides=[["eta", 0.25]]),
     "overrides: must be a JSON object"),
    # each eta is checked under ``sgd``, which reads it, so the value
    # check, not the unread-key check, refuses it
    *((f"overrides-eta_{name}", spec(algorithm="sgd", overrides={"eta": eta}),
       f"overrides.eta: must be a finite number > 0, got {eta!r}")
      for name, eta in [("string", "fast"), ("zero", 0.0), ("int_zero", 0),
                        ("minus_one", -1.0), ("negative", -0.1),
                        ("inf", math.inf), ("nan", math.nan),
                        ("bool", True), ("null", None),
                        ("past_float", 10**400)]),
    # an unread key would change nothing but the spec hash
    *((f"overrides-unread_{algorithm}_{'_'.join(sorted(overrides))}",
       spec(algorithm=algorithm, overrides=overrides),
       f"overrides: {algorithm} does not read "
       f"{sorted(set(overrides) - set(READS[algorithm]))}; it reads "
       f"{READS[algorithm]}")
      for algorithm, overrides in [
          ("acc_mb_sgd", {"stepsize": 1.0}),
          ("acc_mb_sgd", {"eta": 0.25}),
          ("acc_mb_sgd", {"B": 2.0, "theta": 2.0}),
          ("sgd", {"lstar": 0.0}),
          ("sgd", {"eta": 0.25, "theta": 2.0}),
          ("restarted", {"B": 2.0}),
          ("restarted", {"eta": 0.25, "theta": 2.0, "step": 1}),
          # with the rows above, each of B, lstar and theta on each
          # algorithm: runs take B and Lstar from the problem's certified
          # constants, and restart plans take theta = e
          ("acc_mb_sgd", {"lstar": 0.0}),
          ("sgd", {"B": 2.0}),
          ("restarted", {"lstar": 0.0})]),
]


class TestRefusedSpecs:
    """A malformed spec is refused when it is validated, and never runs."""

    @pytest.mark.parametrize("edit,message",
                             [row[1:] for row in REFUSED_SPECS],
                             ids=[row[0] for row in REFUSED_SPECS])
    def test_refused(self, tmp_path, capsys, edit, message):
        path = tmp_path / "spec.json"
        write_document(path, edit(minimal_spec(tmp_path)))
        before = sorted(tmp_path.iterdir())
        message = message.format(path=path)
        with pytest.raises(SpecError) as exc:
            load_spec(path)
        assert message in str(exc.value)
        assert cli_main(["run", str(path)]) == 2
        # the run prints what loading raised, and nothing on stdout
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")
        # no output directory, nor anything else, appears
        assert sorted(tmp_path.iterdir()) == before

    def test_rows_cover_every_spec_field(self):
        # a new spec field or problem-config key lands with its refusal
        names = [f.name for f in fields(ExperimentSpec)]
        ids = [row[0] for row in REFUSED_SPECS]
        assert len(set(ids)) == len(ids)
        assert [name for name in names + ["family", "params", "seed"]
                if not any(i.startswith(name + "-") for i in ids)] == []


class TestRunExperiment:
    @pytest.mark.parametrize("configs,n_builds", [
        ([GROWTH_PROBLEM], 1),
        ([{"family": "growth", "params": GROWTH_PROBLEM["params"]}], 2),
        ([SIGN_PROBLEM, GROWTH_PROBLEM], 4)],
        ids=["one_complete", "one_with_default_seed", "two_complete"])
    def test_builds_per_load_and_run(self, tmp_path, monkeypatch, configs,
                                     n_builds):
        # loading builds every problem and the run each one again; the
        # first cell reuses the load's build only for one complete config,
        # the benchmark's case
        built, build = [], problems._build
        monkeypatch.setattr(problems, "_build",
                            lambda cfg: built.append(cfg) or build(cfg))
        problems._built.cache_clear()
        raw = minimal_spec(tmp_path, problems=configs, b_grid=[1, 2],
                           T_grid=[8, 16], n_seeds=2)
        manifest = run_experiment(load_spec(write_spec(tmp_path, raw)))
        problems._built.cache_clear()
        assert manifest["failures"] == []
        assert len(built) == n_builds

    def test_single_cell_artifacts(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, minimal_spec(tmp_path)))
        manifest = run_experiment(spec)
        names = sorted(manifest["artifacts"])
        assert len(names) == 3  # trace CSV, header JSON, summary
        assert any(n.endswith(".csv") and n != "summary.csv" for n in names)
        assert "summary.csv" in names
        assert (tmp_path / "out" / "manifest.json").exists()
        assert manifest["failures"] == []

    def test_rerun_reproduces_hashes(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, minimal_spec(tmp_path)))
        m1 = run_experiment(spec)
        m2 = run_experiment(spec)
        assert m1["content_hash"] == m2["content_hash"]
        assert m1["artifacts"] == m2["artifacts"]

    def test_parallel_matches_serial(self, tmp_path):
        raw = minimal_spec(tmp_path, b_grid=[1, 2], T_grid=[8, 16], n_seeds=3)
        raw["output_dir"] = str(tmp_path / "serial")
        serial = run_experiment(load_spec(write_spec(tmp_path, raw, "s.json")))
        raw["output_dir"] = str(tmp_path / "parallel")
        raw["workers"] = 3
        parallel = run_experiment(
            load_spec(write_spec(tmp_path, raw, "p.json")))
        assert serial["artifacts"] == parallel["artifacts"]
        # each digest is of the bytes on disk, not of what was meant
        for run, manifest in (("serial", serial), ("parallel", parallel)):
            assert manifest["artifacts"] == {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (tmp_path / run).iterdir()
                if p.name != "manifest.json"}

    def test_cell_failure_recorded_without_aborting(self, tmp_path,
                                                    monkeypatch):
        fail_runs_at_T1(monkeypatch)
        raw = minimal_spec(tmp_path, T_grid=[1, 600], b_grid=[8])
        manifest = run_experiment(load_spec(write_spec(tmp_path, raw)))
        assert len(manifest["failures"]) == 1
        assert "T=1" in manifest["failures"][0]["error"]
        assert any("T600" in n for n in manifest["artifacts"])

    def test_unknown_algorithm_in_a_built_spec_fails_its_cells(self,
                                                                tmp_path):
        spec = replace(load_spec(write_spec(tmp_path, minimal_spec(
            tmp_path))), algorithm="adam")
        (failure,) = run_experiment(spec)["failures"]
        assert failure["error"] == "ValueError: unknown algorithm 'adam'"

    @pytest.mark.parametrize("algorithm", sorted(harness._ALGORITHMS))
    def test_cell_run_covers_every_algorithm(self, algorithm, monkeypatch):
        # the run looks up its optimizers.run_* when it is called, so a
        # wrapper installed after the step rule was made still sees it
        run = harness._cell_run(problem_from_config(GROWTH_PROBLEM),
                                algorithm, 8, 2048, {})
        name, calls = f"run_{algorithm}", []
        real = getattr(optimizers, name)
        monkeypatch.setattr(optimizers, name,
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        _, trace = run(3)
        assert calls == [1]
        assert (trace.header["algorithm"], trace.header["b"],
                trace.header["seed"]) == (algorithm, 8, 3)
        assert not trace.aborted

    def test_restart_plan_schedules_made_once_per_plan(self, tmp_path,
                                                       monkeypatch):
        # loading plans each b once, and so does its run; the run reuses
        # its plan's schedules, where it used to make them all again
        counts = {"make_schedule": 0, "stage_budget": 0}
        for name in counts:
            real = getattr(optimizers, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(optimizers, name, counted)
        problem = {"family": "growth",
                   "params": {"d": 64, "r": 8, "lam": 0.05, "H": 1.0,
                              "Delta": 1.0},
                   "seed": 5}
        spec = load_spec(write_spec(tmp_path, minimal_spec(
            tmp_path, algorithm="restarted", problems=[problem],
            b_grid=[8, 32], T_grid=[8192])))
        assert counts == {"make_schedule": 19, "stage_budget": 21}
        assert run_experiment(spec)["failures"] == []
        assert counts == {"make_schedule": 38, "stage_budget": 42}

    def test_abort_at_first_step_reported_as_aborted_cell(self, tmp_path,
                                                          monkeypatch):
        stub = make_sign_vector_problem(n=2, H=1.0, B=1.0,
                                        sigma_signs=[1, -1, 1, 1])
        stub.batch_grad_mean = lambda w, batch: np.full(stub.d, np.nan)
        monkeypatch.setattr(harness, "problem_from_config", lambda cfg: stub)
        manifest = run_experiment(load_spec(write_spec(tmp_path,
                                                       minimal_spec(tmp_path))))
        assert manifest["failures"] == []
        header = json.loads(next(
            (tmp_path / "out" / n).read_text()
            for n in manifest["artifacts"] if n.endswith(".json")))
        assert header["aborted"] is True
        assert "non-finite gradient at step t=0" in header["abort_reason"]
        assert math.isnan(header["final_subopt"])

    def test_aborted_cells_stay_out_of_the_tables(self, tmp_path,
                                                  monkeypatch):
        spec = load_spec(write_spec(tmp_path, minimal_spec(
            tmp_path, n_seeds=2, eps_targets=[0.5])))
        built = []

        def build(cfg):
            # the first cell's problem (seed 0) gives NaN gradients from
            # step 3 on; the kept build is shared, so the fault goes on a copy
            prob = copy.copy(problem_from_config(cfg))
            if not built:
                exact, calls = prob.batch_grad_mean, [0]

                def batch_grad_mean(w, batch):
                    calls[0] += 1
                    g = exact(w, batch)
                    return g if calls[0] <= 3 else np.full_like(g, np.nan)

                prob.batch_grad_mean = batch_grad_mean
            built.append(prob)
            return prob

        monkeypatch.setattr(harness, "problem_from_config", build)
        manifest = run_experiment(spec)
        assert manifest["failures"] == []
        out = tmp_path / "out"
        headers = {n: json.loads((out / n).read_text())
                   for n in manifest["artifacts"] if n.endswith(".json")}
        assert len(headers) == 2  # the aborted cell's files are listed
        aborted = next(h for n, h in headers.items() if n.endswith("_s0.json"))
        completed = next(h for n, h in headers.items()
                         if n.endswith("_s1.json"))
        assert aborted["aborted"] and not completed["aborted"]
        assert "step t=3" in aborted["abort_reason"]
        row = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert row[5] == "1"  # n_seeds: completed seeds only
        assert float(row[6]) == completed["final_subopt"]
        speedup = (out / "speedup.csv").read_text().splitlines()
        assert len(speedup) == 2
        assert speedup[1].split(",")[-1] == "1"  # the same group's count

    def test_speedup_table_written_and_monotone(self, tmp_path):
        raw = minimal_spec(
            tmp_path,
            problems=[{"family": "interpolation_least_squares",
                       "params": {"d": 32, "n_atoms": 16, "H": 1.0, "B": 1.0},
                       "seed": 334}],
            b_grid=[4, 16, 64], T_grid=[64, 128, 256, 512], n_seeds=10,
            eps_targets=[0.02])
        manifest = run_experiment(load_spec(write_spec(tmp_path, raw)))
        assert "speedup.csv" in manifest["artifacts"]
        rows = (tmp_path / "out" / "speedup.csv").read_text().strip().splitlines()
        tte = [int(r.split(",")[3]) for r in rows[1:] if r.split(",")[3]]
        assert len(tte) >= 2
        assert all(b <= a for a, b in zip(tte, tte[1:]))

    def test_cells_join_headers_by_problem_hash(self, tmp_path):
        # the spec leaves the problem's seed and spread to their defaults
        problem = {"family": "noiseless_quadratic",
                   "params": {"d": 4, "H": 1, "B": 1.0}}
        spec = load_spec(write_spec(tmp_path, minimal_spec(
            tmp_path, problems=[problem])))
        manifest = run_experiment(spec)
        name = next(n for n in manifest["artifacts"] if n.endswith(".json"))
        header = json.loads((tmp_path / "out" / name).read_text())
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert name.startswith("0e6f6172f193d97f_")
        assert header["problem_hash"] == "0e6f6172f193d97f"
        assert summary.splitlines()[1].startswith("0e6f6172f193d97f,")
        assert spec_hash(load_spec(write_canonical(
            spec, tmp_path / "canon.json"))) == spec_hash(spec)

    def test_sgd_cells_with_eta_override(self, tmp_path):
        raw = minimal_spec(tmp_path, algorithm="sgd",
                           overrides={"eta": 0.25})
        manifest = run_experiment(load_spec(write_spec(tmp_path, raw)))
        assert manifest["failures"] == []
        header = json.loads(next(
            (tmp_path / "out" / n).read_text()
            for n in manifest["artifacts"] if n.endswith(".json")))
        assert header["eta"] == 0.25


    def test_timing_kept_out_of_content_hash(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, minimal_spec(
            tmp_path, b_grid=[1, 2], workers=2)))
        m1 = run_experiment(spec)
        m2 = run_experiment(spec, workers=1)
        assert m1["content_hash"] == m2["content_hash"]
        for m in (m1, m2):
            stems = {n[:-len(".csv")] for n in m["artifacts"]
                     if n.endswith(".csv") and n != "summary.csv"}
            assert set(m["timing"]) == stems
            for t in m["timing"].values():
                assert t["wall_s"] > 0 and t["steps_per_s"] > 0
        on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert on_disk["timing"] == m2["timing"]


class TestCrashSafeWrites:
    """An interrupted write leaves no file under the artifact's name."""

    RAW = {"b_grid": [1, 2], "eps_targets": [0.5]}

    def names(self, out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    @pytest.mark.parametrize("victim", [
        "_b1_T16_s0.csv", "_b2_T16_s0.json", "summary.csv", "speedup.csv",
        "manifest.json"])
    def test_interrupted_write_then_rerun(self, tmp_path, monkeypatch,
                                          victim):
        spec = load_spec(write_spec(tmp_path, minimal_spec(tmp_path,
                                                           **self.RAW)))
        out = Path(spec.output_dir)
        run_experiment(spec)
        want = self.names(out)
        assert sum(n.endswith(victim) for n in want) == 1
        shutil.rmtree(out)

        real_write_text = Path.write_text

        def interrupted(path, data, *args, **kwargs):
            if victim in path.name:
                # half the bytes reach the disk, then the run is killed
                real_write_text(path, data[:len(data) // 2])
                raise KeyboardInterrupt
            return real_write_text(path, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec)
        # neither the final name nor the temporary one is left behind
        assert not any(victim in n for n in self.names(out))
        monkeypatch.undo()

        run_experiment(spec)
        got = self.names(out)
        assert sorted(got) == sorted(want)
        for name in want:
            if name != "manifest.json":
                assert got[name] == want[name]
        manifest = json.loads(got["manifest.json"])
        assert manifest["content_hash"] == \
            json.loads(want["manifest.json"])["content_hash"]


    @pytest.mark.parametrize("writer", ["emit_plotdata", "verify_report"])
    def test_interrupted_rename_leaves_nothing(self, tmp_path, monkeypatch,
                                               capsys, writer):
        spec = load_spec(write_spec(tmp_path, minimal_spec(tmp_path)))
        run_experiment(spec)
        target = tmp_path / "written.txt"
        if writer == "verify_report":
            def write():
                # the report printed on stdout is the one written
                capsys.readouterr()
                cli_main(["verify", "lemma3", "--report", str(target)])
                return capsys.readouterr().out
        else:
            def write():
                return emit_plotdata(
                    "rate_curve", [Path(spec.output_dir) / "summary.csv"],
                    target)
        before = sorted(p.name for p in tmp_path.iterdir())

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            write()
        # neither the final name nor the temporary one is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        monkeypatch.undo()

        text = write()
        assert target.read_bytes() == text.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            before + [target.name])


class TestDyingWorker:
    def test_lost_cells_are_failures_and_the_sweep_finishes(
            self, tmp_path, monkeypatch, capsys):
        path = write_spec(tmp_path, minimal_spec(tmp_path, b_grid=[1, 2, 3, 4],
                                                 workers=2))
        stems = [c["stem"] for c in harness._cells_of(load_spec(path))]
        victim = stems[1]
        run_cell = harness._run_cell

        def dying(cell):
            if cell["stem"] == victim:
                os._exit(1)
            return run_cell(cell)

        # the pool's forked workers inherit the patched module
        monkeypatch.setattr(harness, "_run_cell", dying)
        assert cli_main(["run", str(path)]) == 3
        assert f"cell failed: {victim}: BrokenProcessPool: " in \
            capsys.readouterr().err
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert (out / "summary.csv").exists()
        # the cells queued behind the dying one are rerun: only the victim
        # fails, and every other cell is as a serial run writes it
        assert [f["stem"] for f in manifest["failures"]] == [victim]
        assert manifest["failures"][0]["error"].startswith(
            "BrokenProcessPool: ")
        assert manifest["timing"][victim]["steps_per_s"] == 0
        assert set(manifest["timing"]) == set(stems)
        monkeypatch.undo()
        serial = run_experiment(load_spec(path), workers=1)
        cells = {n: h for n, h in serial["artifacts"].items()
                 if n != "summary.csv"}
        assert len(cells) == 2 * len(stems)
        assert {n: h for n, h in manifest["artifacts"].items()
                if n != "summary.csv"} == {
            n: h for n, h in cells.items() if not n.startswith(victim)}

    def test_worker_dying_before_every_cell_is_queued(self, tmp_path,
                                                      monkeypatch):
        spec = load_spec(write_spec(tmp_path, minimal_spec(
            tmp_path, b_grid=[1, 2, 3, 4], workers=2)))
        stems = [c["stem"] for c in harness._cells_of(spec)]
        run_cell = harness._run_cell

        def dying(cell):
            if cell["stem"] == stems[0]:
                os._exit(1)
            return run_cell(cell)

        class SlowSubmit(ProcessPoolExecutor):
            # the first cell's worker is dead before the next submit
            def submit(self, fn, cell):
                future = super().submit(fn, cell)
                if cell["stem"] == stems[0]:
                    wait([future])
                return future

        monkeypatch.setattr(harness, "_run_cell", dying)
        # the harness imports the pool from ``concurrent.futures`` when it
        # runs in parallel
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            SlowSubmit)
        manifest = run_experiment(spec)
        assert [f["stem"] for f in manifest["failures"]] == [stems[0]]
        assert len(manifest["artifacts"]) == 2 * 3 + 1


class TestPoolSize:
    """A forking pool starts all its processes at its first submit, so it
    holds no more than there are cells or usable CPUs."""

    @pytest.mark.parametrize("workers,cpus,size", [
        (5000, 2, 2), (5000, 64, 4), (3, 64, 3), (5000, None, 3)])
    def test_pool_is_capped_by_cells_and_cpus(self, tmp_path, monkeypatch,
                                              workers, cpus, size):
        spec = load_spec(write_spec(tmp_path, minimal_spec(
            tmp_path, b_grid=[1, 2, 3, 4], workers=workers)))
        serial = run_experiment(spec, workers=1)
        sizes = []

        class InlinePool:
            # records its size and runs each cell at submit: no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, cell):
                future = Future()
                future.set_result(fn(cell))
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            InlinePool)
        if cpus is None:   # no affinity call: the CPU count, here 3
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        else:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)))
        manifest = run_experiment(spec)
        assert sizes == [size]
        assert manifest["failures"] == []
        assert manifest["content_hash"] == serial["content_hash"]


# `optaccel run` in a fresh interpreter; the last line of its output lists
# which of the process pool's modules it loaded
FRESH_RUN = """
import sys
from optaccel.cli import main
code = main(["run"] + sys.argv[1:])
print(code, [m for m in ("concurrent.futures.process", "multiprocessing")
             if m in sys.modules])
"""


# a sweep with quartiles and a speedup table, then each plotdata kind
FRESH_SWEEP = """
import json, sys
from pathlib import Path
from optaccel.cli import main
spec, out = sys.argv[1], Path(sys.argv[2])
codes = [main(["run", spec])]
names = json.loads((out / "manifest.json").read_text())["artifacts"]
traces = [str(out / n) for n in sorted(names) if n.endswith(".csv")
          and n not in ("summary.csv", "speedup.csv")]
for kind, inputs in (("rate_curve", [str(out / "summary.csv")]),
                     ("speedup_curve", [str(out / "speedup.csv")]),
                     ("stage_decay", traces)):
    codes.append(main(["plotdata", kind, *inputs,
                       "--out", str(out.parent / (kind + ".csv"))]))
print(codes, "numpy.ma" in sys.modules)
"""


# two suites whose medians cover curves and plain lists of finals
FRESH_VERIFY = """
import sys
from optaccel.cli import main
codes = [main(["verify", name]) for name in ("rate_restart", "sigma_star")]
print(codes, "numpy.ma" in sys.modules)
"""


class TestFreshInterpreter:
    # pytest's own process has ``multiprocessing`` loaded already

    def run_fresh(self, *argv):
        src = Path(harness.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-c", FRESH_RUN, *argv], capture_output=True,
            text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(src)))
        assert run.returncode == 0, run.stderr
        return run.stdout.splitlines()[-1]

    def test_cli_import_leaves_the_suites_unloaded(self):
        src = Path(harness.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-c", "import sys, optaccel.cli; "
             "print('optaccel.verify' in sys.modules)"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"

    def test_serial_run_never_imports_the_process_pool(self, tmp_path):
        path = write_spec(tmp_path, minimal_spec(tmp_path, b_grid=[1, 2]))
        assert self.run_fresh(str(path)) == "0 []"
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_sweep_and_plotdata_never_import_numpy_ma(self, tmp_path):
        # the summary's quartiles and the speedup table's medians, as
        # ``np.median`` and ``np.quantile`` give them, without their
        # masked-array checks
        raw = minimal_spec(tmp_path, algorithm="restarted", b_grid=[8, 16],
                           T_grid=[1300, 2000], n_seeds=3,
                           eps_targets=[0.05])
        raw["problems"] = [GROWTH_PROBLEM]
        path = write_spec(tmp_path, raw)
        src = Path(harness.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-c", FRESH_SWEEP, str(path),
             str(tmp_path / "out")], capture_output=True, text=True,
            timeout=300, env=dict(os.environ, PYTHONPATH=str(src)))
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"
        decay = (tmp_path / "stage_decay.csv").read_text().splitlines()
        assert len(decay) > 1 + 12  # several stages in each of 12 traces

    def test_verify_never_imports_numpy_ma(self):
        # the per-stage and per-checkpoint medians of ``rate_restart`` and
        # the 1-D medians of ``sigma_star`` are ``analysis._median``'s
        src = Path(harness.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-c", FRESH_VERIFY], capture_output=True,
            text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(src)))
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[0, 0] False"

    def test_first_parallel_run_writes_the_serial_artifacts(self, tmp_path):
        path = write_spec(tmp_path, minimal_spec(tmp_path, b_grid=[1, 2, 3, 4],
                                                 eps_targets=[0.5]))
        serial = run_experiment(load_spec(path), workers=1)
        assert self.run_fresh(str(path), "--workers", "2") == \
            "0 ['concurrent.futures.process', 'multiprocessing']"
        parallel = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert parallel["failures"] == []
        assert parallel["artifacts"] == serial["artifacts"]
        assert parallel["content_hash"] == serial["content_hash"]


SUMMARY_CSV = ("problem_hash,family,algorithm,b,T,n_seeds,median_subopt,"
               "q25_subopt,q75_subopt,min_subopt,max_subopt\n"
               "0123,growth,sgd,1,16,1,0.5,0.25,0.75,0.125,1e-05\n")


class TestPlotdata:
    def run_small(self, tmp_path, **kw):
        raw = minimal_spec(tmp_path, **kw)
        spec = load_spec(write_spec(tmp_path, raw))
        return spec, run_experiment(spec)

    def test_rate_curve_one_row_per_T(self, tmp_path):
        spec, _ = self.run_small(tmp_path, T_grid=[8, 16, 32])
        out = tmp_path / "rate.csv"
        emit_plotdata("rate_curve", [Path(spec.output_dir) / "summary.csv"],
                      out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3

    def test_speedup_curve_preserves_b_order(self, tmp_path):
        spec, _ = self.run_small(tmp_path, b_grid=[1, 2, 4],
                                 T_grid=[8, 16, 32, 64, 128],
                                 eps_targets=[0.02])
        out = tmp_path / "speed.csv"
        emit_plotdata("speedup_curve",
                      [Path(spec.output_dir) / "speedup.csv"], out)
        lines = out.read_text().strip().splitlines()[1:]
        bs = [int(ln.split(",")[1]) for ln in lines]
        assert bs == sorted(bs)

    def test_stage_decay_matches_trace_markers(self, tmp_path):
        raw = minimal_spec(tmp_path, algorithm="restarted", b_grid=[8],
                           T_grid=[1300])
        raw["problems"] = [GROWTH_PROBLEM]
        spec = load_spec(write_spec(tmp_path, raw))
        manifest = run_experiment(spec)
        trace_name = next(n for n in manifest["artifacts"]
                          if n.endswith(".csv") and n not in
                          ("summary.csv", "speedup.csv"))
        trace_path = Path(spec.output_dir) / trace_name
        out = tmp_path / "decay.csv"
        emit_plotdata("stage_decay", [trace_path], out)
        got = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        trace = trace_from_csv(trace_path.read_text())
        expected = trace.stage_end_subopts()
        assert len(got) == len(expected) >= 2
        for row, (stage, t_end, subopt) in zip(got, expected):
            assert int(row[1]) == stage and int(row[2]) == t_end
            assert float(row[3]) == pytest.approx(subopt, rel=1e-15)

    def test_missing_input_named(self, tmp_path):
        with pytest.raises(ValueError, match="nope.csv"):
            emit_plotdata("rate_curve", [tmp_path / "nope.csv"],
                          tmp_path / "x.csv")

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown plotdata kind"):
            emit_plotdata("violin", [], tmp_path / "x.csv")

    @pytest.mark.parametrize("kind,text,error", [
        # a field short of the header, and one past it
        ("rate_curve", SUMMARY_CSV + "0123,growth,sgd,1,16,1\n",
         "line 3: 6 fields where the header has 11"),
        ("rate_curve", SUMMARY_CSV.replace(",1e-05\n", ",1e-05,7\n"),
         "line 2: 12 fields where the header has 11"),
        ("rate_curve", SUMMARY_CSV.replace("family,", ""),
         "line 1: the header lacks column(s) ['family']"),
        ("speedup_curve", "problem_hash,eps,b\n0123,0.5,4\n",
         "line 1: the header lacks column(s) ['T_to_eps']"),
        ("rate_curve", "", "the header lacks column(s)"),
        ("stage_decay", "t,norm_w,norm_wag,subopt,grad_noise_sq,stage\n"
         "1,0.5\n", "line 2: 2 fields where the header has 6"),
        ("stage_decay", "t,norm_w\n1,0.5\n",
         "line 1: the header lacks column(s) ['norm_wag'"),
        ("stage_decay", "t,norm_w,norm_wag,subopt,grad_noise_sq,stage\n"
         "1,0,0,0.5,0,1\n1,0,0,0.25,0,1\n",
         "trace records must be strictly increasing in t"),
        ("stage_decay", "t,norm_wag,norm_w,subopt,grad_noise_sq,stage\n"
         "1,0,0,0.5,0,1\n", "not a trace CSV: the header must be"),
        ("stage_decay", "t,norm_w,norm_wag,subopt,grad_noise_sq,stage\n"
         "2.7,0,0,0.5,0,1.9\n", "line 2: ['t', 'stage'] must be integers"),
        # a NaN t cast to an integer wraps past the increasing check
        ("stage_decay", "t,norm_w,norm_wag,subopt,grad_noise_sq,stage\n"
         "1,0,0,0.5,0,1\n\nnan,0,0,0.25,0,1\n",
         "line 4: ['t'] must be integers"),
        # a plot table's fields are read as their column's type
        ("rate_curve", SUMMARY_CSV + "abc,growth,sgd,2.7,abc,1,nope,0.25,"
         "0.75,0,1\n", "line 3: ['b', 'T'] must be positive integers; "
         "['median_subopt'] must be numbers"),
        ("rate_curve", SUMMARY_CSV.replace(",1,16,", ",0,16,"),
         "line 2: ['b'] must be positive integers"),
        ("speedup_curve", "problem_hash,eps,b,T_to_eps,n_seeds\n"
         "abc,zz,0,-3,1\n", "line 2: ['eps'] must be numbers; ['b'] must "
         "be positive integers; ['T_to_eps'] must be empty or positive "
         "integers"),
        ("speedup_curve", "problem_hash,eps,b,T_to_eps,n_seeds\n"
         "abc,0.5,4,16.0,1\n",
         "line 2: ['T_to_eps'] must be empty or positive integers"),
        ("stage_decay", "t,norm_w,norm_wag,subopt,grad_noise_sq,stage\n"
         "1,abc,0,0.5,0,0\n", "line 2: ['norm_w'] must be numbers"),
        # a trace is numbered from t = 1, and a plain run is stage 0
        ("stage_decay", "t,norm_w,norm_wag,subopt,grad_noise_sq,stage\n"
         "-5,0,0,0.5,0,-2\n", "trace records start at t >= 1, got -5"),
        ("stage_decay", "t,norm_w,norm_wag,subopt,grad_noise_sq,stage\n"
         "0,0,0,0.5,0,0\n1,0,0,0.25,0,0\n",
         "trace records start at t >= 1, got 0"),
        ("stage_decay", "t,norm_w,norm_wag,subopt,grad_noise_sq,stage\n"
         "1,0,0,0.5,0,0\n2,0,0,0.25,0,-1\n",
         "trace stages must be >= 0, got -1")],
        ids=["short_row", "long_row", "no_family", "no_T_to_eps", "empty",
             "short_trace_row", "few_trace_columns", "repeated_t",
             "reordered_trace_columns", "fractional_t_and_stage", "nan_t",
             "summary_words", "zero_b", "speedup_words", "fractional_T_to_eps",
             "trace_word", "negative_t_and_stage", "zero_t", "negative_stage"])
    def test_malformed_input_named(self, tmp_path, capsys, kind, text, error):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(error)) as exc:
            emit_plotdata(kind, [path], tmp_path / "x.csv")
        assert str(path) in str(exc.value)
        assert cli_main(["plotdata", kind, str(path),
                         "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and error in err
        assert not (tmp_path / "x.csv").exists()

    def test_every_kind_reads_the_package_s_own_artifacts(self, tmp_path):
        # one eps no horizon reaches leaves its T_to_eps fields empty, and
        # a restarted cell gives a trace with several stages
        sweep = write_spec(tmp_path, minimal_spec(
            tmp_path, b_grid=[1, 4], T_grid=[8, 32], eps_targets=[0.05, 1e-12],
            output_dir=str(tmp_path / "sweep")))
        restart = write_spec(tmp_path, minimal_spec(
            tmp_path, problems=[GROWTH_PROBLEM], algorithm="restarted",
            b_grid=[8], T_grid=[1300], output_dir=str(tmp_path / "restart")),
            name="restart.json")
        assert cli_main(["run", str(sweep)]) == 0
        assert cli_main(["run", str(restart)]) == 0
        speedup = (tmp_path / "sweep" / "speedup.csv").read_text()
        assert ",1,,1\n" in speedup
        inputs = {
            "rate_curve": [tmp_path / "sweep" / "summary.csv",
                           tmp_path / "restart" / "summary.csv"],
            "speedup_curve": [tmp_path / "sweep" / "speedup.csv"],
            "stage_decay": list((tmp_path / "restart").glob("*_s0.csv"))}
        digests = {}
        for kind, paths in inputs.items():
            out = tmp_path / f"{kind}.csv"
            assert cli_main(["plotdata", kind, *map(str, paths),
                             "--out", str(out)]) == 0
            digests[kind] = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
        assert len((tmp_path / "stage_decay.csv").read_text().split()) == 4
        assert digests == {"rate_curve": "2ee898d9c7e01c4b",
                           "speedup_curve": "0e9983047fa186d3",
                           "stage_decay": "2a3922cf20d17298"}

    def test_well_formed_input_still_read(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(SUMMARY_CSV)
        assert emit_plotdata("rate_curve", [path], tmp_path / "x.csv") == (
            "family,algorithm,b,T,median_subopt,q25_subopt,q75_subopt\n"
            "growth,sgd,1,16,0.5,0.25,0.75\n")


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["--help"], ["run", "--help"], ["verify", "--help"],
        ["plotdata", "--help"], ["schedule", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0

    def test_unknown_suite_is_usage_error(self, capsys):
        # ``run_suite`` is the one check of the name
        assert cli_main(["verify", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite 'nonsense'" in err
        assert str(sorted(SUITES)) in err and len(SUITES) == 7
        with pytest.raises(ValueError, match="unknown suite 'nope'"):
            run_suite("nope")

    def test_unknown_suite_message_is_unquoted(self, capsys):
        # reads like every other config error, not as a KeyError's repr
        assert cli_main(["verify", "nope"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown suite 'nope'; expected one of ")

    def test_missing_plotdata_input_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli_main(["plotdata", "rate_curve", str(tmp_path / "nope.csv"),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'nope.csv'}: FileNotFoundError: ")
        assert not out.exists()

    def test_run_and_schedule(self, tmp_path, capsys):
        path = write_spec(tmp_path, minimal_spec(tmp_path))
        assert cli_main(["run", str(path)]) == 0
        assert cli_main(["schedule", "--H", "1", "--b", "12", "--T", "4",
                         "--B", "1"]) == 0
        out = capsys.readouterr().out
        assert "gamma = 0.0833333333333" in out
        assert "3,1.5,0.333333333333" in out

    def test_schedule_lstar_sets_noise_term(self, capsys):
        argv = ["schedule", "--H", "1", "--b", "64", "--T", "1024",
                "--B", "1"]
        assert cli_main(argv + ["--lstar", "0.5"]) == 0
        gamma = make_schedule(1, 64, 1024, 1, 0.5).gamma
        assert gamma == math.sqrt(64 / 1024**3)  # the noise term binds
        assert capsys.readouterr().out.startswith(f"gamma = {gamma:.12g} ")
        # 2 H lstar overflows: no table with a stepsize of 0
        assert cli_main(argv + ["--lstar", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: noise_sq = 2 H lstar overflows a float" in captured.err
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--noise-sq", "1"])
        assert exc.value.code == 2

    def test_schedule_whose_radius_squared_overflows(self, capsys):
        # b B**2 overflows a float; the noise term is then infinite and
        # does not bind
        assert cli_main(["schedule", "--H", "1e-10", "--b", "1", "--T", "2",
                         "--B", "1e155", "--lstar", "1"]) == 0
        assert capsys.readouterr().out.startswith(
            "gamma = 138888888.889  (H=1e-10, b=1, T=2, B=1e+155, "
            "noise_sq=2e-10)\n")

    @pytest.mark.parametrize("flag,value", [
        ("--H", "nan"), ("--H", "inf"), ("--B", "inf"), ("--B", "nan"),
        ("--lstar", "nan"), ("--lstar", "inf")])
    def test_schedule_rejects_non_finite(self, flag, value, capsys):
        argv = {"--H": "1", "--b": "1", "--T": "3", "--B": "1", flag: value}
        assert cli_main(["schedule", *(x for kv in argv.items()
                                       for x in kv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_run_reports_cell_failures(self, tmp_path, monkeypatch):
        fail_runs_at_T1(monkeypatch)
        path = write_spec(tmp_path, minimal_spec(tmp_path, b_grid=[8],
                                                 T_grid=[1]))
        assert cli_main(["run", str(path)]) == 3

    def test_directory_as_plotdata_input_is_config_error(self, tmp_path,
                                                         capsys):
        out = tmp_path / "x.csv"
        assert cli_main(["plotdata", "rate_curve", str(tmp_path),
                         "--out", str(out)]) == 2
        assert f"{tmp_path}: IsADirectoryError" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_runtime_failure(self, tmp_path, capsys):
        # only input reads are config errors: an output path that is a
        # directory stays a runtime failure
        summary = tmp_path / "summary.csv"
        summary.write_text(SUMMARY_CSV)
        assert cli_main(["plotdata", "rate_curve", str(summary),
                         "--out", str(tmp_path)]) == 3
        assert "runtime failure: IsADirectoryError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["plotdata", "verify"])
    @pytest.mark.parametrize("parent,error", [
        ("missing", "FileNotFoundError"),
        ("summary.csv", "NotADirectoryError")])
    def test_output_under_missing_directory_or_file_is_runtime_failure(
            self, tmp_path, capsys, command, parent, error):
        # a failure to write an output names the path asked for, not the
        # temporary name it is written under first
        out = tmp_path / parent / "o.csv"
        summary = tmp_path / "summary.csv"
        summary.write_text(SUMMARY_CSV)
        argv = (["plotdata", "rate_curve", str(summary), "--out", str(out)]
                if command == "plotdata"
                else ["verify", "lemma3", "--report", str(out)])
        assert cli_main(argv) == 3
        assert f"runtime failure: {error}: cannot write {out}: " in \
            capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.csv"]

    @pytest.mark.parametrize("key", ["b_grid", "T_grid"])
    def test_grid_entry_of_2_53_is_accepted(self, tmp_path, key):
        # a schedule or restart plan converts b and T to floats, which hold
        # every integer up to 2**53 exactly
        raw = minimal_spec(tmp_path, **{key: [2**53]})
        assert getattr(load_spec(write_spec(tmp_path, raw)), key) == (2**53,)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys,
                                               workers):
        path = write_spec(tmp_path, minimal_spec(tmp_path))
        assert cli_main(["run", str(path), "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(SpecError, match="workers"):
            run_experiment(load_spec(path), workers=int(workers))

    def test_numpy_integer_workers_is_a_count(self, tmp_path):
        # the library's counts accept any Integral but bool, and so does
        # the harness
        spec = load_spec(write_spec(tmp_path, minimal_spec(
            tmp_path, b_grid=[1, 2])))
        serial = run_experiment(spec)
        assert run_experiment(spec, workers=np.int64(2))["content_hash"] == \
            serial["content_hash"]

    def test_boundary_overrides_accepted(self, tmp_path):
        for overrides in ({"eta": 5e-324}, {"eta": 1}):
            raw = minimal_spec(tmp_path, algorithm="sgd",
                               overrides=overrides, eps_targets=[1, 0.5])
            assert load_spec(write_spec(tmp_path, raw)).overrides == overrides

    def test_plotdata_cli(self, tmp_path):
        raw = minimal_spec(tmp_path, T_grid=[8, 16])
        path = write_spec(tmp_path, raw)
        assert cli_main(["run", str(path)]) == 0
        out = tmp_path / "rate.csv"
        assert cli_main(["plotdata", "rate_curve",
                         str(tmp_path / "out" / "summary.csv"),
                         "--out", str(out)]) == 0
        assert out.exists()

    def test_plotdata_missing_input_exit_code(self, tmp_path):
        assert cli_main(["plotdata", "rate_curve",
                         str(tmp_path / "ghost.csv"),
                         "--out", str(tmp_path / "o.csv")]) == 2

    def test_verify_prints_json_report_and_summary(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert cli_main(["verify", "lemma3", "--report",
                         str(report_path)]) == 0
        captured = capsys.readouterr()
        printed = json.loads(captured.out)
        assert printed["suite"] == "lemma3" and printed["passed"]
        assert "suite lemma3: PASS" in captured.err
        on_disk = json.loads(report_path.read_text())
        assert on_disk["content_hash"] == printed["content_hash"]


# -- spec fuzzing -------------------------------------------------------------

# numbers at and beyond the edges json.loads lets through
_EDGE_NUMBERS = st.sampled_from([
    0, -1, 1, 2**53 + 1, 2**64, -2**63, 10**400, 0.0, -0.0, 5e-324, 1e-300,
    1e300, 1.7976931348623157e308, -1e308, float("nan"), float("inf"),
    float("-inf")])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _EDGE_NUMBERS
    | st.text(max_size=8),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=3)),
    max_leaves=6)
# values a hand-written spec might hold, so that some mutants are accepted
_PLAUSIBLE = (st.integers(-2, 8) | st.floats(-1.0, 100.0)
              | st.lists(st.integers(1, 8), max_size=3))


# a valid value of each override
_OVERRIDE_VALUES = {"eta": 0.25}


@st.composite
def mutated_specs(draw):
    """A valid spec document with up to three of its values replaced or
    removed."""
    algorithm = draw(st.sampled_from(["acc_mb_sgd", "sgd", "restarted"]))
    # overrides the algorithm reads, so the unmutated spec is valid
    keys = draw(st.sampled_from([(), READS[algorithm]]))
    raw = {"problems": [draw(family_configs())], "algorithm": algorithm,
           "b_grid": [1, 4], "T_grid": [16], "n_seeds": 1, "base_seed": 0,
           "eps_targets": [0.1], "output_dir": "out",
           "overrides": {k: _OVERRIDE_VALUES[k] for k in keys},
           "workers": 1}
    if algorithm == "restarted":
        # a restart's first stage takes about 400 steps at b=4 when H/lam
        # is 2 (T_t scales as sqrt(H/lam)/b), so T=512 holds one
        H = draw(st.floats(0.1, 10.0))
        r = draw(st.integers(1, 2))
        raw.update(b_grid=[4, 8], T_grid=[512], problems=[{
            "family": "growth", "seed": draw(st.integers(0, 2**32)),
            "params": {"d": draw(st.integers(r + 1, 6)), "r": r,
                       "lam": H / r, "H": H,
                       "Delta": draw(st.floats(0.1, 10.0))}}])
    for _ in range(draw(st.integers(0, 3))):
        problem = raw["problems"][0] if (
            isinstance(raw.get("problems"), list) and raw["problems"]
            and isinstance(raw["problems"][0], dict)) else None
        params = problem.get("params") if problem else None
        holders = [raw] + [h for h in (problem, params, raw.get("overrides"))
                           if isinstance(h, dict)]
        holder = draw(st.sampled_from(holders))
        key = draw(st.sampled_from(sorted(holder)) | st.text(max_size=6)
                   if holder else st.text(max_size=6))
        if key in holder and draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(_PLAUSIBLE | _EDGE_NUMBERS | _JSON_VALUES)
    return raw


def assert_finite_problem(prob):
    meta = prob.meta
    for name in ("H", "B", "Lstar", "sigma_star_sq", "lam", "Delta"):
        assert math.isfinite(getattr(meta, name)), name
    assert np.isfinite(meta.wstar).all()
    assert np.isfinite(prob.second_moment).all()
    assert np.isfinite(prob.cross).all()


# an accepted spec that takes at most this many steps in all is also run
_FUZZ_RUN_STEPS = 4096


def fuzz_example(problem, algorithm, b_grid, T_grid):
    return {"problems": [problem], "algorithm": algorithm, "b_grid": b_grid,
            "T_grid": T_grid, "n_seeds": 1, "base_seed": 0,
            "eps_targets": [0.1], "output_dir": "out", "overrides": {},
            "workers": 1}


class TestSpecFuzz:
    """A malformed spec is a ``SpecError`` and exit 2; an accepted one
    builds finite problems, makes each cell's schedule, SGD step or
    restart plan, survives a canonical rewrite and ``load_spec`` and, if
    it is small, runs without a failed cell."""

    def check(self, path):
        try:
            spec = load_spec(path)
        except SpecError:
            # rejected specs never reach a run, so nothing is written
            assert cli_main(["run", str(path)]) == 2
            return
        for cfg in spec.problems:
            problem = problem_from_config(cfg)
            assert_finite_problem(problem)
            meta = problem.meta
            # what a cell makes before its first step, whatever its size
            for b in spec.b_grid:
                for T in spec.T_grid:
                    if spec.algorithm == "acc_mb_sgd":
                        make_schedule(meta.H, b, T, meta.B, meta.Lstar)
                    elif spec.algorithm == "sgd":
                        sgd_step(meta.H, spec.overrides.get("eta"))
                    else:
                        make_budget_plan(problem, b, T)
        assert spec_hash(load_spec(write_canonical(
            spec, path.with_name("canon.json")))) == spec_hash(spec)
        steps = (len(spec.problems) * len(spec.b_grid) * sum(spec.T_grid)
                 * spec.n_seeds)
        if steps <= _FUZZ_RUN_STEPS:
            out = path.with_name("out")
            manifest = run_experiment(replace(spec, output_dir=str(out)),
                                      workers=1)
            assert manifest["failures"] == []

    @settings(max_examples=300, deadline=None)
    @given(mutated_specs())
    # accepted by validation once, and then failing every cell at T=2 or
    # every cell of the spike
    @example(fuzz_example(SLOW_GROWTH_PROBLEM, "restarted", [8], [2, 1024]))
    # accepted once on its first horizon, and then failing to schedule
    # the second
    @example(fuzz_example({"family": "interpolation_least_squares",
                           "seed": 0, "params": {"d": 8, "n_atoms": 4,
                                                 "H": 1.0, "B": 1.0}},
                          "acc_mb_sgd", [1], [16, 10**400]))
    @example(fuzz_example({"family": "gaussian_spike", "seed": 0, "params": {
        "H": 0.0, "B": 1.0, "p": 0.5, "s": 1.0, "sign": 1}},
        "acc_mb_sgd", [1], [16]))
    @example(fuzz_example({"family": "gaussian_spike", "seed": 0, "params": {
        "H": 1.0, "B": 0.0, "p": 0.5, "s": 1.0, "sign": 1}},
        "acc_mb_sgd", [1], [16]))
    def test_mutated_documents(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(raw))
            self.check(path)

    @settings(max_examples=200, deadline=None)
    @given(mutated_specs(), st.data())
    def test_damaged_text(self, raw, data):
        text = json.dumps(raw).encode()
        cut = data.draw(st.integers(0, len(text)))
        junk = data.draw(st.binary(max_size=8))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_bytes(text[:cut] + junk + text[cut:])
            self.check(path)
