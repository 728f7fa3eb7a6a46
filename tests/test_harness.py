"""Spec validation, experiment execution, manifests, plotdata, CLI."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from optaccel import harness, make_sign_vector_problem
from optaccel.cli import main as cli_main
from optaccel.harness import (ExperimentSpec, SpecError, emit_plotdata,
                              load_spec, run_experiment, save_spec, spec_hash)
from optaccel.trace import trace_from_csv

SIGN_PROBLEM = {"family": "sign_vector",
                "params": {"n": 2, "H": 1.0, "B": 1.0,
                           "sigma_signs": [1, -1, 1, 1]},
                "seed": 0}
GROWTH_PROBLEM = {"family": "growth",
                  "params": {"d": 6, "r": 3, "lam": 0.25, "H": 1.0,
                             "Delta": 1.0},
                  "seed": 5}


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


def write_spec(tmp_path, raw, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestLoadSpec:
    def test_round_trip_bytes(self, tmp_path):
        path = write_spec(tmp_path, minimal_spec(tmp_path))
        spec = load_spec(path)
        save_spec(spec, tmp_path / "canon.json")
        spec2 = load_spec(tmp_path / "canon.json")
        save_spec(spec2, tmp_path / "canon2.json")
        assert (tmp_path / "canon.json").read_bytes() == \
            (tmp_path / "canon2.json").read_bytes()
        assert spec_hash(spec) == spec_hash(spec2)

    def test_unknown_key_rejected(self, tmp_path):
        raw = minimal_spec(tmp_path)
        raw["grid"] = [1]
        with pytest.raises(SpecError, match="unknown spec keys"):
            load_spec(write_spec(tmp_path, raw))

    def test_empty_grid_rejected(self, tmp_path):
        raw = minimal_spec(tmp_path, b_grid=[])
        with pytest.raises(SpecError, match="empty grid"):
            load_spec(write_spec(tmp_path, raw))

    def test_bad_algorithm(self, tmp_path):
        raw = minimal_spec(tmp_path, algorithm="adam")
        with pytest.raises(SpecError, match="algorithm"):
            load_spec(write_spec(tmp_path, raw))

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"problems": [,]}')
        with pytest.raises(SpecError, match="line 1"):
            load_spec(path)

    def test_unknown_override_rejected(self, tmp_path):
        raw = minimal_spec(tmp_path, overrides={"stepsize": 1.0})
        with pytest.raises(SpecError, match="overrides"):
            load_spec(write_spec(tmp_path, raw))

    @pytest.mark.parametrize("key,value", [
        ("b_grid", [True]), ("T_grid", [16, True]), ("n_seeds", True),
        ("base_seed", False), ("workers", True)])
    def test_bool_rejected_where_integer_expected(self, tmp_path, key, value):
        raw = minimal_spec(tmp_path, **{key: value})
        with pytest.raises(SpecError, match=key):
            load_spec(write_spec(tmp_path, raw))

    @pytest.mark.parametrize("problem,param", [
        ({"family": "interpolation_least_squares",
          "params": {"d": True, "n_atoms": 1, "H": 1.0, "B": 1.0}}, "d"),
        ({"family": "interpolation_least_squares",
          "params": {"d": 4, "n_atoms": True, "H": 1.0, "B": 1.0}}, "n_atoms"),
        ({"family": "growth",
          "params": dict(GROWTH_PROBLEM["params"], r=True)}, "r"),
        ({"family": "sign_vector",
          "params": {"n": True, "H": 1.0, "B": 1.0, "sigma_signs": [1, -1]}},
         "n")])
    def test_bool_family_param_rejected(self, tmp_path, problem, param):
        raw = minimal_spec(tmp_path, problems=[SIGN_PROBLEM, problem])
        with pytest.raises(SpecError,
                           match=rf"problems\[1\].*'{param}' must be an integer"):
            load_spec(write_spec(tmp_path, raw))

    def test_golden_shipped_spec(self, tmp_path):
        shipped = Path(__file__).parent.parent / "demos" / "specs" / \
            "interpolation_sweep.json"
        golden = Path(__file__).parent / "golden" / \
            "interpolation_sweep_spec.sha256"
        spec = load_spec(shipped)
        assert spec_hash(spec) == golden.read_text().strip()


class TestRunExperiment:
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

    def test_cell_failure_recorded_without_aborting(self, tmp_path):
        # restarted with a 1-iteration budget cannot fit the first stage
        raw = minimal_spec(tmp_path, algorithm="restarted",
                           T_grid=[1, 600], b_grid=[8])
        raw["problems"] = [GROWTH_PROBLEM]
        manifest = run_experiment(load_spec(write_spec(tmp_path, raw)))
        assert len(manifest["failures"]) == 1
        assert "T=1" in manifest["failures"][0]["error"]
        assert any("T600" in n for n in manifest["artifacts"])

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

    def test_sgd_cells_with_eta_override(self, tmp_path):
        raw = minimal_spec(tmp_path, algorithm="sgd",
                           overrides={"eta": 0.25})
        manifest = run_experiment(load_spec(write_spec(tmp_path, raw)))
        assert manifest["failures"] == []
        header = json.loads(next(
            (tmp_path / "out" / n).read_text()
            for n in manifest["artifacts"] if n.endswith(".json")))
        assert header["eta"] == 0.25


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
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            emit_plotdata("rate_curve", [tmp_path / "nope.csv"],
                          tmp_path / "x.csv")

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown plotdata kind"):
            emit_plotdata("violin", [], tmp_path / "x.csv")


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["--help"], ["run", "--help"], ["verify", "--help"],
        ["plotdata", "--help"], ["schedule", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_missing_spec_file_is_config_error(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "absent.json")]) == 2

    def test_run_and_schedule(self, tmp_path, capsys):
        path = write_spec(tmp_path, minimal_spec(tmp_path))
        assert cli_main(["run", str(path)]) == 0
        assert cli_main(["schedule", "--H", "1", "--b", "12", "--T", "4",
                         "--B", "1"]) == 0
        out = capsys.readouterr().out
        assert "gamma = 0.0833333333333" in out
        assert "3,1.5,0.333333333333" in out

    def test_run_reports_cell_failures(self, tmp_path, capsys):
        raw = minimal_spec(tmp_path, algorithm="restarted", b_grid=[8],
                           T_grid=[1])
        raw["problems"] = [GROWTH_PROBLEM]
        path = write_spec(tmp_path, raw)
        assert cli_main(["run", str(path)]) == 3

    @pytest.mark.parametrize("params,error", [
        ({"d": 8.0}, "'d' must be an integer"),
        ({"H": "big"}, "TypeError")])
    def test_problem_build_failure_is_config_error(self, tmp_path, capsys,
                                                   params, error):
        problem = {"family": "noiseless_quadratic",
                   "params": dict({"d": 8, "H": 1.0, "B": 1.0}, **params)}
        path = write_spec(tmp_path, minimal_spec(tmp_path,
                                                 problems=[problem]))
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "problems[0]" in err
        assert error in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family,params,error", [
        ("interpolation_least_squares",
         {"d": 8, "n_atoms": 4, "H": 1.0, "B": float("inf")},
         "'B' must be a finite number"),
        ("gaussian_spike",
         {"H": 1.0, "B": 1.0, "p": 0.5, "s": float("nan"), "sign": 1},
         "'s' must be a finite number"),
        ("gaussian_spike",
         {"H": 1.0, "B": float("nan"), "p": 0.5, "s": 1.0, "sign": 1},
         "'B' must be a finite number"),
        ("gaussian_spike",
         {"H": 1.0, "B": 1.0, "p": 0.5, "s": 1.0, "sign": True},
         "'sign' must be an integer"),
        ("growth",
         {"d": 6, "r": 3, "lam": True, "H": 1.0, "Delta": 1.0},
         "'lam' must be a finite number"),
        ("noiseless_quadratic",
         {"d": 4, "H": 1.0, "B": 1.0, "spread": 10**400},
         "'spread' must be a finite number")])
    def test_nonfinite_or_bool_family_param_is_config_error(
            self, tmp_path, capsys, family, params, error):
        # json.dumps writes NaN and Infinity, which json.loads accepts
        problem = {"family": family, "params": params, "seed": 0}
        path = write_spec(tmp_path, minimal_spec(tmp_path,
                                                 problems=[problem]))
        assert cli_main(["run", str(path)]) == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys,
                                               workers):
        path = write_spec(tmp_path, minimal_spec(tmp_path))
        assert cli_main(["run", str(path), "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(SpecError, match="workers"):
            run_experiment(load_spec(path), workers=int(workers))

    @pytest.mark.parametrize("problem,error", [
        (dict(SIGN_PROBLEM, seed=2.7), "seed must be an integer"),
        (dict(SIGN_PROBLEM, seed=True), "seed must be an integer"),
        (dict(GROWTH_PROBLEM, seed=False), "seed must be an integer"),
        ({"family": "sign_vector",
          "params": {"n": 1, "H": 1.0, "B": 1.0, "sigma_signs": [True, -1]}},
         "sigma_signs entries must be the integers"),
        ({"family": "sign_vector",
          "params": {"n": 1, "H": 1.0, "B": 1.0, "sigma_signs": [1.0, -1.0]}},
         "sigma_signs entries must be the integers")])
    def test_bad_seed_or_signs_is_config_error(self, tmp_path, capsys,
                                               problem, error):
        path = write_spec(tmp_path, minimal_spec(tmp_path,
                                                 problems=[problem]))
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "problems[0]" in err and error in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("overrides", {"eta": "fast"}), ("overrides", {"eta": 0.0}),
        ("overrides", {"B": -1.0}), ("overrides", {"B": float("inf")}),
        ("overrides", {"lstar": True}), ("overrides", {"lstar": -0.1}),
        ("overrides", {"theta": 0.5}), ("overrides", {"theta": 1}),
        ("overrides", {"eta": float("nan")}), ("overrides", {"eta": 10**400}),
        ("overrides", [["eta", 0.25]]),
        ("eps_targets", [float("nan"), True]), ("eps_targets", [True]),
        ("eps_targets", [float("inf")]), ("eps_targets", [0.0])])
    def test_bad_override_or_target_is_config_error(self, tmp_path, capsys,
                                                     key, value):
        # json.dumps writes NaN and Infinity, which json.loads accepts
        raw = minimal_spec(tmp_path, algorithm="restarted", b_grid=[8],
                           T_grid=[400], problems=[GROWTH_PROBLEM],
                           **{key: value})
        assert cli_main(["run", str(write_spec(tmp_path, raw))]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_boundary_overrides_accepted(self, tmp_path):
        raw = minimal_spec(tmp_path, overrides={"B": 2, "lstar": 0,
                                                "theta": 1.5, "eta": 0.25},
                           eps_targets=[1, 0.5])
        assert load_spec(write_spec(tmp_path, raw)).overrides["lstar"] == 0

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
