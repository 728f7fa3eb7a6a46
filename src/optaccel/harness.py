"""Experiment orchestration: declarative sweep specs, deterministic cell
execution, artifact persistence, and content-hashed manifests.

A sweep is a JSON spec (strictly validated) naming problems, one algorithm,
minibatch/horizon grids, and seeds.  Each (problem, b, T, seed) cell runs
independently, writes its own trace CSV and header JSON, and the aggregate
summary/speedup tables are derived afterwards.  Rerunning an identical spec
reproduces byte-identical artifacts; the manifest's content hash covers
everything except its own timestamp.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import optimizers
from .analysis import time_to_eps
from .problems import _is_finite, _is_int, config_hash, problem_from_config
from .trace import canonical_json, sha256_text, trace_from_csv, trace_to_csv

__all__ = [
    "ExperimentSpec",
    "SpecError",
    "load_spec",
    "save_spec",
    "spec_hash",
    "run_experiment",
    "emit_plotdata",
]

_ALGORITHMS = ("acc_mb_sgd", "sgd", "restarted")
# override -> (comparison, bound) that its value must satisfy
_OVERRIDES = {"B": (">", 0.0), "lstar": (">=", 0.0), "theta": (">", 1.0),
              "eta": (">", 0.0)}
_SPEC_KEYS = ("problems", "algorithm", "b_grid", "T_grid", "n_seeds",
              "base_seed", "eps_targets", "output_dir", "overrides",
              "workers")
_FMT = ".17g"


class SpecError(ValueError):
    """An experiment spec failed validation."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated sweep description.  See ``load_spec`` for the JSON schema."""

    problems: tuple[dict, ...]
    algorithm: str
    b_grid: tuple[int, ...]
    T_grid: tuple[int, ...]
    n_seeds: int
    base_seed: int
    eps_targets: tuple[float, ...]
    output_dir: str
    overrides: dict = field(default_factory=dict)
    workers: int = 1


def _validate(raw: dict) -> ExperimentSpec:
    unknown = set(raw) - set(_SPEC_KEYS)
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown)}")
    missing = {"problems", "algorithm", "b_grid", "T_grid",
               "output_dir"} - set(raw)
    if missing:
        raise SpecError(f"missing spec keys: {sorted(missing)}")

    problems = raw["problems"]
    if isinstance(problems, dict):
        problems = [problems]
    if not isinstance(problems, list) or not problems:
        raise SpecError("problems: empty grid")
    for i, p in enumerate(problems):
        try:
            problem_from_config(p)
        except Exception as err:  # any build failure is a bad spec
            raise SpecError(f"problems[{i}]: {type(err).__name__}: "
                            f"{err}") from err

    algorithm = raw["algorithm"]
    if algorithm not in _ALGORITHMS:
        raise SpecError(f"algorithm: must be one of {_ALGORITHMS}, "
                        f"got {algorithm!r}")

    def int_grid(name):
        grid = raw[name]
        if not isinstance(grid, list) or not grid:
            raise SpecError(f"{name}: empty grid")
        if any(not _is_int(v) or v < 1 for v in grid):
            raise SpecError(f"{name}: entries must be positive integers")
        return tuple(grid)

    b_grid = int_grid("b_grid")
    T_grid = int_grid("T_grid")

    n_seeds = raw.get("n_seeds", 1)
    if not _is_int(n_seeds) or n_seeds < 1:
        raise SpecError(f"n_seeds: must be a positive integer, got {n_seeds}")
    base_seed = raw.get("base_seed", 0)
    if not _is_int(base_seed):
        raise SpecError("base_seed: must be an integer")

    eps_targets = raw.get("eps_targets", [])
    if not isinstance(eps_targets, list) or any(
            not _is_finite(e) or e <= 0 for e in eps_targets):
        raise SpecError("eps_targets: must be finite positive numbers")

    output_dir = raw["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise SpecError("output_dir: must be a non-empty string")

    overrides = raw.get("overrides", {})
    if not isinstance(overrides, dict):
        raise SpecError("overrides: must be a JSON object")
    bad = set(overrides) - set(_OVERRIDES)
    if bad:
        raise SpecError(f"overrides: unknown keys {sorted(bad)}; "
                        f"allowed: {tuple(_OVERRIDES)}")
    for key, value in overrides.items():
        op, low = _OVERRIDES[key]
        if not _is_finite(value) or value < low or (op == ">" and value == low):
            raise SpecError(f"overrides.{key}: must be a finite number "
                            f"{op} {low:g}, got {value!r}")

    workers = _check_workers(raw.get("workers", 1))

    return ExperimentSpec(
        problems=tuple(dict(p) for p in problems), algorithm=algorithm,
        b_grid=b_grid, T_grid=T_grid, n_seeds=n_seeds, base_seed=base_seed,
        eps_targets=tuple(float(e) for e in eps_targets),
        output_dir=output_dir, overrides=dict(overrides), workers=workers)


def _check_workers(workers):
    if not _is_int(workers) or workers < 1:
        raise SpecError(f"workers: must be a positive integer, got {workers}")
    return workers


def load_spec(path) -> ExperimentSpec:
    """Load and strictly validate an experiment spec from JSON.

    Unknown keys are rejected; parse errors report line and column.
    """
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecError(f"{path}: parse error at line {err.lineno} "
                        f"column {err.colno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise SpecError(f"{path}: spec must be a JSON object")
    return _validate(raw)


def save_spec(spec: ExperimentSpec, path) -> None:
    """Write a spec as canonical JSON (stable bytes for identical specs)."""
    Path(path).write_text(canonical_json(asdict(spec)) + "\n")


def spec_hash(spec: ExperimentSpec) -> str:
    return sha256_text(canonical_json(asdict(spec)))


# ---------------------------------------------------------------------------
# cell execution
# ---------------------------------------------------------------------------


def _run_cell(cell: dict) -> dict:
    """Execute one (problem, algorithm, b, T, seed) cell and write artifacts."""
    problem = problem_from_config(cell["problem"])
    alg, b, T, seed = cell["algorithm"], cell["b"], cell["T"], cell["seed"]
    ov = cell["overrides"]
    B_override = ov.get("B")
    lstar = ov.get("lstar")
    if alg == "acc_mb_sgd":
        noise_sq = (None if lstar is None
                    else 2.0 * problem.meta.H * float(lstar))
        _, trace = optimizers.run_acc_mb_sgd(
            problem, b, T, B_override=B_override,
            noise_sq_override=noise_sq, seed=seed)
    elif alg == "sgd":
        _, trace = optimizers.run_sgd(problem, b, T, seed=seed,
                                      eta=ov.get("eta"),
                                      B_override=B_override)
    elif alg == "restarted":
        meta = problem.meta
        plan = optimizers.make_budget_plan(
            meta.Delta, T, ov.get("theta", math.e), meta.lam, meta.H, b,
            meta.Lstar if lstar is None else lstar)
        _, trace = optimizers.run_restarted(problem, plan, seed=seed)
    else:
        raise ValueError(f"unknown algorithm {alg!r}")

    trace.header["final_subopt"] = trace.final_subopt
    out, stem = Path(cell["output_dir"]), cell["stem"]
    (out / f"{stem}.csv").write_text(trace_to_csv(trace))
    (out / f"{stem}.json").write_text(canonical_json(trace.header) + "\n")
    return {"final_subopt": trace.final_subopt}


def _cells_of(spec: ExperimentSpec):
    for prob_cfg in spec.problems:
        phash = config_hash(prob_cfg)
        for b in spec.b_grid:
            for T in spec.T_grid:
                for i in range(spec.n_seeds):
                    seed = spec.base_seed + i
                    yield {
                        "problem": prob_cfg,
                        "problem_hash": phash,
                        "algorithm": spec.algorithm,
                        "b": b, "T": T, "seed": seed,
                        "overrides": spec.overrides,
                        "output_dir": spec.output_dir,
                        "stem": f"{phash}_{spec.algorithm}_b{b}_T{T}_s{seed}",
                    }


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> dict:
    """Run every cell of a sweep and write the aggregate artifacts.

    Cells execute independently (in parallel when ``workers > 1``;
    ``workers`` defaults to the spec's, and below 1 is a ``SpecError``) and
    per-cell failures are recorded in the manifest without aborting the
    others.  Returns the manifest, which lists every artifact with its
    content hash.
    """
    workers = _check_workers(spec.workers if workers is None else workers)
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    cells = list(_cells_of(spec))
    results, failures = {}, []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell_safe, cells))
    else:
        outcomes = [_run_cell_safe(c) for c in cells]
    for cell, outcome in zip(cells, outcomes):
        if "error" in outcome:
            failures.append({"stem": cell["stem"], "error": outcome["error"]})
        else:
            results[cell["stem"]] = (cell, outcome)

    artifacts = [stem + ext for stem in results for ext in (".csv", ".json")]

    summary_rows = _summarize(spec, results)
    summary_path = out / "summary.csv"
    summary_path.write_text(_summary_csv(summary_rows))
    artifacts.append(summary_path.name)

    if spec.eps_targets:
        speedup_path = out / "speedup.csv"
        speedup_path.write_text(_speedup_csv(spec, results))
        artifacts.append(speedup_path.name)

    hashes = {name: _sha256_file(out / name) for name in sorted(artifacts)}
    content = {
        "spec": asdict(spec),
        "spec_hash": spec_hash(spec),
        "artifacts": hashes,
        "failures": sorted(failures, key=lambda f: f["stem"]),
    }
    manifest = dict(content)
    manifest["content_hash"] = sha256_text(canonical_json(content))
    manifest["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def _run_cell_safe(cell: dict) -> dict:
    try:
        return _run_cell(cell)
    except Exception as err:  # per-cell isolation is the contract
        return {"error": f"{type(err).__name__}: {err}"}


def _summarize(spec, results):
    groups: dict[tuple, list[float]] = {}
    info = {}
    for stem, (cell, outcome) in results.items():
        key = (cell["problem_hash"], cell["algorithm"], cell["b"], cell["T"])
        groups.setdefault(key, []).append(outcome["final_subopt"])
        info[key] = cell["problem"]["family"]
    rows = []
    for key in sorted(groups):
        vals = np.sort(np.array(groups[key]))
        rows.append({
            "problem_hash": key[0], "family": info[key],
            "algorithm": key[1], "b": key[2], "T": key[3],
            "n_seeds": len(vals),
            "median_subopt": float(np.median(vals)),
            "q25_subopt": float(np.quantile(vals, 0.25)),
            "q75_subopt": float(np.quantile(vals, 0.75)),
            "min_subopt": float(vals[0]), "max_subopt": float(vals[-1]),
        })
    return rows


_SUMMARY_COLS = ["problem_hash", "family", "algorithm", "b", "T", "n_seeds",
                 "median_subopt", "q25_subopt", "q75_subopt", "min_subopt",
                 "max_subopt"]


def _summary_csv(rows):
    lines = [",".join(_SUMMARY_COLS)]
    for r in rows:
        lines.append(",".join(
            format(r[c], _FMT) if isinstance(r[c], float) else str(r[c])
            for c in _SUMMARY_COLS))
    return "\n".join(lines) + "\n"


def _speedup_csv(spec, results):
    lines = ["problem_hash,eps,b,T_to_eps,n_seeds"]
    by_problem: dict[str, dict[tuple[int, int], list[float]]] = {}
    for stem, (cell, outcome) in results.items():
        finals = by_problem.setdefault(cell["problem_hash"], {})
        finals.setdefault((cell["b"], cell["T"]), []).append(
            outcome["final_subopt"])
    for phash in sorted(by_problem):
        for eps in spec.eps_targets:
            table = time_to_eps(by_problem[phash], eps)
            for b, T in table.rows:
                lines.append(f"{phash},{format(eps, _FMT)},{b},"
                             f"{'' if T is None else T},{spec.n_seeds}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plot-ready data
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    if not path.exists():
        raise FileNotFoundError(f"missing input file: {path}")
    lines = path.read_text().strip().splitlines()
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def emit_plotdata(kind: str, inputs, out_path) -> str:
    """Reduce run artifacts to one tidy observation-per-row CSV.

    Kinds: ``rate_curve`` (median suboptimality against horizon, from
    summary files), ``speedup_curve`` (iterations-to-target against batch
    size, from speedup files), ``stage_decay`` (end-of-stage suboptimality
    from restarted trace files).  Column meanings live in
    ``docs/plotdata.md``.
    """
    paths = [Path(p) for p in inputs]
    if kind == "rate_curve":
        rows = ["family,algorithm,b,T,median_subopt,q25_subopt,q75_subopt"]
        for p in paths:
            for r in _read_csv(p):
                rows.append(",".join([r["family"], r["algorithm"], r["b"],
                                      r["T"], r["median_subopt"],
                                      r["q25_subopt"], r["q75_subopt"]]))
    elif kind == "speedup_curve":
        rows = ["eps,b,T_to_eps"]
        for p in paths:
            for r in _read_csv(p):
                rows.append(",".join([r["eps"], r["b"], r["T_to_eps"]]))
    elif kind == "stage_decay":
        rows = ["trace,stage,t_end,subopt"]
        for p in paths:
            trace = trace_from_csv(p.read_text())
            for stage, t_end, subopt in trace.stage_end_subopts():
                rows.append(f"{p.name},{stage},{t_end},{format(subopt, _FMT)}")
    else:
        raise ValueError(f"unknown plotdata kind {kind!r}; expected "
                         "rate_curve, speedup_curve, or stage_decay")
    text = "\n".join(rows) + "\n"
    Path(out_path).write_text(text)
    return text
