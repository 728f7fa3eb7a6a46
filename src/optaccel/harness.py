"""Experiment orchestration: declarative sweep specs, deterministic cell
execution, artifact persistence, and content-hashed manifests.

A sweep is a JSON spec (strictly validated) naming problems, one algorithm,
minibatch/horizon grids, and seeds.  Each (problem, b, T, seed) cell runs
independently, writes its own trace CSV and header JSON, and the aggregate
summary/speedup tables are derived afterwards.  Rerunning an identical spec
reproduces byte-identical artifacts; the manifest's content hash covers
everything except its timestamp and timings.  Across machines the bytes
match only at one BLAS thread (``OPENBLAS_NUM_THREADS=1``): at more,
OpenBLAS may split a gemv of over 9216 elements where rounding differs.
Every artifact is written under a temporary name and renamed into place,
so an interrupted sweep leaves no half-written file under an artifact's
name.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import suppress
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import optimizers
from .analysis import _median, _sorted_quantile, time_to_eps
from .problems import _is_finite, _is_int, problem_from_config
from .trace import (canonical_json, config_hash, csv_records, sha256_text,
                    trace_from_csv, trace_to_csv)

__all__ = [
    "ExperimentSpec",
    "SpecError",
    "OutputError",
    "load_spec",
    "spec_hash",
    "run_experiment",
    "emit_plotdata",
]

# algorithm -> the overrides it reads
_ALGORITHMS = {"acc_mb_sgd": (), "sgd": ("eta",), "restarted": ()}
_FMT = ".17g"


class SpecError(ValueError):
    """An experiment spec failed validation."""


class OutputError(OSError):
    """An output could not be written: a runtime failure, not bad input."""


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
    overrides: dict
    workers: int


def _validate(raw: dict) -> ExperimentSpec:
    unknown = set(raw) - {f.name for f in fields(ExperimentSpec)}
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown)}")
    missing = {"problems", "algorithm", "b_grid", "T_grid",
               "output_dir"} - set(raw)
    if missing:
        raise SpecError(f"missing spec keys: {sorted(missing)}")

    problems = raw["problems"]
    if not isinstance(problems, list) or not problems:
        raise SpecError("problems: must be a non-empty list")
    # each problem is kept as its built config, defaults filled in, so a
    # cell's stem hashes the same config as its run header
    built, hashes = [], []
    for i, p in enumerate(problems):
        try:
            built.append(problem_from_config(p))
        except Exception as err:  # any build failure is a bad spec
            raise SpecError(f"problems[{i}]: {type(err).__name__}: "
                            f"{err}") from err
        hashes.append(config_hash(built[-1].config()))
        if hashes[-1] in hashes[:-1]:
            raise SpecError(f"problems[{i}]: duplicates problems"
                            f"[{hashes.index(hashes[-1])}]")

    algorithm = raw["algorithm"]
    # a JSON list or object would not hash
    if not isinstance(algorithm, str) or algorithm not in _ALGORITHMS:
        raise SpecError(f"algorithm: must be one of {tuple(_ALGORITHMS)}, "
                        f"got {algorithm!r}")

    def int_grid(name):
        grid = raw[name]
        if not isinstance(grid, list) or not grid:
            raise SpecError(f"{name}: empty grid")
        if not all(map(optimizers._is_count, grid)):
            raise SpecError(f"{name}: entries must be positive integers")
        # a schedule and an error bound compute with floats, which hold
        # every integer up to 2**53 exactly
        if max(grid) > 2**53:
            raise SpecError(f"{name}: entries must be at most 2**53")
        if len(set(grid)) < len(grid):
            raise SpecError(f"{name}: entries must be distinct, got {grid}")
        return tuple(grid)

    b_grid = int_grid("b_grid")
    T_grid = int_grid("T_grid")

    n_seeds = raw.get("n_seeds", 1)
    if not optimizers._is_count(n_seeds):
        raise SpecError(f"n_seeds: must be a positive integer, got {n_seeds}")
    base_seed = raw.get("base_seed", 0)
    if not _is_int(base_seed) or base_seed < 0:
        raise SpecError(f"base_seed: must be an integer >= 0, "
                        f"got {base_seed!r}")

    eps_targets = raw.get("eps_targets", [])
    if not isinstance(eps_targets, list) or any(
            not _is_finite(e) or e <= 0 for e in eps_targets):
        raise SpecError("eps_targets: must be finite positive numbers")
    if len(set(eps_targets)) < len(eps_targets):
        raise SpecError(f"eps_targets: entries must be distinct, "
                        f"got {eps_targets}")

    output_dir = raw["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise SpecError("output_dir: must be a non-empty string")

    overrides = raw.get("overrides", {})
    if not isinstance(overrides, dict):
        raise SpecError("overrides: must be a JSON object")
    # a key the algorithm never reads would still enter the spec hash
    bad = set(overrides) - set(_ALGORITHMS[algorithm])
    if bad:
        raise SpecError(f"overrides: {algorithm} does not read "
                        f"{sorted(bad)}; it reads {_ALGORITHMS[algorithm]}")
    eta = overrides.get("eta", 1.0)
    if not _is_finite(eta) or eta <= 0:
        raise SpecError(f"overrides.eta: must be a finite number > 0, "
                        f"got {eta!r}")
    # each cell's step rule is made here, so no cell of a spec that loads
    # fails to plan or steps by 0 or inf
    for i, problem in enumerate(built):
        for b in b_grid:
            for T in T_grid:
                try:
                    _cell_run(problem, algorithm, b, T, overrides)
                except (ValueError, ArithmeticError) as err:
                    raise SpecError(f"problems[{i}]: b={b}, T={T}: "
                                    f"{err}") from err

    workers = _check_workers(raw.get("workers", 1))

    return ExperimentSpec(
        problems=tuple(p.config() for p in built), algorithm=algorithm,
        b_grid=b_grid, T_grid=T_grid, n_seeds=n_seeds, base_seed=base_seed,
        eps_targets=tuple(float(e) for e in eps_targets),
        output_dir=output_dir, overrides=dict(overrides), workers=workers)


def _check_workers(workers):
    if not optimizers._is_count(workers):
        raise SpecError(f"workers: must be a positive integer, got {workers}")
    return workers


def load_spec(path) -> ExperimentSpec:
    """Load and strictly validate an experiment spec from JSON.

    Unknown keys, and a key repeated within one object, are rejected;
    parse errors report line and column.
    """
    try:
        raw = json.loads(Path(path).read_text(), object_pairs_hook=_no_repeats)
    except SpecError as err:
        raise SpecError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SpecError(f"{path}: parse error at line {err.lineno} "
                        f"column {err.colno}: {err.msg}") from err
    except (OSError, ValueError, RecursionError) as err:
        # a path that is missing or no file, bytes that are not UTF-8,
        # integers past the digit limit, nesting deeper than the decoder's
        # recursion
        raise SpecError(f"{path}: unreadable spec: {type(err).__name__}: "
                        f"{err}") from err
    if not isinstance(raw, dict):
        raise SpecError(f"{path}: spec must be a JSON object")
    return _validate(raw)


def _no_repeats(pairs):
    """A JSON object's dict; ``json.loads`` alone keeps a repeated key's
    last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def spec_hash(spec: ExperimentSpec) -> str:
    return sha256_text(canonical_json(asdict(spec)))


# ---------------------------------------------------------------------------
# cell execution
# ---------------------------------------------------------------------------


def _write(path: Path, text: str) -> str:
    """Write ``text`` to a sibling temporary name, then rename it onto
    ``path``: an interrupted write leaves nothing under ``path``, and a
    failed one is an ``OutputError`` naming ``path``.  Returns the sha256
    of the ASCII text, which is the file's bytes."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException as err:
        # under a missing directory or a file, unlink fails as write did
        with suppress(OSError):
            tmp.unlink()
        if isinstance(err, OSError):
            raise OutputError(f"{type(err).__name__}: cannot write {path}: "
                              f"{err.strerror}") from err
        raise
    return sha256_text(text)


def _run_cell(cell: dict) -> dict:
    """Run one (problem, algorithm, b, T, seed) cell, write its trace CSV
    and header JSON, and return their digests with the run's outcome."""
    problem = problem_from_config(cell["problem"])
    _, trace = _cell_run(problem, cell["algorithm"], cell["b"], cell["T"],
                         cell["overrides"])(cell["seed"])

    out, stem = Path(cell["output_dir"]), cell["stem"]
    digests = {f"{stem}.csv": _write(out / f"{stem}.csv", trace_to_csv(trace)),
               f"{stem}.json": _write(out / f"{stem}.json",
                                      canonical_json(trace.header) + "\n")}
    return {"artifacts": digests, "final_subopt": trace.final_subopt,
            "aborted": trace.aborted, "rows": len(trace.t)}


def _cell_run(problem, algorithm, b, T, overrides):
    """Make a cell's schedule, SGD step or restart plan, raising as its run
    would, and return the run as a function of the seed; it looks up
    ``optimizers.run_*`` when called, so a wrapper installed there sees it."""
    meta = problem.meta
    if algorithm == "acc_mb_sgd":
        optimizers.make_schedule(meta.H, b, T, meta.B, meta.Lstar)
        return lambda seed: optimizers.run_acc_mb_sgd(problem, b, T, seed=seed)
    if algorithm == "sgd":
        eta = overrides.get("eta")
        optimizers.sgd_step(meta.H, eta)
        return lambda seed: optimizers.run_sgd(problem, b, T, seed=seed,
                                               eta=eta)
    if algorithm == "restarted":
        plan = optimizers.make_budget_plan(problem, b, T)
        return lambda seed: optimizers.run_restarted(problem, plan, seed=seed)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _cells_of(spec: ExperimentSpec):
    # problem by problem: ``problem_from_config`` keeps its last build, so
    # a run builds each problem once; loading the spec built them all
    # before, so the first cell reuses that build only when the spec has
    # one problem and its config lists every default
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


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> dict:
    """Run every cell of a sweep and write the aggregate artifacts.

    Cells execute independently (in parallel when ``workers > 1``;
    ``workers`` defaults to the spec's, and below 1 is a ``SpecError``; the
    pool holds no more processes than there are cells or usable CPUs) and
    per-cell failures are recorded in the manifest without aborting the
    others; cells lost with a dying worker are rerun alone, so only a cell
    that kills its own worker fails.  The process pool (and with it
    ``multiprocessing``) is imported on first parallel use: serial runs are
    the default and never need it.  Returns the manifest, which lists every
    artifact with the sha256 of the bytes written.
    """
    workers = _check_workers(spec.workers if workers is None else workers)
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    cells = list(_cells_of(spec))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        # a forking pool starts all its processes at the first submit
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        with ProcessPoolExecutor(min(workers, len(cells), cpus)) as pool:
            futures = [_submit(pool, c) for c in cells]
        outcomes = [_pool_outcome(f, c) for f, c in zip(futures, cells)]
    else:
        outcomes = [_run_cell_safe(c) for c in cells]
    # finals[(problem_hash, b, T)]: final suboptimality per completed seed;
    # an aborted run's files are listed, its partial value left out
    artifacts, failures, finals = {}, [], {}
    for cell, outcome in zip(cells, outcomes):
        if "error" in outcome:
            failures.append({"stem": cell["stem"], "error": outcome["error"]})
            continue
        artifacts.update(outcome["artifacts"])
        if not outcome["aborted"]:
            finals.setdefault((cell["problem_hash"], cell["b"], cell["T"]),
                              []).append(outcome["final_subopt"])

    artifacts["summary.csv"] = _write(out / "summary.csv",
                                      _summary_csv(spec, finals))
    if spec.eps_targets:
        artifacts["speedup.csv"] = _write(out / "speedup.csv",
                                          _speedup_csv(spec, finals))

    content = {
        "spec": asdict(spec),
        "spec_hash": spec_hash(spec),
        "artifacts": dict(sorted(artifacts.items())),
        "failures": sorted(failures, key=lambda f: f["stem"]),
    }
    manifest = dict(content)
    manifest["content_hash"] = sha256_text(canonical_json(content))
    manifest["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    # wall time and steps completed (trace rows) per second of each cell;
    # a cell lost with its worker has neither
    manifest["timing"] = {
        cell["stem"]: {"wall_s": o["wall_s"],
                       "steps_per_s": (o.get("rows", 0) / o["wall_s"]
                                       if o["wall_s"] else 0.0)}
        for cell, o in zip(cells, outcomes)}
    _write(out / "manifest.json",
           json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def _run_cell_safe(cell: dict) -> dict:
    t0 = time.perf_counter()
    try:
        outcome = _run_cell(cell)
    except Exception as err:  # per-cell isolation is the contract
        outcome = {"error": f"{type(err).__name__}: {err}"}
    outcome["wall_s"] = time.perf_counter() - t0
    return outcome


def _submit(pool, cell):
    from concurrent.futures.process import BrokenProcessPool
    try:
        return pool.submit(_run_cell_safe, cell)
    except BrokenProcessPool:  # a worker died before this submit
        return None


def _pool_outcome(future, cell=None) -> dict:
    """A worker's outcome.  A dying worker fails every cell its pool holds
    or has yet to take (``future`` None): each is rerun alone in a fresh
    one-worker pool, and one that kills that worker too is a failed cell."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        if future is not None:
            return future.result()
    except BrokenProcessPool as err:
        if cell is None:
            return {"error": f"BrokenProcessPool: {err}", "wall_s": 0.0}
    with ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(_run_cell_safe, cell)
    return _pool_outcome(future)


def _summary_csv(spec, finals):
    family = {config_hash(p): p["family"] for p in spec.problems}
    lines = ["problem_hash,family,algorithm,b,T,n_seeds,median_subopt,"
             "q25_subopt,q75_subopt,min_subopt,max_subopt"]
    for (phash, b, T), vals in sorted(finals.items()):
        vals = np.sort(vals)
        stats = (_median(vals), _sorted_quantile(vals, 0.25),
                 _sorted_quantile(vals, 0.75), vals[0], vals[-1])
        lines.append(",".join([phash, family[phash], spec.algorithm, str(b),
                               str(T), str(len(vals))]
                              + [format(float(v), _FMT) for v in stats]))
    return "\n".join(lines) + "\n"


def _speedup_csv(spec, finals):
    lines = ["problem_hash,eps,b,T_to_eps,n_seeds"]
    for phash in sorted({key[0] for key in finals}):
        by_bT = {(b, T): vals for (p, b, T), vals in finals.items()
                 if p == phash}
        for eps in spec.eps_targets:
            for b, T in time_to_eps(by_bT, eps).items():
                # the fewest completed seeds behind any of b's medians
                n_done = min(len(by_bT.get((b, T2), ())) for T2 in spec.T_grid)
                lines.append(f"{phash},{format(eps, _FMT)},{b},"
                             f"{'' if T is None else T},{n_done}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plot-ready data
# ---------------------------------------------------------------------------


# the columns each table kind reads, in the order it writes them, each
# with the ``trace._FIELD_KINDS`` kind of its fields
_PLOT_COLUMNS = {
    "rate_curve": {"family": None, "algorithm": None, "b": "count",
                   "T": "count", "median_subopt": "float",
                   "q25_subopt": "float", "q75_subopt": "float"},
    "speedup_curve": {"eps": "float", "b": "count",
                      "T_to_eps": "count or empty"}}
# every kind ``emit_plotdata`` makes, and so the CLI's choices
_PLOT_KINDS = (*_PLOT_COLUMNS, "stage_decay")


def _parse_input(path: Path, parse):
    """``parse`` of an input file's text.  A missing, unreadable or
    malformed file is a ``ValueError`` that names ``path``."""
    try:
        return parse(path.read_text())
    except (OSError, ValueError) as err:
        raise ValueError(f"{path}: {type(err).__name__}: {err}") from err


def emit_plotdata(kind: str, inputs, out_path) -> str:
    """Reduce run artifacts to one tidy observation-per-row CSV.

    Kinds: ``rate_curve`` (median suboptimality against horizon, from
    summary files), ``speedup_curve`` (iterations-to-target against batch
    size, from speedup files), ``stage_decay`` (end-of-stage suboptimality
    from restarted trace files).  Column meanings live in
    ``docs/plotdata.md``.
    """
    if kind not in _PLOT_KINDS:
        raise ValueError(f"unknown plotdata kind {kind!r}; expected one "
                         f"of {', '.join(_PLOT_KINDS)}")
    paths = [Path(p) for p in inputs]
    if kind in _PLOT_COLUMNS:
        cols = _PLOT_COLUMNS[kind]
        rows = [",".join(cols)]
        for p in paths:
            header, records = _parse_input(
                p, lambda text: csv_records(text, cols))
            at = [header.index(c) for c in cols]
            rows += [",".join(r[j] for j in at) for r in records]
    else:
        rows = ["trace,stage,t_end,subopt"]
        for p in paths:
            trace = _parse_input(p, trace_from_csv)
            for stage, t_end, subopt in trace.stage_end_subopts():
                rows.append(f"{p.name},{stage},{t_end},{format(subopt, _FMT)}")
    text = "\n".join(rows) + "\n"
    _write(Path(out_path), text)
    return text
