"""Correctness gate: every cell of a sweep completed and met its bound.

The bound depends on the algorithm and is read from the cell's own header:

- ``acc_mb_sgd``: the method's explicit error bound
  ``accel_error_bound(T, H, B**2, b, Lstar)`` for the cell's schedule;
- ``restarted``: the target ``eps_t`` of the plan's last stage;
- ``sgd``: the problem's initial gap ``Delta``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from optaccel.harness import ExperimentSpec
from optaccel.optimizers import accel_error_bound
from optaccel.problems import problem_from_config

__all__ = ["CellCheck", "check_sweep"]


@dataclass(frozen=True)
class CellCheck:
    """Outcome of one cell.

    ``status`` is ``ok``, ``above_bound``, ``aborted`` (the optimizer
    stopped on a non-finite gradient), ``failed`` (the harness reported an
    exception) or ``missing`` (no artifacts); ``detail`` says why.
    """

    stem: str
    algorithm: str
    status: str
    detail: str = ""
    d: int = 0
    b: int = 0
    steps: int = 0
    final_subopt: float = math.nan
    bound: float = math.nan

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _bound(header: dict, deltas: dict) -> float:
    alg = header["algorithm"]
    if alg == "acc_mb_sgd":
        s = header["schedule"]
        lstar = s["noise_sq"] / (2.0 * s["H"])
        return accel_error_bound(s["T"], s["H"], s["B"] ** 2, s["b"], lstar)
    if alg == "restarted":
        return header["plan"]["stages"][-1]["eps_t"]
    if alg == "sgd":
        key = header["problem_hash"]
        if key not in deltas:
            deltas[key] = problem_from_config(header["problem"]).meta.Delta
        return deltas[key]
    raise ValueError(f"no correctness bound for algorithm {alg!r}")


def _check_cell(stem: str, header: dict, deltas: dict) -> CellCheck:
    final = header["final_subopt"]
    bound = _bound(header, deltas)
    if header["aborted"]:
        status, detail = "aborted", header.get("abort_reason", "")
    elif not (math.isfinite(final) and final <= bound):
        status, detail = "above_bound", f"final_subopt {final!r} > {bound!r}"
    else:
        status, detail = "ok", ""
    return CellCheck(stem=stem, algorithm=header["algorithm"], status=status,
                     detail=detail, d=header["problem"]["params"]["d"],
                     b=header["b"], steps=header["T"], final_subopt=final,
                     bound=bound)


def check_sweep(spec: ExperimentSpec, manifest: dict) -> list[CellCheck]:
    """Check every cell of one ``run_experiment`` call.

    Cells the manifest lists as failed, and cells missing from its
    artifacts, are returned with an error as well, so the result always
    has one entry per cell of the spec.
    """
    out = Path(spec.output_dir)
    deltas: dict = {}
    checks = [_check_cell(name[:-len(".json")],
                          json.loads((out / name).read_text()), deltas)
              for name in manifest["artifacts"] if name.endswith(".json")]
    checks += [CellCheck(stem=f["stem"], algorithm=spec.algorithm,
                         status="failed", detail=f["error"])
               for f in manifest["failures"]]
    expected = (len(spec.problems) * len(spec.b_grid) * len(spec.T_grid)
                * spec.n_seeds)
    checks += [CellCheck(stem="?", algorithm=spec.algorithm, status="missing",
                         detail="cell absent from the manifest")
               for _ in range(expected - len(checks))]
    return checks
