"""Per-iteration run records and their on-disk CSV/JSON formats."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

__all__ = ["RunTrace", "trace_to_csv", "trace_from_csv", "canonical_json"]

_CSV_HEADER = "t,norm_w,norm_wag,subopt,grad_noise_sq,stage"


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class RunTrace:
    """Iteration-indexed record of one optimizer run.

    Row ``i`` describes the state after update ``t[i]``: iterate norms, the
    exact suboptimality of the averaged iterate, the squared deviation of
    that step's minibatch gradient from the exact expected gradient at the
    point where it was taken, and the restart stage the update belongs to
    (0 for plain runs).  The header carries everything needed to reproduce
    the run.
    """

    header: dict
    t: np.ndarray
    norm_w: np.ndarray
    norm_wag: np.ndarray
    subopt: np.ndarray
    grad_noise_sq: np.ndarray
    stage: np.ndarray
    aborted: bool = False

    def __post_init__(self):
        if len(self.t) and np.any(np.diff(self.t) <= 0):
            raise ValueError("trace records must be strictly increasing in t")

    @property
    def final_subopt(self) -> float:
        """Last recorded suboptimality; NaN when no step completed."""
        return float(self.subopt[-1]) if len(self.subopt) else float("nan")

    def stage_end_subopts(self) -> list[tuple[int, int, float]]:
        """(stage, cumulative t, suboptimality) at each stage boundary."""
        out = []
        stages = np.unique(self.stage)
        for s in stages:
            idx = np.flatnonzero(self.stage == s)[-1]
            out.append((int(s), int(self.t[idx]), float(self.subopt[idx])))
        return out


class TraceRecorder:
    """Append-only builder used inside the optimizer loops."""

    def __init__(self, header: dict):
        self.header = dict(header)
        self.rows: list[tuple] = []
        self.aborted = False

    def append(self, t, norm_w, norm_wag, subopt, grad_noise_sq, stage):
        self.rows.append((t, norm_w, norm_wag, subopt, grad_noise_sq, stage))

    def build(self) -> RunTrace:
        if self.rows:
            cols = list(zip(*self.rows))
        else:
            cols = [[] for _ in range(6)]
        hdr = dict(self.header)
        hdr["aborted"] = self.aborted
        return RunTrace(
            header=hdr,
            t=np.asarray(cols[0], dtype=int),
            norm_w=np.asarray(cols[1], dtype=float),
            norm_wag=np.asarray(cols[2], dtype=float),
            subopt=np.asarray(cols[3], dtype=float),
            grad_noise_sq=np.asarray(cols[4], dtype=float),
            stage=np.asarray(cols[5], dtype=int),
            aborted=self.aborted,
        )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def trace_to_csv(trace: RunTrace) -> str:
    """Render the per-iteration records; floats keep full precision."""
    lines = [_CSV_HEADER]
    for i in range(len(trace.t)):
        lines.append(",".join([
            str(int(trace.t[i])),
            _fmt(trace.norm_w[i]),
            _fmt(trace.norm_wag[i]),
            _fmt(trace.subopt[i]),
            _fmt(trace.grad_noise_sq[i]),
            str(int(trace.stage[i])),
        ]))
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str) -> RunTrace:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError("not a trace CSV: bad or missing header row")
    rows = [ln.split(",") for ln in lines[1:]]
    arr = np.array(rows, dtype=float) if rows else np.zeros((0, 6))
    return RunTrace(
        header={},
        t=arr[:, 0].astype(int),
        norm_w=arr[:, 1],
        norm_wag=arr[:, 2],
        subopt=arr[:, 3],
        grad_noise_sq=arr[:, 4],
        stage=arr[:, 5].astype(int),
    )


def sha256_text(text: str) -> str:
    """Hex sha256 of a string's UTF-8 bytes."""
    return hashlib.sha256(text.encode()).hexdigest()
