"""Per-iteration run records and their on-disk CSV/JSON formats."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .rowwise import rowdot

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


# the pending rows are evaluated once their vectors hold about this many
# elements (32 KiB): at small d enough rows to spread a block's fixed NumPy
# calls thin, at large d little memory kept alive by reference
_BLOCK_ELEMENTS = 4096
# the columns of no rows, so that ``build`` always has a block to join
_NO_ROWS = (np.zeros(0, dtype=int), *[np.zeros(0)] * 4, np.zeros(0, dtype=int))


class TraceRecorder:
    """Append-only builder used inside the optimizer loops.

    ``append`` keeps a step's vectors by reference.  Whenever the pending
    rows hold about ``_BLOCK_ELEMENTS`` vector elements, and once more in
    ``build``, the block's columns are evaluated together through
    ``problem.suboptimality`` and ``problem.exact_grad`` on stacked points
    and the ``rowwise`` kernels; row ``i`` of each is bit-identical to
    evaluating step ``i`` alone, so the trace does not depend on where
    blocks end.  A caller must never write into an array after passing it
    to ``append``.
    """

    def __init__(self, header: dict, problem):
        self.header = dict(header)
        self.problem = problem
        self.aborted = False
        # each row holds five d-vectors
        self.block_rows = max(1, _BLOCK_ELEMENTS // (5 * problem.d))
        self._pending: list[tuple] = []
        self._blocks: list[tuple] = [_NO_ROWS]

    def append(self, t, w, w_avg, point, query, g, stage):
        """Record step ``t`` of restart stage ``stage``: the norms of ``w``
        and ``w_avg``, the suboptimality at ``point``, and the squared
        deviation of the minibatch gradient ``g`` from the exact gradient
        at ``query``, where ``g`` was taken."""
        self._pending.append((t, w, w_avg, point, query, g, stage))
        if len(self._pending) == self.block_rows:
            self._flush()

    def _flush(self):
        t, *vectors, stage = zip(*self._pending)
        self._pending = []
        W, W_avg, P, Q, G = map(np.array, vectors)
        deviation = G - self.problem.exact_grad(Q)
        self._blocks.append((
            np.array(t, dtype=int), np.sqrt(rowdot(W, W)),
            np.sqrt(rowdot(W_avg, W_avg)), self.problem.suboptimality(P),
            rowdot(deviation, deviation), np.array(stage, dtype=int)))

    def build(self) -> RunTrace:
        if self._pending:
            self._flush()
        cols = [np.concatenate(col) for col in zip(*self._blocks)]
        hdr = dict(self.header)
        hdr["aborted"] = self.aborted
        return RunTrace(hdr, *cols, aborted=self.aborted)


# one row in one format call; "%.17g" renders a float exactly as
# ``format(x, ".17g")`` does
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%d\n"


def trace_to_csv(trace: RunTrace) -> str:
    """Render the per-iteration records; floats keep full precision."""
    cols = (trace.t, trace.norm_w, trace.norm_wag, trace.subopt,
            trace.grad_noise_sq, trace.stage)
    rows = zip(*(np.asarray(c).tolist() for c in cols), strict=True)
    return _CSV_HEADER + "\n" + "".join([_CSV_ROW % row for row in rows])


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
