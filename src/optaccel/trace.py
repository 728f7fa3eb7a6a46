"""Run records: the per-iteration trace, its header, and their on-disk
CSV/JSON formats."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

import numpy as np

__all__ = ["RunTrace", "trace_to_csv", "trace_from_csv", "csv_records",
           "canonical_json", "config_hash"]


def _reads_as_float(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


# the kinds of field ``csv_records`` checks: each one's test, and what a
# field of that kind must be
_FIELD_KINDS = {
    "int": (re.compile(r"-?[0-9]{1,15}").fullmatch,   # exact as a float
            "integers"),
    "count": (re.compile(r"[1-9][0-9]*").fullmatch, "positive integers"),
    "count or empty": (re.compile(r"([1-9][0-9]*)?").fullmatch,
                       "empty or positive integers"),
    "float": (_reads_as_float, "numbers"),
}
# a trace CSV's columns, in order, and the kind of each
_TRACE_COLUMNS = {"t": "int", "norm_w": "float", "norm_wag": "float",
                  "subopt": "float", "grad_noise_sq": "float", "stage": "int"}
_CSV_HEADER = ",".join(_TRACE_COLUMNS)


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
        # with t increasing, its first row is its least
        if len(self.t) and self.t[0] < 1:
            raise ValueError(f"trace records start at t >= 1, got {self.t[0]}")
        if np.any(self.stage < 0):
            raise ValueError("trace stages must be >= 0, got "
                             f"{self.stage.min()}")

    @property
    def final_subopt(self) -> float:
        """Last recorded suboptimality; NaN when no step completed."""
        return float(self.subopt[-1]) if len(self.subopt) else float("nan")

    def stage_end_subopts(self) -> list[tuple[int, int, float]]:
        """(stage, cumulative t, suboptimality) at each stage boundary."""
        out = []
        # not NumPy's ``unique``, which imports ``numpy.ma``
        for s in sorted(set(self.stage.tolist())):
            idx = np.flatnonzero(self.stage == s)[-1]
            out.append((int(s), int(self.t[idx]), float(self.subopt[idx])))
        return out


# a block of pending rows is evaluated once its four vectors a row hold
# this many elements (a 256 KiB buffer).  Measured per row on a 2-vCPU
# VM, ``append`` with its share of a flush falls steeply up to about this
# size (d=64: 34 us at one row, 3.5 us at 128; d=2048: 62 us at one row,
# 40 us at 4), by at most another 20% up to 16 times it, and rises again
# from 32 times
_BLOCK_ELEMENTS = 32768
# the columns of no rows, so that ``build`` always has a block to join
_NO_ROWS = (*[np.zeros(0)] * 4, np.zeros(0, dtype=int))


class TraceRecorder:
    """One run's record: the header (problem, algorithm, ``b``, ``T``, seed
    and the algorithm's own ``fields``), rows numbered from 1 and labelled
    with the current stage, and the outcome.

    ``append`` copies a step's vectors into the block's buffer.  Whenever
    the pending rows fill a block of ``block_rows`` rows (see
    ``_BLOCK_ELEMENTS``), at ``start_stage`` and in ``build``, the block's
    columns are evaluated together through ``problem.suboptimality`` and
    ``problem.exact_grad`` on stacked points and ``np.vecdot``; row ``i``
    of each is bit-identical to evaluating step ``i`` alone, so the trace
    does not depend on where blocks end.  Copying into the one
    buffer every block reuses lets each step's arrays be freed within the
    step.  Their heap cost when kept by reference (about 1 MB of pages
    faulted back in per step at d=2048, b=256) was measured before batches
    became atom indices, and has not been measured since.
    """

    def __init__(self, problem, algorithm: str, b: int, T: int, seed: int,
                 **fields):
        cfg = problem.config()
        self.header = {"problem": cfg, "problem_hash": config_hash(cfg),
                       "algorithm": algorithm, "b": int(b), "T": int(T),
                       "seed": int(seed), **fields}
        self.problem = problem
        # set when a run stops early; ``build`` records it in the header
        self.abort_reason: str | None = None
        self.block_rows = max(1, _BLOCK_ELEMENTS // (4 * problem.d))
        # the pending rows' w, w_avg, query and g, copied in by ``append``
        self._rows = np.empty((4, self.block_rows, problem.d))
        self._n = 0
        self._blocks: list[tuple] = [_NO_ROWS]
        self._stage = 0
        self._center = None

    def start_stage(self, stage: int, center: np.ndarray) -> None:
        """Label the rows that follow with restart stage ``stage``, whose
        vectors are relative to ``center``."""
        if self._n:
            self._flush()
        self._stage, self._center = stage, center

    def append(self, w, w_avg, query, g):
        """Record the next step: the norms of ``w`` and ``w_avg``, the
        suboptimality at the absolute point of ``w_avg``, and the squared
        deviation of the minibatch gradient ``g`` from the exact gradient
        at ``query``, where ``g`` was taken."""
        rows, i = self._rows, self._n
        rows[0, i] = w
        rows[1, i] = w_avg
        rows[2, i] = query
        rows[3, i] = g
        self._n = i + 1
        if self._n == self.block_rows:
            self._flush()

    def _flush(self):
        W, W_avg, Q, G = self._rows[:, :self._n]
        self._n = 0
        # elementwise, so each row equals the step's own ``center + w_avg``
        P = W_avg if self._center is None else self._center + W_avg
        # NumPy's ``matvec``, ``vecmat`` and ``vecdot`` make one BLAS call
        # per row, the call the one-point form makes, so each row rounds as
        # its step alone would; a gemm-shaped ``X @ M.T``, ``einsum`` or
        # ``(X * Y).sum(-1)`` reduces in another order and may not be used
        deviation = G - self.problem.exact_grad(Q)
        self._blocks.append((
            np.sqrt(np.vecdot(W, W)), np.sqrt(np.vecdot(W_avg, W_avg)),
            self.problem.suboptimality(P), np.vecdot(deviation, deviation),
            np.full(len(W), self._stage)))

    def build(self) -> RunTrace:
        """The trace, its header completed with the run's outcome."""
        if self._n:
            self._flush()
        cols = [np.concatenate(col) for col in zip(*self._blocks)]
        aborted = self.abort_reason is not None
        hdr = dict(self.header, aborted=aborted)
        if aborted:
            hdr["abort_reason"] = self.abort_reason
        trace = RunTrace(hdr, np.arange(1, len(cols[0]) + 1), *cols,
                         aborted=aborted)
        hdr["final_subopt"] = trace.final_subopt
        return trace


# one row in one format call; "%.17g" renders a float exactly as
# ``format(x, ".17g")`` does
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%d\n"
# rows rendered per block.  Whole-trace lists of Python numbers and row
# strings held about 3.6 times the text's size at its peak; one block's
# lists are freed before the next is made, which leaves about 2 times
# (the block strings and their join).  On the ``restart_sgd_growth``
# benchmark workload (up to 8192 rows a trace; ``--seconds 8``, 2-vCPU
# VM), peak RSS read (two runs each, MB) 43.35 / 43.16 at 256 rows,
# 43.22 / 43.23 at 512, 43.78 / 43.74 at 1024 and 44.58 / 44.55 at 4096,
# against 46.36 / 46.28 with whole-trace lists
_CSV_BLOCK_ROWS = 512


def trace_to_csv(trace: RunTrace) -> str:
    """Render the per-iteration records; floats keep full precision.

    Rows are rendered ``_CSV_BLOCK_ROWS`` (512) at a time and the blocks'
    strings joined once, so the Python numbers and row strings of only
    one block are alive at a time: the heap peaks at about twice the
    text's length rather than 3.6 times for whole-trace lists.  The bytes
    do not depend on the block size.
    """
    cols = [np.asarray(c) for c in (trace.t, trace.norm_w, trace.norm_wag,
                                    trace.subopt, trace.grad_noise_sq,
                                    trace.stage)]
    blocks = [_CSV_HEADER + "\n"]
    # up to the longest column, so that columns of unequal length fail the
    # strict zip wherever the shorter ones end
    for i in range(0, max(map(len, cols)), _CSV_BLOCK_ROWS):
        rows = zip(*(c[i:i + _CSV_BLOCK_ROWS].tolist() for c in cols),
                   strict=True)
        blocks.append("".join([_CSV_ROW % row for row in rows]))
    return "".join(blocks)


def csv_records(text, columns) -> tuple[list[str], list[list[str]]]:
    """The header fields and data rows of a CSV text, blank lines skipped.

    ``columns`` maps each column the text must have to the
    ``_FIELD_KINDS`` kind of its fields, or to None if any text will do.
    A header without one of ``columns``, a row whose field count differs
    from the header's, or a field not of its column's kind is a
    ``ValueError`` naming the line.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    header = lines[0][1].split(",") if lines else []
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"line 1: the header lacks column(s) {missing}")
    checks = [(header.index(c), c, *_FIELD_KINDS[kind])
              for c, kind in columns.items() if kind]
    rows = []
    for i, ln in lines[1:]:
        rows.append(ln.split(","))
        if len(rows[-1]) != len(header):
            raise ValueError(f"line {i}: {len(rows[-1])} fields where the "
                             f"header has {len(header)}")
        bad = {}
        for j, name, ok, what in checks:
            if not ok(rows[-1][j]):
                bad.setdefault(what, []).append(name)
        if bad:
            raise ValueError(f"line {i}: " + "; ".join(
                f"{names} must be {what}" for what, names in bad.items()))
    return header, rows


def trace_from_csv(text: str) -> RunTrace:
    header, rows = csv_records(text, _TRACE_COLUMNS)
    if ",".join(header) != _CSV_HEADER:
        raise ValueError(f"not a trace CSV: the header must be {_CSV_HEADER}")
    arr = np.array(rows, dtype=float).reshape(-1, 6)
    return RunTrace({}, arr[:, 0].astype(int), *arr[:, 1:5].T,
                    arr[:, 5].astype(int))


def sha256_text(text: str) -> str:
    """Hex sha256 of a string's UTF-8 bytes."""
    return hashlib.sha256(text.encode()).hexdigest()


def config_hash(config: dict) -> str:
    """Stable content hash of a declarative record (config or schedule)."""
    return sha256_text(canonical_json(config))[:16]
