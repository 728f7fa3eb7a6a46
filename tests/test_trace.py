"""Trace CSV rendering and parsing."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optaccel import make_growth_problem
from optaccel import trace as trace_module
from optaccel.trace import (RunTrace, TraceRecorder, trace_from_csv,
                            trace_to_csv)

SPECIAL = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324,
           -2.2250738585072009e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1, 1.0 / 3.0]


def reference_csv(trace: RunTrace) -> str:
    """The per-value renderer the row-format one must reproduce."""
    def fmt(x):
        return format(float(x), ".17g")

    lines = ["t,norm_w,norm_wag,subopt,grad_noise_sq,stage"]
    for i in range(len(trace.t)):
        lines.append(",".join([
            str(int(trace.t[i])), fmt(trace.norm_w[i]), fmt(trace.norm_wag[i]),
            fmt(trace.subopt[i]), fmt(trace.grad_noise_sq[i]),
            str(int(trace.stage[i]))]))
    return "\n".join(lines) + "\n"


@st.composite
def traces(draw):
    n = draw(st.integers(0, 40))
    steps = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
    floats = st.sampled_from(SPECIAL) | st.floats()
    cols = [np.array(draw(st.lists(floats, min_size=n, max_size=n)),
                     dtype=float) for _ in range(4)]
    stage = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
    return RunTrace(header={}, t=np.cumsum(np.array(steps, dtype=int)),
                    norm_w=cols[0], norm_wag=cols[1], subopt=cols[2],
                    grad_noise_sq=cols[3], stage=np.array(stage, dtype=int))


def assert_matches_reference_and_round_trips(trace):
    text = trace_to_csv(trace)
    assert text.encode() == reference_csv(trace).encode()
    back = trace_from_csv(text)
    for name in ("t", "norm_w", "norm_wag", "subopt", "grad_noise_sq",
                 "stage"):
        got, want = getattr(back, name), getattr(trace, name)
        assert got.dtype.kind == want.dtype.kind
        # the text keeps every bit but a NaN's sign and payload
        if want.dtype.kind == "f":
            want = np.where(np.isnan(want), np.nan, want)
        assert got.tobytes() == want.tobytes(), name


class TestTraceCsv:
    @settings(max_examples=300, deadline=None)
    @given(traces())
    def test_bytes_match_reference_and_round_trip(self, trace):
        # blocks of 1 and 3 rows put block ends inside a drawn trace;
        # hypothesis refuses function-scoped fixtures such as monkeypatch
        for block_rows in (trace_module._CSV_BLOCK_ROWS, 1, 3):
            with mock.patch.object(trace_module, "_CSV_BLOCK_ROWS",
                                   block_rows):
                assert_matches_reference_and_round_trips(trace)

    @pytest.mark.parametrize("n", [511, 512, 513, 1025])
    def test_rows_around_block_ends(self, n):
        # every column cycles through the special values, each from its
        # own offset, and the stage through a few labels
        i = np.arange(n)
        special = np.array(SPECIAL)
        trace = RunTrace({}, 3 * i + 1,
                         *(special[(i + k) % len(SPECIAL)] for k in range(4)),
                         i % 5)
        assert_matches_reference_and_round_trips(trace)

    def test_heap_peak_stays_near_twice_the_text(self):
        # whole-trace lists of Python numbers and row strings peaked at
        # about 3.6 times the text; one block at a time leaves about 2
        n = 8192
        gen = np.random.default_rng(0)
        trace = RunTrace({}, np.arange(1, n + 1),
                         *gen.standard_normal((4, n)), np.arange(n) // 700)
        tracemalloc.start()
        try:
            text = trace_to_csv(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)

    def test_empty_trace(self):
        empty = RunTrace(header={}, t=np.zeros(0, dtype=int),
                         norm_w=np.zeros(0), norm_wag=np.zeros(0),
                         subopt=np.zeros(0), grad_noise_sq=np.zeros(0),
                         stage=np.zeros(0, dtype=int))
        assert trace_to_csv(empty) == reference_csv(empty)
        assert len(trace_from_csv(trace_to_csv(empty)).t) == 0


class TestRunTrace:
    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            RunTrace({}, np.arange(1, 4), *np.zeros((4, 2)),
                     np.zeros(3, dtype=int))


def as_stage_ends(rows):
    """Stage-end rows with each suboptimality as its bytes, so that NaN
    rows compare equal."""
    return [(s, t, np.float64(v).tobytes()) for s, t, v in rows]


class TestStageEndSubopts:
    @settings(max_examples=100, deadline=None)
    @given(traces())
    def test_matches_np_unique_order_also_read_back(self, trace):
        # drawn stage columns are not monotone, as a hand-made CSV's may be
        want = []
        for s in np.unique(trace.stage):
            i = np.flatnonzero(trace.stage == s)[-1]
            want.append((int(s), int(trace.t[i]), float(trace.subopt[i])))
        assert as_stage_ends(trace.stage_end_subopts()) == as_stage_ends(want)
        back = trace_from_csv(trace_to_csv(trace))
        assert [(s, t) for s, t, _ in back.stage_end_subopts()] == \
            [(s, t) for s, t, _ in want]


class TestTraceRecorder:
    @pytest.mark.parametrize("d,rows", [
        (2, 4096), (9, 910), (32, 256), (64, 128), (512, 16), (513, 15),
        (2048, 4), (8192, 1), (8193, 1)])
    def test_block_holds_32768_elements_of_four_vectors_a_row(self, d, rows):
        # a pending row holds w, w_avg, the query point and the gradient
        problem = make_growth_problem(d=d, r=1, lam=0.5, H=1.0, Delta=1.0,
                                      seed=0)
        assert TraceRecorder(problem, "", 1, 1, 0).block_rows == rows

    @pytest.mark.parametrize("d,steps", [(2, 5), (64, 300), (2048, 9)])
    def test_append_copies_the_vectors(self, d, steps):
        # a caller may reuse its arrays once ``append`` returns
        problem = make_growth_problem(d=d, r=1, lam=0.5, H=1.0, Delta=1.0,
                                      seed=0)
        gen = np.random.default_rng(d)
        rows = gen.standard_normal((steps, 4, d))
        kept, reused = (TraceRecorder(problem, "", 1, steps, 0)
                        for _ in range(2))
        scratch = np.empty((4, d))
        for row in rows:
            kept.append(*row.copy())
            scratch[:] = row
            reused.append(*scratch)
            scratch[:] = np.nan
        assert trace_to_csv(reused.build()) == trace_to_csv(kept.build())
