"""Trace CSV rendering and parsing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from optaccel.trace import RunTrace, trace_from_csv, trace_to_csv

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


class TestTraceCsv:
    @settings(max_examples=300, deadline=None)
    @given(traces())
    def test_bytes_match_reference_and_round_trip(self, trace):
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

    def test_empty_trace(self):
        empty = RunTrace(header={}, t=np.zeros(0, dtype=int),
                         norm_w=np.zeros(0), norm_wag=np.zeros(0),
                         subopt=np.zeros(0), grad_noise_sq=np.zeros(0),
                         stage=np.zeros(0, dtype=int))
        assert trace_to_csv(empty) == reference_csv(empty)
        assert len(trace_from_csv(trace_to_csv(empty)).t) == 0
