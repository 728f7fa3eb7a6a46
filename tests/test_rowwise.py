"""The stacked row kernels equal one ``.dot`` call per row, bit for bit.

Every trace column and stacked closed form rests on this.  A NumPy or BLAS
build whose stacked ``matmul`` stops making the per-row call fails here by
kernel and shape, before it shows as a changed trace hash.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from optaccel.rowwise import gemv, rowdot, vecmat
from optaccel.trace import TraceRecorder

N_ATOMS = (1, 16, 63)
ROWS = (1, 2, 5, 64, 257)


def largest_block(d):
    """The most rows a ``TraceRecorder`` evaluates in one block at ``d``."""
    problem = SimpleNamespace(d=d, config=dict)
    return TraceRecorder(problem, "", 1, 1, 0).block_rows


@pytest.mark.parametrize("d,block", [(1, 8192), (7, 1170), (32, 256),
                                     (64, 128), (513, 15), (2048, 4)])
def test_stacked_kernels_match_per_row_dot(d, block):
    assert largest_block(d) == block
    gen = np.random.default_rng(d)
    mismatches = []
    for k in sorted({*ROWS, block}):
        X = gen.standard_normal((k, d))
        Y = gen.standard_normal((k, d))
        if (rowdot(X, Y).tobytes()
                != np.array([x.dot(y) for x, y in zip(X, Y)]).tobytes()):
            mismatches.append(f"rowdot at k={k}, d={d}")
        for n in N_ATOMS:
            F = gen.standard_normal((n, d))
            U = gen.standard_normal((k, n))
            if (gemv(F, X).tobytes()
                    != np.array([F.dot(x) for x in X]).tobytes()):
                mismatches.append(f"gemv at k={k}, n_atoms={n}, d={d}")
            if (vecmat(U, F).tobytes()
                    != np.array([u.dot(F) for u in U]).tobytes()):
                mismatches.append(f"vecmat at k={k}, n_atoms={n}, d={d}")
    assert not mismatches, "not batch-invariant: " + "; ".join(mismatches)
