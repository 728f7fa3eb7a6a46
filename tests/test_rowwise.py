"""NumPy's ``matvec``, ``vecmat`` and ``vecdot`` equal one ``.dot`` call per
row, bit for bit, on a stack, on one point and on a point broadcast
against a stack.

Every trace column and stacked closed form rests on this.  A NumPy or BLAS
build whose row kernels stop making the per-row call fails here by kernel
and shape, before it shows as a changed trace hash.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from optaccel.trace import TraceRecorder

N_ATOMS = (1, 16, 63)
ROWS = (1, 2, 5, 64, 257)


def largest_block(d):
    """The most rows a ``TraceRecorder`` evaluates in one block at ``d``."""
    problem = SimpleNamespace(d=d, config=dict)
    return TraceRecorder(problem, "", 1, 1, 0).block_rows


def same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


D_BLOCKS = [(1, 8192), (7, 1170), (32, 256), (64, 128), (513, 15),
            (2048, 4)]


def assert_no_mismatches(mismatches):
    assert not mismatches, (f"not batch-invariant under NumPy "
                            f"{np.__version__}: " + "; ".join(mismatches))


@pytest.mark.parametrize("d,block", D_BLOCKS)
def test_stacked_kernels_match_per_row_dot(d, block):
    assert largest_block(d) == block
    gen = np.random.default_rng(d)
    mismatches = []
    for k in sorted({*ROWS, block}):
        X = gen.standard_normal((k, d))
        Y = gen.standard_normal((k, d))
        if not same_bits(np.vecdot(X, Y),
                         [x.dot(y) for x, y in zip(X, Y)]):
            mismatches.append(f"vecdot at k={k}, d={d}")
        for n in N_ATOMS:
            F = gen.standard_normal((n, d))
            U = gen.standard_normal((k, n))
            if not same_bits(np.matvec(F, X), [F.dot(x) for x in X]):
                mismatches.append(f"matvec at k={k}, n_atoms={n}, d={d}")
            if not same_bits(np.vecmat(U, F), [u.dot(F) for u in U]):
                mismatches.append(f"vecmat at k={k}, n_atoms={n}, d={d}")
    assert_no_mismatches(mismatches)


@pytest.mark.parametrize("d,block", D_BLOCKS)
def test_one_point_and_broadcast_kernels_match_per_row_dot(d, block):
    # a (d,) point takes no one-row stack on its way in, and
    # check_projection_lemma broadcasts one gradient against a stack
    gen = np.random.default_rng(d + 1)
    mismatches = []
    for k in sorted({*ROWS, block}):
        X = gen.standard_normal((k, d))
        g = gen.standard_normal(d)
        if not same_bits(np.vecdot(g, X), [g.dot(x) for x in X]):
            mismatches.append(f"broadcast vecdot at k={k}, d={d}")
    x, y = gen.standard_normal(d), gen.standard_normal(d)
    if not same_bits(np.vecdot(x, y), x.dot(y)):
        mismatches.append(f"one-point vecdot at d={d}")
    for n in N_ATOMS:
        F = gen.standard_normal((n, d))
        u = gen.standard_normal(n)
        if not same_bits(np.matvec(F, x), F.dot(x)):
            mismatches.append(f"one-point matvec at n_atoms={n}, d={d}")
        if not same_bits(np.vecmat(u, F), u.dot(F)):
            mismatches.append(f"one-point vecmat at n_atoms={n}, d={d}")
    assert_no_mismatches(mismatches)
