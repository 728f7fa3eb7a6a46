"""Batch-invariant row kernels: row ``i`` of a stacked call equals the
single-row call on row ``i`` bit for bit.

Each kernel is one stacked ``np.matmul`` whose per-row product is a
matrix-vector or vector-vector shape.  NumPy's matmul makes one BLAS
``gemv`` or ``ddot`` call per row for these shapes, the same call the 1-D
``.dot`` forms make, so a stacked evaluation rounds exactly as evaluating
the rows one at a time, however many rows a stack holds.  A gemm-shaped
product (``X @ M.T``), ``einsum`` or ``(X * Y).sum(-1)`` reduces in another
order and does not have this property.  Stacks must be C-contiguous
``(k, d)`` float64 arrays; the tests pin every kernel to the 1-D forms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gemv", "vecmat", "rowdot"]


def gemv(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``M.dot(X[i])``."""
    return np.matmul(M, X[:, :, None])[:, :, 0]


def vecmat(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``X[i].dot(M)``."""
    return np.matmul(X[:, None, :], M)[:, 0, :]


def rowdot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Entry ``i`` is ``X[i].dot(Y[i])``."""
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]
