"""Functions on scipy CSR matrices, the library's one (immutable, shared) matrix type."""

import math

import numpy as np
import scipy.sparse

__all__ = ["spmv", "norm2"]


class _Csr(scipy.sparse.csr_matrix):
    """scipy's CSR matrix plus read-only aliases that the benchmark harness reads."""

    n_rows = property(lambda self: self.shape[0])
    n_cols = property(lambda self: self.shape[1])
    row_offsets = property(lambda self: self.indptr)
    col_indices = property(lambda self: self.indices)
    values = property(lambda self: self.data)


def csr(*args, **kwargs):
    """``csr_matrix(*args, **kwargs)`` with duplicates summed and each row's columns sorted."""
    m = scipy.sparse.csr_matrix(*args, **kwargs)
    m.sum_duplicates()
    return _Csr((m.data, m.indices, m.indptr), shape=m.shape)


def check_csr(a):
    """Check a caller's matrix where it enters: the smoothers need ascending columns."""
    if not (scipy.sparse.issparse(a) and a.format == "csr" and a.shape[0] == a.shape[1]
            and a.dtype == np.float64):
        raise ValueError(f"expected a square float64 scipy CSR matrix, got {type(a).__name__}")
    if a.nnz and not 0 <= a.indices.min() <= a.indices.max() < a.shape[1]:
        raise ValueError("column index out of range")
    if not a.has_canonical_format:
        raise ValueError("row offsets must not decrease; columns must be sorted and unique")


def spmv(a, x):
    """Sparse matrix-vector product ``a @ x`` in float64."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.shape[1],):
        raise ValueError(f"dimension mismatch: {a.shape} matrix, vector of shape {x.shape}")
    return a.dot(x)


def norm2(x):
    """Euclidean norm of a float64 vector."""
    x = np.asarray(x, dtype=np.float64)
    return math.sqrt(float(np.dot(x, x)))

