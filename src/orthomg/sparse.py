"""Sparse CSR kernels underlying the multigrid stack.

CSR is the single matrix format of the public API.  Matrices are treated
as immutable after construction so they can be shared freely across
worker threads.  The heavy kernels (matrix-vector products, triple
products) delegate to scipy behind these interfaces.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

__all__ = [
    "SparseMatrixCsr",
    "spmv",
    "norm2",
    "triple_product",
]


def _index_array(x):
    """``x`` as a contiguous integer array (int64 unless it already is integer)."""
    x = np.asarray(x)
    return np.ascontiguousarray(x, dtype=x.dtype if x.dtype.kind == "i" else np.int64)


@dataclass(eq=False)
class SparseMatrixCsr:
    """Compressed sparse row matrix with float64 values.

    The three arrays are those of ``_scipy``, the scipy CSR matrix every
    product runs on, so each is stored once.  The index arrays take the
    integer type scipy picks for them: int32 whenever the shape and the
    number of stored values fit, else int64.

    Attributes
    ----------
    n_rows, n_cols : int
        Matrix shape.
    row_offsets : integer ndarray, length n_rows + 1
        Start of each row in ``col_indices``/``values``; first entry 0,
        last entry equals the number of stored values.
    col_indices : integer ndarray
        Column index per stored value, strictly increasing within a row.
    values : ndarray of float64
        Stored entries, row-major.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _scipy: scipy.sparse.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self.row_offsets = _index_array(self.row_offsets)
        self.col_indices = _index_array(self.col_indices)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix shape must be non-negative")
        if self.row_offsets.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if self.row_offsets[0] != 0:
            raise ValueError("row_offsets must start at 0")
        if self.col_indices.shape != self.values.shape:
            raise ValueError("col_indices and values must have equal length")
        if self.row_offsets[-1] != self.values.shape[0]:
            raise ValueError("row_offsets must end at the number of stored values")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if self.values.shape[0]:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols:
                raise ValueError("column index out of range")
            # strictly increasing columns within each row
            nnz = self.values.shape[0]
            interior = np.ones(nnz, dtype=bool)
            starts = self.row_offsets[:-1]
            interior[starts[starts < nnz]] = False  # positions that start a row
            if np.any(np.diff(self.col_indices)[interior[1:]] <= 0):
                raise ValueError("column indices must be strictly increasing per row")
        m = scipy.sparse.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols),
        )
        m.has_sorted_indices = True
        self._scipy = m
        self.row_offsets, self.col_indices, self.values = m.indptr, m.indices, m.data

    @property
    def nnz(self):
        return int(self.values.shape[0])

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @classmethod
    def from_scipy(cls, m):
        """Build from any scipy sparse matrix (duplicates summed, indices sorted)."""
        m = scipy.sparse.csr_matrix(m)
        m.sum_duplicates()
        m.sort_indices()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, a):
        """Build from a dense array, storing the nonzero entries."""
        return cls.from_scipy(scipy.sparse.csr_matrix(np.asarray(a, dtype=np.float64)))

    @classmethod
    def identity(cls, n):
        return cls.from_scipy(scipy.sparse.identity(n, format="csr"))

    def to_dense(self):
        return self._scipy.toarray()

    def transpose(self):
        return SparseMatrixCsr.from_scipy(self._scipy.T)

    def scaled(self, factor):
        """Return a copy with all values multiplied by ``factor``."""
        return SparseMatrixCsr(
            self.n_rows, self.n_cols, self.row_offsets, self.col_indices,
            self.values * float(factor),
        )


def spmv(a, x):
    """Sparse matrix-vector product ``a @ x`` in float64.

    Parameters
    ----------
    a : SparseMatrixCsr
    x : array_like, length ``a.n_cols``

    Returns
    -------
    ndarray of float64, length ``a.n_rows``
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.n_cols,):
        raise ValueError(
            f"dimension mismatch: matrix has {a.n_cols} columns, vector has length {x.shape}"
        )
    return a._scipy.dot(x)


def norm2(x):
    """Euclidean norm of a float64 vector."""
    x = np.asarray(x, dtype=np.float64)
    return math.sqrt(float(np.dot(x, x)))


def triple_product(r, a, p):
    """Galerkin triple product ``r @ a @ p`` as a new CSR matrix.

    Entries whose magnitude falls below 1e-300 are dropped so purely
    structural zeros do not accumulate through repeated coarsening.
    """
    if r.n_cols != a.n_rows or a.n_cols != p.n_rows:
        raise ValueError(
            "dimension mismatch in triple product: "
            f"({r.n_rows}x{r.n_cols}) ({a.n_rows}x{a.n_cols}) ({p.n_rows}x{p.n_cols})"
        )
    product = (r._scipy @ a._scipy) @ p._scipy
    product = scipy.sparse.csr_matrix(product)
    keep = np.abs(product.data) >= 1e-300
    if not keep.all():
        product.data[~keep] = 0.0
        product.eliminate_zeros()
    return SparseMatrixCsr.from_scipy(product)
