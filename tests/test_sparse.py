"""Sparse kernel tests against independent dense oracles."""

import math

import numpy as np
import pytest

import orthomg as om
from helpers import kernel, random_sparse

# ---------------------------------------------------------------------------
# oracles


def dense_matvec(a, x):
    """Reference product computed row by row with math.fsum."""
    dense = a.to_dense()
    return np.array([math.fsum(dense[i, j] * x[j] for j in range(a.n_cols))
                     for i in range(a.n_rows)])


def compensated_dot(x, y):
    return math.fsum(float(xi) * float(yi) for xi, yi in zip(x, y))


# ---------------------------------------------------------------------------
# CSR construction and validation


def test_identity_matvec_is_exact():
    eye = om.SparseMatrixCsr.identity(4)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(om.spmv(eye, x), x)


def test_zero_matrix_matvec():
    a = om.SparseMatrixCsr(3, 3, [0, 0, 0, 0], [], [])
    assert np.array_equal(om.spmv(a, np.ones(3)), np.zeros(3))
    assert a.nnz == 0


def test_pinned_small_matvec():
    a = om.SparseMatrixCsr.from_dense([[2.0, -1.0, 0.0],
                                       [-1.0, 2.0, -1.0],
                                       [0.0, -1.0, 2.0]])
    x = np.array([1.0, 10.0, 100.0])
    assert np.array_equal(om.spmv(a, x), np.array([-8.0, -81.0, 190.0]))


def test_matvec_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n_rows = int(rng.integers(1, 9))
        n_cols = int(rng.integers(1, 9))
        a = random_sparse(rng, n_rows, n_cols, density=0.5)
        x = rng.standard_normal(n_cols)
        expected = dense_matvec(a, x)
        assert om.spmv(a, x) == pytest.approx(expected, abs=1e-14, rel=1e-14)


def test_matvec_dimension_mismatch():
    a = om.SparseMatrixCsr.identity(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        om.spmv(a, np.ones(4))


def test_from_dense_round_trip():
    rng = np.random.default_rng(21)
    dense = np.where(rng.random((6, 4)) < 0.4, rng.standard_normal((6, 4)), 0.0)
    a = om.SparseMatrixCsr.from_dense(dense)
    assert np.array_equal(a.to_dense(), dense)
    assert a.shape == (6, 4)


def test_transpose_matches_dense():
    rng = np.random.default_rng(3)
    a = random_sparse(rng, 5, 7)
    assert np.array_equal(a.transpose().to_dense(), a.to_dense().T)


def test_scaled():
    a = om.SparseMatrixCsr.from_dense([[1.0, 0.0], [0.0, -2.0]])
    assert np.array_equal(a.scaled(0.5).to_dense(), [[0.5, 0.0], [0.0, -1.0]])


def test_rejects_bad_offsets():
    with pytest.raises(ValueError, match="start at 0"):
        om.SparseMatrixCsr(2, 2, [1, 1, 1], [], [])
    with pytest.raises(ValueError, match="non-decreasing"):
        om.SparseMatrixCsr(3, 2, [0, 2, 1, 2], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="length n_rows"):
        om.SparseMatrixCsr(2, 2, [0, 1], [0], [1.0])
    with pytest.raises(ValueError, match="number of stored values"):
        om.SparseMatrixCsr(2, 2, [0, 1, 3], [0, 1], [1.0, 1.0])


def test_rejects_bad_columns():
    with pytest.raises(ValueError, match="out of range"):
        om.SparseMatrixCsr(1, 2, [0, 1], [2], [1.0])
    # duplicate column within a row
    with pytest.raises(ValueError, match="strictly increasing"):
        om.SparseMatrixCsr(1, 3, [0, 2], [1, 1], [1.0, 1.0])
    # unsorted columns within a row
    with pytest.raises(ValueError, match="strictly increasing"):
        om.SparseMatrixCsr(1, 3, [0, 2], [2, 0], [1.0, 1.0])


def test_empty_trailing_rows_are_valid():
    a = om.SparseMatrixCsr(3, 3, [0, 1, 1, 1], [0], [5.0])
    assert a.to_dense()[0, 0] == 5.0
    assert np.array_equal(a.to_dense()[1:], np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# vector kernels


def test_norm2():
    assert om.norm2([3.0, 4.0]) == 5.0
    assert om.norm2(np.zeros(10)) == 0.0
    rng = np.random.default_rng(13)
    x = rng.standard_normal(100)
    assert om.norm2(x) == pytest.approx(math.sqrt(compensated_dot(x, x)), rel=1e-14)


# ---------------------------------------------------------------------------
# local sparse LU (one block-Jacobi tile spanning the whole matrix, so a
# single undamped sweep is one sparse LU solve with A)


def whole_matrix_lu(a, precision="float64"):
    a = om.SparseMatrixCsr.from_dense(a)
    return a, om.bj_setup(a, a.n_rows, sweeps=1, precision=precision)


def test_lu_float32_precision():
    # an 8-cell block takes the dense kernel, a 20-cell one the sparse LU
    for n, kind in ((8, "dense"), (20, "sparse")):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        csr, lu32 = whole_matrix_lu(a, precision="float32")
        assert kernel(lu32) == kind
        assert lu32.precision == "float32"
        assert lu32.block_diagonal.dtype == np.float32
        for rows, solver in lu32.chunks:
            assert solver.solve(b[rows].astype(np.float32)).dtype == np.float32
        x32 = lu32.apply(csr, b)
        assert x32.dtype == np.float64  # result promoted back
        exact = np.linalg.solve(a, b)
        assert x32 == pytest.approx(exact, rel=1e-4, abs=1e-4), n
        assert not np.array_equal(x32, whole_matrix_lu(a)[1].apply(csr, b))


def test_lu_singular_raises():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(om.SingularMatrixError, match="singular"):
        whole_matrix_lu(singular)


def test_lu_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        whole_matrix_lu(np.ones((2, 3)))


def test_lu_unknown_precision():
    with pytest.raises(ValueError, match="unknown precision"):
        whole_matrix_lu(np.eye(2), precision="float16")


# ---------------------------------------------------------------------------
# triple product


def test_triple_product_matches_dense():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n_fine = int(rng.integers(2, 10))
        n_coarse = int(rng.integers(1, n_fine + 1))
        r = random_sparse(rng, n_coarse, n_fine, density=0.5)
        a = random_sparse(rng, n_fine, n_fine, density=0.5)
        p = random_sparse(rng, n_fine, n_coarse, density=0.5)
        got = om.triple_product(r, a, p).to_dense()
        want = r.to_dense() @ a.to_dense() @ p.to_dense()
        assert got == pytest.approx(want, abs=1e-13)


def test_triple_product_shape_mismatch():
    a = om.SparseMatrixCsr.identity(3)
    b = om.SparseMatrixCsr.identity(4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        om.triple_product(a, b, a)


# ---------------------------------------------------------------------------
# MatrixMarket round trips


def test_matrix_market_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    a = random_sparse(rng, 7, 5, density=0.4)
    path = tmp_path / "a.mtx"
    om.write_matrix_market(a, path)
    back = om.read_matrix_market(path)
    assert back.shape == a.shape
    assert back.to_dense() == pytest.approx(a.to_dense(), rel=1e-15, abs=0)


def test_vector_market_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    x = rng.standard_normal(12)
    path = tmp_path / "x.mtx"
    om.write_vector_market(x, path)
    assert om.read_vector_market(path) == pytest.approx(x, rel=1e-15)
