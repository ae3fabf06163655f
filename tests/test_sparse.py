"""Sparse kernel tests against independent dense oracles."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse

import orthomg as om
import orthomg.cli as cli
from helpers import factor_dtypes, kernel, load_perfbench, random_sparse

# ---------------------------------------------------------------------------
# oracles


def dense_matvec(a, x):
    """Reference product computed row by row with math.fsum."""
    dense = a.toarray()
    n_rows, n_cols = a.shape
    return np.array([math.fsum(dense[i, j] * x[j] for j in range(n_cols))
                     for i in range(n_rows)])


def compensated_dot(x, y):
    return math.fsum(float(xi) * float(yi) for xi, yi in zip(x, y))


# ---------------------------------------------------------------------------
# products


def test_identity_matvec_is_exact():
    eye = scipy.sparse.eye(4, format="csr")
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(om.spmv(eye, x), x)


def test_zero_matrix_matvec():
    a = scipy.sparse.csr_matrix((3, 3))
    assert np.array_equal(om.spmv(a, np.ones(3)), np.zeros(3))
    assert a.nnz == 0


def test_pinned_small_matvec():
    a = scipy.sparse.csr_matrix([[2.0, -1.0, 0.0],
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
    a = scipy.sparse.eye(3, format="csr")
    with pytest.raises(ValueError, match="dimension mismatch"):
        om.spmv(a, np.ones(4))


# ---------------------------------------------------------------------------
# checks where a caller's matrix enters: the hierarchy and both smoothers


def entry_points(a):
    """Each entry point's call on the 4^2 grid matrix ``a``."""
    return [
        lambda: om.hierarchy_from_matrix(a, 4, 2, l_min=4),
        lambda: om.schwarz_setup(a, om.partition_cells(4, 2, 2, 1)),
        lambda: om.bj_setup(a, 2, (4, 2)),
    ]


def bad_copy(row, columns):
    """The 4^2 Poisson matrix with ``row``'s column indices replaced."""
    a = om.assemble_poisson(om.ProblemSpec(dimension=2, cells_per_axis=4))[0]
    indices = a.indices.copy()
    indices[a.indptr[row]:a.indptr[row] + len(columns)] = columns
    return scipy.sparse.csr_matrix((a.data, indices, a.indptr), shape=a.shape)


def test_rejects_bad_offsets():
    # decreasing row offsets, and anything but a square float64 CSR matrix
    a = om.assemble_poisson(om.ProblemSpec(dimension=2, cells_per_axis=4))[0]
    indptr = a.indptr.copy()
    indptr[1], indptr[2] = indptr[2], indptr[1]  # rows 0 and 1 overlap backwards
    decreasing = scipy.sparse.csr_matrix((a.data, a.indices, indptr), shape=a.shape)
    rectangular = scipy.sparse.csr_matrix(np.ones((16, 8)))
    for bad, message in ((decreasing, "offsets must not decrease"), (rectangular, "square"),
                         (a.tocsc(), "CSR"), (a.toarray(), "CSR"),
                         (a.astype(np.float32), "float64")):
        for call in entry_points(bad):
            with pytest.raises(ValueError, match=message):
                call()


def test_rejects_bad_columns():
    # row 5 of the 4^2 grid couples cells 1, 4, 5, 6 and 9
    for columns, message in (([1, 4, 5, 6, 16], "out of range"),
                             ([1, -1, 5, 6, 9], "out of range"),
                             ([1, 4, 4, 6, 9], "sorted and unique"),
                             ([4, 1, 5, 6, 9], "sorted and unique")):
        for call in entry_points(bad_copy(5, columns)):
            with pytest.raises(ValueError, match=message):
                call()


def test_empty_trailing_rows_are_valid():
    # the last grid row decoupled and zeroed: still a valid CSR matrix
    a = om.assemble_poisson(om.ProblemSpec(dimension=2, cells_per_axis=4))[0].tolil()
    a[12:, :] = 0.0
    a[:, 12:] = 0.0
    a = scipy.sparse.csr_matrix(a)
    a.eliminate_zeros()
    assert np.array_equal(np.diff(a.indptr)[12:], [0, 0, 0, 0])
    hierarchy = om.hierarchy_from_matrix(a, 4, 2, l_min=4)
    assert hierarchy.finest.matrix is a and hierarchy.n_levels == 2


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
    a = scipy.sparse.csr_matrix(a)
    return a, om.bj_setup(a, a.shape[0], sweeps=1, precision=precision)


def test_lu_float32_precision():
    # an 8-cell block takes the dense kernel, a 20-cell one the sparse LU
    for n, kind in ((8, "dense"), (20, "sparse")):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        csr, lu32 = whole_matrix_lu(a, precision="float32")
        assert kernel(lu32) == kind
        assert lu32.precision == "float32"
        assert factor_dtypes(lu32) == {np.dtype(np.float32)}
        for _, cells, solver in lu32.chunks:
            assert solver.solve(b[cells].astype(np.float32)).dtype == np.float32
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
# MatrixMarket round trips (written by the command line)


def test_matrix_market_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    a = random_sparse(rng, 7, 5, density=0.4)
    cli.export_system(tmp_path, a, np.zeros(a.shape[0]))
    back = scipy.io.mmread(tmp_path / "system.mtx")
    assert back.shape == a.shape
    assert back.toarray() == pytest.approx(a.toarray(), rel=1e-15, abs=0)


def test_vector_market_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    x = rng.standard_normal(12)
    cli.export_system(tmp_path, scipy.sparse.eye(12, format="csr"), x)
    back = scipy.io.mmread(tmp_path / "rhs.mtx")
    assert back.shape == (12, 1)
    assert back.ravel() == pytest.approx(x, rel=1e-15)


# ---------------------------------------------------------------------------
# the benchmark harness (perfbench/harness.py) reads the library's matrices


def test_perfbench_harness_reads_the_library_matrices():
    harness = load_perfbench("harness")
    spec = om.ProblemSpec(dimension=2, cells_per_axis=16)
    assembled = om.assemble_poisson(spec)[0]
    copy = harness._scipy_matrix(assembled)
    assert copy.shape == assembled.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(copy, name), getattr(assembled, name))
    # set-up, solve and the harness's own checks, on each workload's toy grid
    for workload in load_perfbench("workloads").WORKLOADS.values():
        cfg = workload.tiny().run_config()
        setup = harness.set_up(cfg)
        b = next(harness.right_hand_sides(cfg, 1))
        result, seconds = harness.timed_solve(harness.solver_call(cfg, setup, b))
        sample = harness.make_sample(setup.seconds, b, result, seconds)
        reasons, _, _ = harness.check(sample, *harness.reference_solver(cfg))
        assert reasons == [], (workload.name, reasons)


def test_perfbench_selftest_passes():
    # perfbench's harness and tracer drive this library; a change that breaks
    # them fails here, not only when the benchmark runs
    folder = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=folder,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest passed" in done.stdout
