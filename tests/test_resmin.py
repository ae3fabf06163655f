"""Search-space tests: optimality against dense least squares, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthomg as om
from helpers import random_spd


def lstsq_residual_norm(a_dense, r0, directions):
    """Best possible residual over span(directions), solved densely."""
    images = np.column_stack([a_dense @ z for z in directions])
    coeffs, *_ = np.linalg.lstsq(images, r0, rcond=None)
    return np.linalg.norm(r0 - images @ coeffs)


def test_identity_operator_single_update_solves():
    eye = om.SparseMatrixCsr.identity(5)
    b = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    space = om.rm_init(np.zeros(5), b)
    x, r = om.rm_update(space, eye, b)
    assert x == pytest.approx(b, abs=1e-14)
    assert om.norm2(r) <= 1e-14
    assert space.size == 1


def test_minimizer_matches_dense_least_squares():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(3, 30))
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        r0 = b - om.spmv(a, x0)
        space = om.rm_init(x0, r0)
        m = int(rng.integers(1, n + 1))
        directions = [rng.standard_normal(n) for _ in range(m)]
        for z in directions:
            x, r = om.rm_update(space, a, z)
        best = lstsq_residual_norm(a.to_dense(), r0, directions)
        assert om.norm2(r) <= best + 1e-10
        assert abs(om.norm2(r) - best) <= 1e-10 * max(1.0, om.norm2(r0))
        # returned pair stays consistent: r == b - A x
        assert r == pytest.approx(b - om.spmv(a, x), abs=1e-9 * om.norm2(b))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 60))
def test_residual_norm_never_increases(seed, n, n_updates):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, n)
    b = rng.standard_normal(n)
    space = om.rm_init(np.zeros(n), b, restart_cap=25)
    previous = om.norm2(b)
    for _ in range(n_updates):
        _, r = om.rm_update(space, a, rng.standard_normal(n))
        current = om.norm2(r)
        assert current <= previous * (1.0 + 1e-12)
        previous = current


def test_basis_stays_orthonormal_and_consistent():
    rng = np.random.default_rng(8)
    n = 40
    a = random_spd(rng, n)
    b = rng.standard_normal(n)
    space = om.rm_init(np.zeros(n), b)
    for _ in range(n):
        om.rm_update(space, a, rng.standard_normal(n))
    w = np.column_stack(space.basis)
    gram = w.T @ w
    assert gram == pytest.approx(np.eye(space.size), abs=1e-10)
    # every basis vector is the operator image of its direction
    z = np.column_stack(space.directions)
    assert a.to_dense() @ z == pytest.approx(w, abs=1e-8 * np.abs(w).max())


def test_direction_in_span_breaks_down():
    rng = np.random.default_rng(15)
    a = random_spd(rng, 6)
    b = rng.standard_normal(6)
    space = om.rm_init(np.zeros(6), b)
    z = rng.standard_normal(6)
    x1, r1 = om.rm_update(space, a, z)
    assert space.breakdown_count == 0
    x2, r2 = om.rm_update(space, a, 2.5 * z)  # same direction, rescaled
    assert space.breakdown_count == 1
    assert space.size == 1
    assert np.array_equal(x2, x1)
    assert np.array_equal(r2, r1)


def test_zero_direction_breaks_down():
    a = om.SparseMatrixCsr.identity(4)
    space = om.rm_init(np.zeros(4), np.ones(4))
    x, r = om.rm_update(space, a, np.zeros(4))
    assert space.breakdown_count == 1
    assert space.size == 0
    assert np.array_equal(r, np.ones(4))


def test_zero_anchor_residual_always_breaks_down():
    a = om.SparseMatrixCsr.identity(4)
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    space = om.rm_init(x0, np.zeros(4))
    for _ in range(3):
        x, r = om.rm_update(space, a, np.ones(4))
        assert np.array_equal(x, x0)
        assert np.array_equal(r, np.zeros(4))
    assert space.breakdown_count == 3
    assert space.size == 0


def test_nan_direction_is_rejected():
    a = om.SparseMatrixCsr.identity(3)
    space = om.rm_init(np.zeros(3), np.ones(3))
    bad = np.array([1.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="NaN or Inf"):
        om.rm_update(space, a, bad)
    with pytest.raises(ValueError, match="NaN or Inf"):
        om.rm_update(space, a, np.array([np.inf, 0.0, 0.0]))


def test_wrong_length_direction_is_rejected():
    a = om.SparseMatrixCsr.identity(3)
    space = om.rm_init(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="length"):
        om.rm_update(space, a, np.ones(4))


def test_restart_cap_re_anchors_without_losing_progress():
    rng = np.random.default_rng(23)
    n = 12
    a = random_spd(rng, n)
    b = rng.standard_normal(n)
    space = om.rm_init(np.zeros(n), b, restart_cap=4)
    norms = [om.norm2(b)]
    for _ in range(10):
        _, r = om.rm_update(space, a, rng.standard_normal(n))
        norms.append(om.norm2(r))
    assert space.size <= 4
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
    assert space.breakdown_count == 0  # restarts are not breakdowns


def test_drifted_pairs_re_anchor_and_keep_decreasing():
    # a rejected step whose stored pairs no longer match (w_i != A z_i)
    # restarts from the current minimizer instead of freezing the residual
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 8
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        space = om.rm_init(np.zeros(n), b)
        for _ in range(2):
            om.rm_update(space, a, rng.standard_normal(n))
        stored = space.directions[0].copy()
        space.directions[0] = stored + 0.5 * rng.standard_normal(n)
        _, r_before = space.current_solution()
        x, r = om.rm_update(space, a, stored + 1e-6 * rng.standard_normal(n))
        assert space.reanchor_count == 1
        assert space.breakdown_count == 0
        assert space.size == 1
        assert om.norm2(r) < om.norm2(r_before)
        assert om.norm2(r - (b - om.spmv(a, x))) <= 1e-12 * om.norm2(b)


def test_restart_cap_validation():
    with pytest.raises(ValueError, match="restart_cap"):
        om.rm_init(np.zeros(3), np.ones(3), restart_cap=0)


def test_exact_solve_after_n_independent_directions():
    # n linearly independent directions span R^n, so the minimizer is exact
    rng = np.random.default_rng(37)
    n = 9
    a = random_spd(rng, n)
    b = rng.standard_normal(n)
    space = om.rm_init(np.zeros(n), b)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        x, r = om.rm_update(space, a, e)
    assert om.norm2(r) <= 1e-9 * om.norm2(b)
    assert x == pytest.approx(np.linalg.solve(a.to_dense(), b), rel=1e-7, abs=1e-9)


def test_coefficients_track_basis_size():
    rng = np.random.default_rng(41)
    a = random_spd(rng, 7)
    space = om.rm_init(np.zeros(7), rng.standard_normal(7))
    for _ in range(4):
        om.rm_update(space, a, rng.standard_normal(7))
    assert space.size == len(space.basis) == len(space.directions) == 4
