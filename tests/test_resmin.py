"""Search-space tests: optimality against dense least squares, invariants."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import orthomg as om
import orthomg.resmin as resmin
from helpers import benchmark_setup, random_spd


def lstsq_residual_norm(a_dense, r0, directions):
    """Best possible residual over span(directions), solved densely."""
    images = np.column_stack([a_dense @ z for z in directions])
    coeffs, *_ = np.linalg.lstsq(images, r0, rcond=None)
    return np.linalg.norm(r0 - images @ coeffs)


def test_identity_operator_single_update_solves():
    eye = scipy.sparse.eye(5, format="csr")
    b = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    space = om.rm_init(np.zeros(5), b)
    r = om.rm_update(space, eye, b)
    x = space.minimizer[0]
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
            r = om.rm_update(space, a, z)
            x = space.minimizer[0]
        best = lstsq_residual_norm(a.toarray(), r0, directions)
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
        r = om.rm_update(space, a, rng.standard_normal(n))
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
    assert a.toarray() @ z == pytest.approx(w, abs=1e-8 * np.abs(w).max())


def test_direction_in_span_breaks_down():
    rng = np.random.default_rng(15)
    a = random_spd(rng, 6)
    b = rng.standard_normal(6)
    space = om.rm_init(np.zeros(6), b)
    z = rng.standard_normal(6)
    r1 = om.rm_update(space, a, z)
    x1 = space.minimizer[0]
    assert space.breakdown_count == 0
    r2 = om.rm_update(space, a, 2.5 * z)  # same direction, rescaled
    x2 = space.minimizer[0]
    assert space.breakdown_count == 1
    assert space.size == 1
    assert np.array_equal(x2, x1)
    assert np.array_equal(r2, r1)


def test_zero_direction_breaks_down():
    a = scipy.sparse.eye(4, format="csr")
    space = om.rm_init(np.zeros(4), np.ones(4))
    r = om.rm_update(space, a, np.zeros(4))
    assert space.breakdown_count == 1
    assert space.size == 0
    assert np.array_equal(r, np.ones(4))


def test_zero_anchor_residual_always_breaks_down():
    a = scipy.sparse.eye(4, format="csr")
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    space = om.rm_init(x0, np.zeros(4))
    for _ in range(3):
        r = om.rm_update(space, a, np.ones(4))
        x = space.minimizer[0]
        assert np.array_equal(x, x0)
        assert np.array_equal(r, np.zeros(4))
    assert space.breakdown_count == 3
    assert space.size == 0


def test_nan_direction_is_rejected():
    a = scipy.sparse.eye(3, format="csr")
    space = om.rm_init(np.zeros(3), np.ones(3))
    bad = np.array([1.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="NaN or Inf"):
        om.rm_update(space, a, bad)
    with pytest.raises(ValueError, match="NaN or Inf"):
        om.rm_update(space, a, np.array([np.inf, 0.0, 0.0]))


def test_wrong_length_direction_is_rejected():
    a = scipy.sparse.eye(3, format="csr")
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
        r = om.rm_update(space, a, rng.standard_normal(n))
        norms.append(om.norm2(r))
    assert space.size <= 4
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
    assert space.breakdown_count == 0  # restarts are not breakdowns


def test_carried_residual_norm_is_the_residuals_norm():
    # the norm an update computed for its residual is carried bit for bit
    # through accepted updates, a breakdown and restarts
    rng = np.random.default_rng(29)
    n = 12
    a = random_spd(rng, n)
    b = rng.standard_normal(n)
    space = om.rm_init(np.zeros(n), b, restart_cap=4)
    assert space.residual_norm == om.norm2(b)
    directions = [rng.standard_normal(n) for _ in range(10)]
    directions.insert(3, directions[2])  # already in the span: breaks down
    for z in directions:
        r = om.rm_update(space, a, z)
        assert r is space.residual and space.residual_norm == om.norm2(r)
    assert space.breakdown_count == 1


def test_near_dependent_direction_breaks_down():
    # a stored direction plus noise of relative size 1e-10 keeps almost none
    # of its image after projection; normalizing it would make the pairs drift
    rng = np.random.default_rng(1)
    n = 30
    a = random_spd(rng, n)
    space = om.rm_init(np.zeros(n), rng.standard_normal(n))
    for _ in range(3):
        om.rm_update(space, a, rng.standard_normal(n))
    assert space.breakdown_count == 0
    for i in range(10):
        stored = space.directions[i % 3]
        noise = rng.standard_normal(n)
        noise *= 1e-10 * om.norm2(stored) / om.norm2(noise)
        om.rm_update(space, a, stored + noise)
    assert space.breakdown_count == 10
    assert space.size == 3
    a_dense = a.toarray()
    drift = max(om.norm2(a_dense @ z - w) for z, w in zip(space.directions, space.basis))
    assert drift <= 1e-12


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
        r = om.rm_update(space, a, e)
        x = space.minimizer[0]
    assert om.norm2(r) <= 1e-9 * om.norm2(b)
    assert x == pytest.approx(np.linalg.solve(a.toarray(), b), rel=1e-7, abs=1e-9)


def test_coefficients_track_basis_size():
    rng = np.random.default_rng(41)
    a = random_spd(rng, 7)
    space = om.rm_init(np.zeros(7), rng.standard_normal(7))
    for _ in range(4):
        om.rm_update(space, a, rng.standard_normal(7))
    assert space.size == len(space.basis) == len(space.directions) == 4


def test_near_dependent_chain_keeps_pairs_consistent():
    # each direction is the last stored one plus a little noise, so every
    # projection cancels heavily; a pair accepted from such a direction
    # inherits the previous pair's mismatch magnified by that cancellation
    rng = np.random.default_rng(1)
    n = 30
    a = random_spd(rng, n)
    space = om.rm_init(np.zeros(n), rng.standard_normal(n))
    om.rm_update(space, a, rng.standard_normal(n))
    for i in range(8):
        stored = space.directions[-1]
        noise = rng.standard_normal(n)
        noise *= (1e-4, 1e-5, 1e-6)[i % 3] * om.norm2(stored) / om.norm2(noise)
        om.rm_update(space, a, stored + noise)
    a_dense = a.toarray()
    drift = max(om.norm2(a_dense @ z - w) for z, w in zip(space.directions, space.basis))
    assert drift <= 1e-8


def galerkin_residual(a_dense, r0, directions):
    """``r0 - A Z (Z^T A Z)^{-1} Z^T r0``, solved densely."""
    z = np.column_stack(directions)
    az = a_dense @ z
    return r0 - az @ np.linalg.solve(z.T @ az, z.T @ r0)


def test_proposal_is_the_galerkin_residual():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(5, 30))
        a = random_spd(rng, n)
        r0 = rng.standard_normal(n)
        space = om.rm_init(np.zeros(n), r0)
        assert np.array_equal(space.proposal, r0)
        directions = []
        for _ in range(int(rng.integers(1, n))):
            directions.append(rng.standard_normal(n))
            om.rm_update(space, a, directions[-1])
            expected = galerkin_residual(a.toarray(), r0, directions)
            assert om.norm2(space.proposal - expected) <= 1e-10 * om.norm2(expected)
        assert np.array_equal(space.galerkin_matrix, space.galerkin_matrix.T)
        assert space.breakdown_count == 0


def test_proposal_after_breakdown_is_the_least_squares_residual():
    rng = np.random.default_rng(15)
    n = 8
    a = random_spd(rng, n)
    r0 = rng.standard_normal(n)
    space = om.rm_init(np.zeros(n), r0)
    z = rng.standard_normal(n)
    om.rm_update(space, a, z)
    r = om.rm_update(space, a, rng.standard_normal(n))
    assert not np.array_equal(space.proposal, r)
    r = om.rm_update(space, a, -3.0 * z)  # in the span: breaks down
    assert space.breakdown_count == 1
    assert np.array_equal(space.proposal, r)
    # the next accepted direction makes the proposal Galerkin again
    om.rm_update(space, a, rng.standard_normal(n))
    expected = galerkin_residual(a.toarray(), r0, space.directions)
    assert om.norm2(space.proposal - expected) <= 1e-10 * om.norm2(expected)


def test_restart_clears_the_galerkin_system():
    rng = np.random.default_rng(23)
    n = 12
    a = random_spd(rng, n)
    space = om.rm_init(np.zeros(n), rng.standard_normal(n), restart_cap=3)
    for _ in range(3):
        r = om.rm_update(space, a, rng.standard_normal(n))
    assert space.galerkin_matrix.shape == (3, 3)
    assert space.galerkin_rhs.shape == (3,)
    z = rng.standard_normal(n)
    om.rm_update(space, a, z)  # restarts from (x, r), then folds z in
    assert space.size == 1
    assert space.galerkin_matrix.shape == (1, 1)
    assert space.galerkin_rhs.shape == (1,)
    expected = galerkin_residual(a.toarray(), r, [z])
    assert om.norm2(space.proposal - expected) <= 1e-10 * om.norm2(expected)


def disc_level():
    """64^2 disc operator, a standard-normal right-hand side and a Schwarz
    smoother of 4x4-cell subdomains, weak enough that 60 corrections do not
    reach rounding."""
    _, h, _, smoothers = benchmark_setup(cells=64, n_subdomains=256)
    b = np.random.default_rng(1).standard_normal(h.finest.n_dofs)
    return h.finest.matrix, b, smoothers[0]


def fold_smoother_corrections(a, b, smoother, count):
    space = om.rm_init(np.zeros(a.shape[0]), b)
    for _ in range(count):
        om.rm_update(space, a, smoother.apply(a, space.proposal))
    assert space.size == count and space.breakdown_count == 0
    return space


def raw_directions(space):
    """The stored directions ``D``, each scaled to a unit image, one per row."""
    return np.concatenate([panel[1] for _, panel in space._blocks()])


def check_block_storage(space, a):
    w, d, r = space.basis, raw_directions(space), space.r_factor
    assert w.shape == d.shape == (space.size, a.shape[0])
    assert np.abs(w @ w.T - np.eye(space.size)).max() <= 1e-10
    # A D = W R with R upper triangular
    assert np.array_equal(r, np.triu(r))
    images = a.toarray() @ d.T
    drift = np.linalg.norm(images - w.T @ r, axis=0)
    assert (drift <= 1e-12 * np.linalg.norm(images, axis=0)).all()
    h = space.galerkin_matrix
    assert np.array_equal(h, h.T)
    assert np.abs(h - d @ images).max() <= 1e-12 * np.abs(h).max()
    # directions = D R^{-1}, and their images are the basis
    z = space.directions
    assert np.abs(z.T @ r - d.T).max() <= 1e-12 * np.abs(d).max()
    drift = np.linalg.norm(a.toarray() @ z.T - w.T, axis=0)
    assert (drift <= 1e-8 * np.linalg.norm(w, axis=1)).all()


@pytest.mark.parametrize("panel_rows", [resmin.PANEL_ROWS, 7])
def test_block_storage_invariants_at_solve_scale(monkeypatch, panel_rows):
    # 60 smoother corrections of the 64^2 disc operator, in full panels and
    # in panels of 7 rows, the last one partly filled
    monkeypatch.setattr(resmin, "PANEL_ROWS", panel_rows)
    a, b, smoother = disc_level()
    space = fold_smoother_corrections(a, b, smoother, 60)
    assert len(space._panels) == -(-60 // panel_rows)
    check_block_storage(space, a)


def count_gram_schmidt_passes(monkeypatch):
    """A list that gains one entry per Gram-Schmidt pass from now on."""
    passes = []
    first_pass = resmin._orthogonalize

    def counting(*args):
        passes.append(1)
        return first_pass(*args)

    monkeypatch.setattr(resmin, "_orthogonalize", counting)
    return passes


def test_heavy_cancellation_runs_the_second_gram_schmidt_pass(monkeypatch):
    a, b, smoother = disc_level()
    space = fold_smoother_corrections(a, b, smoother, 20)
    passes = count_gram_schmidt_passes(monkeypatch)
    # a stored direction (image of norm 1) plus 1e-3 of a new correction
    # scaled to the same image norm keeps about 1e-3 of its image after the
    # first pass
    fresh = smoother.apply(a, space.proposal)
    fresh /= om.norm2(om.spmv(a, fresh))
    om.rm_update(space, a, space.directions[11] + 1e-3 * fresh)
    assert len(passes) == 2
    assert space.size == 21 and space.breakdown_count == 0
    check_block_storage(space, a)


@pytest.mark.parametrize("share", [1e-2, 1e-3])
def test_second_gram_schmidt_pass_enters_r(monkeypatch, share):
    # In panels of 32 rows Gram-Schmidt is classical across 32 basis vectors,
    # and after 60 corrections the basis is about 6e-11 from orthonormal,
    # so the first pass leaves components of that size along the basis.
    # The second pass removes them from w and must add them to R's new
    # column: without them A d = W R e_k fails by 1.5e-11 at a share of
    # 1e-2, and the drift check rejects the direction at 1e-3.
    monkeypatch.setattr(resmin, "PANEL_ROWS", 32)
    a, b, smoother = disc_level()
    space = fold_smoother_corrections(a, b, smoother, 60)
    w = space.basis
    assert np.abs(w @ w.T - np.eye(60)).max() >= 1e-12
    fresh = smoother.apply(a, space.proposal)
    fresh /= om.norm2(om.spmv(a, fresh))
    passes = count_gram_schmidt_passes(monkeypatch)
    om.rm_update(space, a, space.directions[30] + share * fresh)
    assert len(passes) == 2
    assert space.size == 61 and space.breakdown_count == 0
    image = om.spmv(a, raw_directions(space)[60])
    column = space.basis.T @ space.r_factor[:, 60]
    assert om.norm2(image - column) <= 1e-13 * om.norm2(image)


def test_storage_grows_by_panels_and_a_restart_reuses_it():
    # restart_cap rows of this length would take 320 MB per matrix
    n = 200_000
    a = scipy.sparse.csr_matrix(scipy.sparse.diags(np.linspace(1.0, 2.0, n)))
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        space = om.rm_init(np.zeros(n), rng.standard_normal(n), restart_cap=200)
        for _ in range(3):
            om.rm_update(space, a, rng.standard_normal(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.size == 3
    assert peak <= 20 * 8 * n

    space = om.rm_init(np.zeros(n), rng.standard_normal(n), restart_cap=3)
    for _ in range(3):
        om.rm_update(space, a, rng.standard_normal(n))
    panels = list(space._panels)
    for _ in range(6):  # two restarts
        om.rm_update(space, a, rng.standard_normal(n))
    assert space.size == 3
    assert all(new is old for new, old in zip(space._panels, panels))
    assert len(space._panels) == len(panels)
