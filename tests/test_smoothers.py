"""Partitioner and smoother tests against dense per-subdomain oracles."""

import itertools
import os
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import orthomg as om
from helpers import (factor_arrays, factor_dtypes, kernel, load_perfbench, reference_blocks,
                     reference_partition, same_setup)
from orthomg import problem, smoothers
from orthomg.config import build_level_smoothers, build_problem_spec, subdomain_count

# ---------------------------------------------------------------------------
# oracles


def grow_oracle(core, cells, dimension, layers):
    """Face-neighbour expansion of a cell set, one ring per layer."""
    shape = (cells,) * dimension
    current = {int(c) for c in core}
    for _ in range(layers):
        added = set()
        for flat in current:
            idx = np.unravel_index(flat, shape)
            for axis in range(dimension):
                for step in (-1, 1):
                    nb = list(idx)
                    nb[axis] += step
                    if 0 <= nb[axis] < cells:
                        added.add(int(np.ravel_multi_index(nb, shape)))
        current |= added
    return current


def schwarz_oracle(a_dense, partition, r, sweeps):
    z = np.zeros_like(r)
    for sweep in range(sweeps):
        defect = r - a_dense @ z if sweep else r.copy()
        for ext in partition.extended_cells:
            local = np.linalg.solve(a_dense[np.ix_(ext, ext)], defect[ext])
            z[ext] += local
    return z


def bj_oracle(a_dense, blocks, omega, sweeps, r):
    z = np.zeros_like(r)
    for sweep in range(sweeps):
        defect = r - a_dense @ z if sweep else r.copy()
        for block in blocks:
            local = np.linalg.solve(a_dense[np.ix_(block, block)], defect[block])
            z[block] += omega * local
    return z


def poisson_matrix(cells, dimension=2):
    spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells)
    a, _ = om.assemble_poisson(spec)
    return a


def disc_matrix(dimension, cells):
    """The benchmark's disc (ball) operator, ``k_outer`` = 1000."""
    spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells, k_outer=1000.0)
    return om.assemble_poisson(spec)[0]


def summed_local_solves(a, sets, r):
    """Sum over the sets ``s`` of dense ``solve(A[s][:, s], r[s])``."""
    csr = a
    z = np.zeros_like(r)
    for s in sets:
        z[s] += np.linalg.solve(csr[s][:, s].toarray(), r[s])
    return z


def distinct_blocks(a, sets):
    sizes = np.array([len(s) for s in sets])
    return len(reference_blocks(a, sets, sizes, "float64")[0])


# ---------------------------------------------------------------------------
# partitioning


def test_partition_1d_pinned():
    p = om.partition_cells(8, 1, 2, 1)
    assert [list(c) for c in p.core_cells] == [[0, 1, 2, 3], [4, 5, 6, 7]]
    # the second box lies past the grid's centre, so its window runs backwards
    assert [list(c) for c in p.extended_cells] == [[0, 1, 2, 3, 4], [7, 6, 5, 4, 3]]


@pytest.mark.parametrize("dimension", [2, 3])
def test_reflected_boxes_list_reflected_cells_alike(dimension):
    # each reflection of the 16^d grid maps its 16 boxes onto one another,
    # and no box is centred on an axis (such a box is its own image, walked
    # forwards either way)
    n, shape = 16, (16,) * dimension
    p = om.partition_cells(n, dimension, 16, 1)
    box = {core.tobytes(): k for k, core in enumerate(p.core_cells)}
    for flips in itertools.product((False, True), repeat=dimension):
        def reflect(cells):
            xs = np.unravel_index(cells, shape)
            return np.ravel_multi_index([n - 1 - x if f else x for x, f in zip(xs, flips)], shape)

        for core, ext in zip(p.core_cells, p.extended_cells):
            image = box[np.sort(reflect(core)).tobytes()]
            assert np.array_equal(p.extended_cells[image], reflect(ext)), flips


def test_partition_quadrants():
    p = om.partition_cells(16, 2, 4, 1)
    assert len(p.core_cells) == len(p.extended_cells) == 4
    assert [len(c) for c in p.core_cells] == [64, 64, 64, 64]
    # an interior-corner quadrant grows one ring along its two cut faces
    assert [len(c) for c in p.extended_cells] == [80, 80, 80, 80]


def test_partition_single_subdomain():
    p = om.partition_cells(4, 2, 1, 2)
    assert len(p.core_cells) == 1
    assert np.array_equal(p.core_cells[0], np.arange(16))
    assert np.array_equal(p.extended_cells[0], np.arange(16))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([4, 5, 8, 16]),
    st.sampled_from([1, 2, 3]),
    st.integers(1, 9),
    st.integers(0, 2),
)
def test_partition_covers_disjointly(cells, dimension, n_subdomains, overlap):
    total = cells**dimension
    n_subdomains = min(n_subdomains, total)
    try:
        p = om.partition_cells(cells, dimension, n_subdomains, overlap)
    except ValueError as exc:
        assert "achievable count" in str(exc)
        return
    seen = np.concatenate(p.core_cells)
    assert len(seen) == total  # disjoint cover
    assert np.array_equal(np.sort(seen), np.arange(total))
    for core, ext in zip(p.core_cells, p.extended_cells):
        assert set(map(int, core)) <= set(map(int, ext))
        assert set(map(int, ext)) == grow_oracle(core, cells, dimension, overlap)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_grouped_walks_list_the_per_box_walks_sets(dimension):
    # every box of a group adds its own base cell and signed strides to one
    # pattern; the sets must be those the per-box loop lists, bit for bit
    sizes = {1: (3, 4, 5, 8, 16, 17, 64), 2: (3, 4, 5, 8, 16, 17, 32), 3: (3, 4, 5, 8, 16)}
    cases = 0
    for cells, count, overlap in itertools.product(
            sizes[dimension], (1, 2, 3, 4, 5, 7, 8, 13, 16, 64), (0, 1, 2, 3)):
        if count > cells**dimension:
            continue
        try:
            p = om.partition_cells(cells, dimension, count, overlap)
        except ValueError:
            continue
        cores, extended = reference_partition(cells, dimension, count, overlap)
        for ours, theirs in ((p.core_cells, cores), (p.extended_cells, extended)):
            assert len(ours) == len(theirs) == count
            for x, y in zip(ours, theirs):
                assert x.dtype == y.dtype and np.array_equal(x, y), (cells, count, overlap)
        cases += 1
    assert cases >= 100


def test_partition_unreachable_count_names_alternative():
    with pytest.raises(ValueError, match="achievable count: 7"):
        om.partition_cells(3, 2, 9, 0)


def test_partition_rejects_bad_counts():
    with pytest.raises(ValueError, match=r"n_subdomains must lie in \[1, 16\]"):
        om.partition_cells(4, 2, 17, 0)
    with pytest.raises(ValueError, match="n_subdomains"):
        om.partition_cells(4, 2, 0, 0)
    with pytest.raises(ValueError, match="overlap"):
        om.partition_cells(4, 2, 2, -1)


# ---------------------------------------------------------------------------
# additive Schwarz


def test_schwarz_single_sweep_matches_oracle():
    a = poisson_matrix(8)
    p = om.partition_cells(8, 2, 4, 1)
    sm = om.schwarz_setup(a, p)
    rng = np.random.default_rng(3)
    r = rng.standard_normal(64)
    z = sm.apply(a, r)
    assert z == pytest.approx(schwarz_oracle(a.toarray(), p, r, 1), abs=1e-10)


def test_schwarz_multi_sweep_matches_oracle():
    a = poisson_matrix(8)
    p = om.partition_cells(8, 2, 2, 2)
    sm = om.schwarz_setup(a, p, sweeps=3)
    rng = np.random.default_rng(5)
    r = rng.standard_normal(64)
    z = sm.apply(a, r)
    assert z == pytest.approx(schwarz_oracle(a.toarray(), p, r, 3), abs=1e-9)


def test_schwarz_is_linear():
    a = poisson_matrix(4)
    sm = om.schwarz_setup(a, om.partition_cells(4, 2, 2, 1))
    rng = np.random.default_rng(7)
    r1 = rng.standard_normal(16)
    r2 = rng.standard_normal(16)
    combined = sm.apply(a, r1 + r2)
    separate = sm.apply(a, r1) + sm.apply(a, r2)
    assert combined == pytest.approx(separate, abs=1e-12)


def assert_chunking_changes_no_bit(monkeypatch, build, a, r):
    """Set-up ignores the usable CPUs, and no chunking changes a bit.

    Smoothers set up under 1, 2, 3 and 64 usable CPUs keep the same
    chunks and factors.  Under piece bounds of 1 cell, 700 cells, the
    default and none, serial and pooled applies give the default set-up's
    correction.
    """
    reference = build()
    for usable in (1, 2, 3, 64):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)),
                            raising=False)
        assert same_setup(build(), reference), usable
    expected = reference.apply(a, r)
    for bound in (1, 700, smoothers.PIECE_CELLS, sys.maxsize):
        monkeypatch.setattr(smoothers, "PIECE_CELLS", bound)
        sm = build()
        serial = sm.apply(a, r)
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = sm.apply(a, r, executor=pool)
        assert np.array_equal(serial, expected), bound
        assert np.array_equal(pooled, expected), bound
    return kernel(sm)


def test_schwarz_executor_matches_serial_exactly(monkeypatch):
    a = poisson_matrix(8)
    r = np.random.default_rng(9).standard_normal(64)
    # 16 disjoint 4-cell subdomains (dense kernel), 4 or 16 with overlap
    # (sparse LU); the 16 unequal ones repeat blocks, so a piece lists
    # their copies out of set order
    for (count, overlap), kind in (((16, 0), "dense"), ((4, 1), "sparse"), ((16, 1), "sparse")):
        p = om.partition_cells(8, 2, count, overlap)
        for precision in ("float64", "float32"):
            build = partial(om.schwarz_setup, a, p, precision, sweeps=2)
            assert assert_chunking_changes_no_bit(monkeypatch, build, a, r) == kind


def test_schwarz_benchmark_level_matches_dense_oracle():
    # the 256^2 finest level of the benchmark's disc problem, 256 subdomains
    a = disc_matrix(2, 256)
    p = om.partition_cells(256, 2, 256, 1)
    sm = om.schwarz_setup(a, p)
    r = np.random.default_rng(29).standard_normal(a.shape[0])
    oracle = summed_local_solves(a, p.extended_cells, r)
    assert np.linalg.norm(sm.apply(a, r) - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("dimension,cells,distinct", [(2, 32, 3), (3, 16, 2)])
def test_mirrored_subdomains_share_blocks_and_match_dense_oracle(dimension, cells, distinct):
    # 16 subdomains of the disc level; mirror images list mirrored cells at
    # the same positions, so their blocks are keyed alike
    a = disc_matrix(dimension, cells)
    p = om.partition_cells(cells, dimension, 16, 1)
    r = np.random.default_rng(47).standard_normal(a.shape[0])
    oracle = summed_local_solves(a, p.extended_cells, r)
    z = om.schwarz_setup(a, p).apply(a, r)
    assert np.linalg.norm(z - oracle) <= 1e-12 * np.linalg.norm(oracle)
    sizes = np.array([len(s) for s in p.extended_cells])
    blocks, which = reference_blocks(a, p.extended_cells, sizes, "float64")
    assert len(blocks) == distinct
    # one ulp more on the diagonal of a cell that only subdomain k holds
    # parts its block from its mirror images, and from no other block
    k = np.flatnonzero(np.bincount(which)[which] > 1)[0]
    others = np.concatenate([s for j, s in enumerate(p.extended_cells) if j != k])
    cell = np.setdiff1d(p.core_cells[k], others)[0]
    row = slice(a.indptr[cell], a.indptr[cell + 1])
    diagonal = a.indptr[cell] + np.flatnonzero(a.indices[row] == cell)[0]
    values = a.data.copy()
    values[diagonal] = np.nextafter(values[diagonal], np.inf)
    bumped = scipy.sparse.csr_matrix((values, a.indices, a.indptr), shape=a.shape)
    assert distinct_blocks(bumped, p.extended_cells) == distinct + 1
    oracle = summed_local_solves(bumped, p.extended_cells, r)
    z = om.schwarz_setup(bumped, p).apply(bumped, r)
    assert np.linalg.norm(z - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("dimension,cells,l_min,level,distinct", [
    (2, 256, 64, 1, 7), (2, 256, 64, 2, 3), (2, 256, 64, 3, 1), (3, 32, 512, 1, 2),
])
def test_galerkin_levels_share_mirrored_blocks(dimension, cells, l_min, level, distinct):
    # the coarse levels of the schwarz_mult_2d256 and schwarz_hybrid_3d32
    # benchmark hierarchies, 256-cell subdomains: every coarse entry is a
    # mirror-invariant sum, so mirror images share one block there too
    spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells, k_outer=1000.0)
    grid = om.build_hierarchy(spec, l_min=l_min).levels[level]
    p = om.partition_cells(grid.cells_per_axis, dimension, grid.n_dofs // 256, 1)
    assert distinct_blocks(grid.matrix, p.extended_cells) <= distinct


@pytest.mark.parametrize("dimension,cells,peak_mib", [(2, 256, 6.0), (3, 32, 10.0)])
def test_sparse_setup_keeps_only_factors(dimension, cells, peak_mib):
    # the benchmark's finest disc levels, 256-cell subdomains, with the
    # blocks sliced from the matrix set by set (a hand-listed partition)
    # and read from the matrix along the partition's boxes.  Both peak
    # bounds count beyond the factor arrays: the sliced set-up peaks at 2.2
    # (2D) and 2.0 MiB (3D) beyond them, as it holds one set's block at a
    # time; it read 12.4 and 15.6 MiB when SuperLU kept the factors, and
    # 22.3 and 28.2 MiB when the whole A[idx][:, idx] and a block-diagonal
    # copy were formed.  Read along the boxes, a slice of boxes at a time,
    # it peaks at 2.8 and 2.0 MiB, the slot positions included.
    # tracemalloc counts every thread's allocations, so a failure names the
    # threads alive beside the way and the measures
    spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells, k_outer=1000.0)
    a = om.build_hierarchy(spec, l_min=cells**dimension).finest.matrix
    p = om.partition_cells(cells, dimension, a.shape[0] // 256, 1)
    for way, partition in (("sliced", om.Partition(p.core_cells, p.extended_cells)),
                           ("read along boxes", p)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sm = om.schwarz_setup(a, partition)
            retained, peak = (m - start for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        factors = sum(array.nbytes for array in factor_arrays(sm))
        measured = (f"blocks {way}: peak {(peak - factors) / 2**20:.2f} MiB and retained "
                    f"{(retained - factors) / 2**20:.2f} MiB beyond the factors, "
                    f"threads alive: {threading.active_count()}")
        assert peak - factors <= peak_mib * 2**20, measured
        # the sets' concatenation and the rows and cells of every chunk
        assert retained - factors <= 2 * 2**20, measured
    assert kernel(sm) == "sparse"
    assert not any(scipy.sparse.issparse(v) for v in vars(sm).values())
    # mirror images of a subdomain share its block, and only distinct blocks
    # are factorized: 10 of 256 in 2D (0.65 MiB of factor arrays, where
    # SuperLU held 16 MiB factorizing every block) and 11 of 128 in 3D
    # (2.55 MiB, against 25.14 MiB when mirror images were keyed apart)
    distinct, factor_mib = {2: (10, 0.75), 3: (11, 3.0)}[dimension]
    assert distinct_blocks(a, p.extended_cells) <= distinct
    assert factors <= factor_mib * 2**20, factors / 2**20


def level_sets(kind, level, dimension, cfg):
    """The sets of ``level`` that ``cfg``'s smoother of ``kind`` builds, and their boxes."""
    n = level.cells_per_axis
    if kind == "schwarz":
        count = subdomain_count(level.n_dofs, cfg.smoother.subdomain_cells)
        p = om.partition_cells(n, dimension, count, cfg.smoother.overlap)
        return p.extended_cells, p.boxes
    boxes = smoothers._tiles(n, dimension, min(cfg.smoother.tile, n))
    return list(boxes[0].grid_cells()), boxes


def assert_blocks_are_the_row_gather(a, sets, boxes=None):
    """The blocks sliced from ``a`` per set and, given ``boxes``, those read
    along them, their order and each set's block are the row gather's
    (:func:`helpers.reference_blocks`), bit for bit, in both precisions."""
    positions = None if boxes is None else smoothers._face_positions(a, boxes)
    assert (positions is None) == (boxes is None)
    sizes = np.array([len(s) for s in sets])
    for precision in ("float64", "float32"):
        gathered, which = reference_blocks(a, sets, sizes, precision)
        found = [smoothers._sliced_blocks(a, sets, sizes, precision)]
        if boxes is not None:
            found.append(smoothers._read_blocks(a, positions, boxes, len(sets), precision))
        for blocks, block_of in found:
            assert block_of.dtype == which.dtype and np.array_equal(block_of, which)
            assert ([(size, e.dtype, e.tobytes()) for size, e in blocks]
                    == [(size, e.dtype, e.tobytes()) for size, e in gathered])


@pytest.mark.parametrize("kind", ["schwarz", "block_jacobi"])
@pytest.mark.parametrize("workload", ["schwarz_mult_2d256", "bj_taskpar_2d128",
                                      "schwarz_hybrid_3d32"])
def test_stencil_read_finds_the_row_gathers_blocks(workload, kind):
    # every smoother level of the benchmark hierarchies, with the library's
    # default subdomains and tiles: the blocks read from the level matrix
    # at its slot positions and those sliced from it per set, their order
    # and each set's block equal the row gather's, bit for bit
    cfg = load_perfbench("workloads").WORKLOADS[workload].run_config()
    d = cfg.problem.dimension
    hierarchy = om.build_hierarchy(build_problem_spec(cfg), cfg.l_min)
    for level in hierarchy.levels[:-1]:
        assert_blocks_are_the_row_gather(level.matrix, *level_sets(kind, level, d, cfg))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_stencil_read_finds_the_row_gathers_blocks_on_small_grids(dimension):
    # every walk of small partitions and tilings, on an operator with random
    # couplings (no two boxes share a block unless their walks coincide) and
    # on the disc operator (mirror images share one)
    rng = np.random.default_rng(61)
    for n in {1: (5, 8, 16), 2: (4, 5, 8), 3: (4, 5)}[dimension]:
        stencil = rng.uniform(-1.0, -0.1, (2 * dimension + 1, n**dimension))
        stencil[dimension] = 2.0 * dimension + 1.0
        stencils = [(stencil * problem._inside(dimension, n)).reshape(
            (2 * dimension + 1,) + (n,) * dimension)]
        if dimension > 1 and n % 4 == 0:
            spec = om.ProblemSpec(dimension=dimension, cells_per_axis=n, k_outer=1000.0)
            stencils.append(problem._poisson_stencil(spec))
        layouts = []
        for count, overlap in itertools.product((1, 2, 3, 4, 7, 8), (0, 1, 2)):
            if count <= n**dimension and smoothers._feasible(n, dimension, count):
                p = om.partition_cells(n, dimension, count, overlap)
                layouts.append((p.extended_cells, p.boxes))
        for tile in (t for t in (1, 2, 4) if n % t == 0):
            boxes = smoothers._tiles(n, dimension, tile)
            layouts.append((list(boxes[0].grid_cells()), boxes))
        for stencil, (sets, boxes) in itertools.product(stencils, layouts):
            assert_blocks_are_the_row_gather(problem._csr_of(stencil), sets, boxes)


def gathered_setups(monkeypatch, build):
    """``build()`` with every block gathered from the matrix rows (the reference)."""
    with monkeypatch.context() as patch:
        patch.setattr(smoothers, "_face_positions", lambda a, boxes: None)
        patch.setattr(smoothers, "_sliced_blocks", reference_blocks)
        return build()


def no_slice(*args):
    raise AssertionError("blocks sliced from the matrix set by set")


@pytest.mark.parametrize("kind", ["schwarz", "block_jacobi"])
def test_level_smoothers_read_the_level_matrix(monkeypatch, kind):
    # the library's set-up reads every level's blocks from its matrix along
    # the boxes and builds the smoothers the row gather builds
    cfg = om.RunConfig()
    cfg.smoother.kind = kind
    cfg.smoother.subdomain_cells = 64
    spec = om.ProblemSpec(dimension=2, cells_per_axis=32, k_outer=1000.0)
    hierarchy = om.build_hierarchy(spec, l_min=64)
    gathered = gathered_setups(monkeypatch, lambda: build_level_smoothers(hierarchy, cfg, 2))
    monkeypatch.setattr(smoothers, "_sliced_blocks", no_slice)
    read = build_level_smoothers(hierarchy, cfg, 2)
    assert len(read) == hierarchy.n_levels and read[-1] is None
    for ours, theirs in zip(read[:-1], gathered[:-1]):
        assert same_setup(ours.smoother, theirs.smoother)


@pytest.mark.parametrize("dimension,cells", [(1, 64), (2, 32), (3, 16)])
def test_matrix_only_setup_reads_along_boxes(monkeypatch, dimension, cells):
    # a caller who passes only a matrix, with a partition from
    # partition_cells or block-Jacobi tiles, never slices blocks set by set
    if dimension == 1:
        a = problem._csr_of(np.array([[0.0] + [-1.0] * (cells - 1), [2.5] * cells,
                                      [-1.0] * (cells - 1) + [0.0]]))
    else:
        spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells, k_outer=1000.0)
        a = om.build_hierarchy(spec, l_min=cells**dimension).finest.matrix
    p = om.partition_cells(cells, dimension, 8, 1)
    geometry = None if dimension == 1 else (cells, dimension)

    def build():
        return om.schwarz_setup(a, p), om.bj_setup(a, 4, geometry)

    gathered = gathered_setups(monkeypatch, build)
    monkeypatch.setattr(smoothers, "_sliced_blocks", no_slice)
    for ours, theirs in zip(build(), gathered):
        assert same_setup(ours, theirs)


def test_distinct_rows_tell_apart_rows_that_share_a_sum():
    # rows are first told apart by a weighted sum of their bits (weights 1,
    # 3, ...): bits (3, 0) and (0, 1) share the sum 3, so the rows are then
    # sorted by their bytes
    bits = np.array([[3, 0], [0, 1], [3, 0], [0, 2]], dtype=np.uint64)
    first, inverse = smoothers._distinct_rows(bits.view(np.float64))
    assert sorted(first.tolist()) == [0, 1, 3]
    assert np.array_equal(first[inverse], [0, 1, 0, 3])
    # equal values with unequal bits key apart, as the row gather's bytes do
    first, inverse = smoothers._distinct_rows(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))
    assert np.array_equal(first[inverse], [0, 1, 0])


def test_stencil_read_needs_exactly_the_face_pattern(monkeypatch):
    # set-up reads along the boxes only where the matrix stores exactly the
    # face pattern of its grid; a missing coupling, a foreign column, a
    # hand-listed partition or tiles on the wrong grid slice each set's
    # block, and find the row gather's blocks and build its smoother
    spec = om.ProblemSpec(dimension=2, cells_per_axis=16, k_outer=1000.0)
    a = om.build_hierarchy(spec, l_min=256).finest.matrix
    p = om.partition_cells(16, 2, 4, 1)
    listed = om.Partition(p.core_cells, p.extended_cells)
    cell = 5 * 16 + 7
    cut = problem._poisson_stencil(spec)
    cut[0].flat[cell] = cut[4].flat[cell - 16] = 0.0
    # full row counts, but the coupling of the cell to the one above it
    # replaced by one to the cell above and right of it
    foreign = scipy.sparse.csr_matrix(a, copy=True)
    foreign.indices[foreign.indptr[cell + 1] - 1] += 1
    for matrix in (problem._csr_of(cut), foreign):
        assert smoothers._face_positions(matrix, p.boxes) is None
        assert_blocks_are_the_row_gather(matrix, p.extended_cells)
        assert same_setup(om.schwarz_setup(matrix, p), om.schwarz_setup(matrix, listed))
    assert smoothers._face_positions(a, p.boxes) is not None
    # a hand-listed partition has no boxes to read along
    assert smoothers._face_positions(a, listed.boxes) is None
    # without geometry, the tiles run along one axis of 256 cells
    assert smoothers._face_positions(a, smoothers._tiles(256, 1, 4)) is None
    assert same_setup(om.bj_setup(a, 4), gathered_setups(monkeypatch, lambda: om.bj_setup(a, 4)))


def test_stencil_read_takes_a_stored_zero_as_the_row_gather_does():
    # a zero coupling kept as a stored entry is part of the face pattern:
    # set-up reads it through the grid, and the per-set slice and the row
    # gather list it too
    spec = om.ProblemSpec(dimension=2, cells_per_axis=16, k_outer=1000.0)
    weak = scipy.sparse.csr_matrix(om.build_hierarchy(spec, l_min=256).finest.matrix, copy=True)
    cell = 5 * 16 + 7
    weak.data[weak.indptr[cell]] = 0.0  # coupling to the cell below
    p = om.partition_cells(16, 2, 4, 1)
    assert_blocks_are_the_row_gather(weak, p.extended_cells, p.boxes)
    assert same_setup(om.schwarz_setup(weak, p),
                      om.schwarz_setup(weak, om.Partition(p.core_cells, p.extended_cells)))


def test_stacked_lu_matches_superlu_on_copied_blocks():
    # two distinct 20-cell blocks, nonsymmetric and diagonally dominant, with
    # three copies each: one piece whose triangular solve takes c = 3
    # right-hand sides, against SuperLU's own solve of the two-block matrix
    rng = np.random.default_rng(43)
    pattern = sum(np.eye(20, k=k) for k in (-5, -1, 1, 5))
    blocks = [np.where(pattern, rng.uniform(-1, 1, (20, 20)), 0) + 6 * np.eye(20)
              for _ in range(2)]
    a = scipy.sparse.csr_matrix(scipy.linalg.block_diag(*blocks * 3))
    sm = om.bj_setup(a, 20, None, sweeps=1)
    [(rows, cells, solver)] = sm.chunks
    assert kernel(sm) == "sparse" and solver.lower.shape == (40, 40)
    r = rng.standard_normal(a.shape[0])
    solved = np.empty_like(r)
    solved[rows] = solver.solve(r[cells])  # the tiles are the ranges of 20 rows
    pair = scipy.sparse.csc_matrix(scipy.linalg.block_diag(*blocks))
    oracle = scipy.sparse.linalg.splu(pair).solve(r.reshape(3, 40).T).T.reshape(-1)
    assert np.linalg.norm(solved - oracle) <= 1e-14 * np.linalg.norm(oracle)
    assert np.array_equal(sm.apply(a, r), solved)


def test_schwarz_float32_local_solves():
    a = poisson_matrix(8)
    for (count, overlap), kind in (((16, 0), "dense"), ((4, 1), "sparse")):
        p = om.partition_cells(8, 2, count, overlap)
        sm64 = om.schwarz_setup(a, p, "float64")
        sm32 = om.schwarz_setup(a, p, "float32")
        assert kernel(sm32) == kind
        assert sm32.precision == "float32"
        assert factor_dtypes(sm32) == {np.dtype(np.float32)}
        rng = np.random.default_rng(11)
        r = rng.standard_normal(64)
        for _, cells, solver in sm32.chunks:
            assert solver.solve(r[cells].astype(np.float32)).dtype == np.float32
        z64 = sm64.apply(a, r)
        z32 = sm32.apply(a, r)
        assert z32.dtype == np.float64
        assert not np.array_equal(z32, z64)
        assert z32 == pytest.approx(z64, rel=1e-4, abs=1e-4 * np.abs(z64).max()), kind


def zero_start_apply(sm, a, r):
    """``sm.apply(a, r)`` as sums into a correction that starts at zero."""
    z = np.zeros_like(r)
    for sweep in range(sm.sweeps):
        defect = r if sweep == 0 else r - a @ z
        solved = np.empty(sm.idx.size, sm.precision)
        for rows, cells, solver in sm.chunks:
            solved[rows] = solver.solve(defect[cells].astype(sm.precision, copy=False))
        z += sm.omega * np.bincount(sm.idx, weights=solved, minlength=r.size)
    return z


@pytest.mark.parametrize("omega,sweeps", [(1.0, 1), (1.0, 3), (0.5, 1), (0.7, 3)])
def test_apply_is_the_sum_from_a_zero_correction(omega, sweeps):
    # the first sweep's step is taken as the correction without adding it
    # to zeros, bit for bit: on the identity a damped step of the smallest
    # subnormal rounds to -0.0, and the correction holds +0.0 there
    r = np.random.default_rng(5).standard_normal(64)
    r[:4] = -5e-324
    identity = scipy.sparse.csr_matrix(scipy.sparse.identity(64))
    for sm, a in ((om.bj_setup(poisson_matrix(8), 2, (8, 2), omega, sweeps), poisson_matrix(8)),
                  (om.bj_setup(identity, 1, None, omega, sweeps), identity)):
        z = sm.apply(a, r)
        assert np.array_equal(z.view(np.uint64), zero_start_apply(sm, a, r).view(np.uint64))
    if (omega, sweeps) == (0.5, 1):
        assert (z[:4] == 0.0).all() and not np.signbit(z[:4]).any()


def test_schwarz_setup_rejects_partial_cover():
    a = poisson_matrix(8)
    p = om.partition_cells(4, 2, 2, 1)  # 16-cell partition, 64-row matrix
    with pytest.raises(ValueError, match="covers 16 cells"):
        om.schwarz_setup(a, p)


def test_schwarz_singular_subdomain_is_named():
    # 2-cell subdomains take the dense kernel, 20-cell ones the sparse LU
    for n, zero in ((4, 2), (40, 30)):
        a = scipy.sparse.csr_matrix(np.diag(np.where(np.arange(n) == zero, 0.0, 1.0)))
        p = om.partition_cells(n, 1, 2, 0)
        with pytest.raises(om.SingularMatrixError, match="subdomain 1"):
            om.schwarz_setup(a, p)


def test_schwarz_apply_validates_inputs():
    a = poisson_matrix(4)
    p = om.partition_cells(4, 2, 2, 1)
    sm = om.schwarz_setup(a, p)
    with pytest.raises(ValueError, match="length"):
        sm.apply(a, np.ones(5))
    with pytest.raises(ValueError, match="sweeps"):
        om.schwarz_setup(a, p, sweeps=0)
    with pytest.raises(ValueError, match="precision"):
        om.schwarz_setup(a, p, "float16")


# ---------------------------------------------------------------------------
# block Jacobi


def test_bj_matches_oracle():
    a = poisson_matrix(8)
    sm = om.bj_setup(a, 4, (8, 2), omega=1.0, sweeps=5)
    rng = np.random.default_rng(13)
    r = rng.standard_normal(64)
    z = sm.apply(a, r)
    assert z == pytest.approx(bj_oracle(a.toarray(), sm.sets, 1.0, 5, r), abs=1e-12)


def test_bj_damped_matches_oracle():
    a = poisson_matrix(4)
    sm = om.bj_setup(a, 2, (4, 2), omega=0.7, sweeps=3)
    rng = np.random.default_rng(17)
    r = rng.standard_normal(16)
    z = sm.apply(a, r)
    assert z == pytest.approx(bj_oracle(a.toarray(), sm.sets, 0.7, 3, r), abs=1e-12)


def test_bj_tiles_are_square_patches():
    a = poisson_matrix(8)
    sm = om.bj_setup(a, 4, (8, 2))
    assert len(sm.sets) == 4
    assert all(block.size == 16 for block in sm.sets)
    # first tile is the 4x4 patch in the corner: rows 0-3 of columns 0-3
    first = np.arange(64).reshape(8, 8)[:4, :4].ravel()
    assert np.array_equal(sm.sets[0], np.sort(first))


def test_bj_diagonal_blocks_of_size_one_solve_diagonal_systems():
    diag = np.diag([2.0, 4.0, 8.0, 16.0])
    a = scipy.sparse.csr_matrix(diag)
    sm = om.bj_setup(a, 1, None, omega=1.0, sweeps=1)
    r = np.array([2.0, 4.0, 8.0, 16.0])
    z = sm.apply(a, r)
    assert z == pytest.approx(np.ones(4), rel=1e-15)


def test_bj_is_linear():
    a = poisson_matrix(4)
    sm = om.bj_setup(a, 2, (4, 2))
    rng = np.random.default_rng(19)
    r1 = rng.standard_normal(16)
    r2 = rng.standard_normal(16)
    assert sm.apply(a, r1 + r2) == pytest.approx(
        sm.apply(a, r1) + sm.apply(a, r2), abs=1e-12
    )


def test_bj_setup_validation():
    a = poisson_matrix(4)
    with pytest.raises(ValueError, match="does not divide"):
        om.bj_setup(a, 3, (4, 2))
    with pytest.raises(ValueError, match="does not match"):
        om.bj_setup(a, 2, (8, 2))
    with pytest.raises(ValueError, match="omega"):
        om.bj_setup(a, 2, (4, 2), omega=0.0)
    with pytest.raises(ValueError, match="sweeps"):
        om.bj_setup(a, 2, (4, 2), sweeps=0)
    rectangular = scipy.sparse.csr_matrix(np.ones((4, 2)))
    with pytest.raises(ValueError, match="square"):
        om.bj_setup(rectangular, 1, None)


def test_bj_singular_block_is_named():
    # 1- and 2-cell tiles take the dense kernel, 20-cell tiles the sparse
    # LU.  Pieces are built in order of copy count, yet the lowest-numbered
    # singular tile is named: in the last two cases tile 1 shares its
    # singular block with a later tile, while another singular block has a
    # single copy (tile 3, resp. 4), so its piece is built first
    for n, zeros, tile in ((4, [1], 1), (60, [25], 20), (12, [2, 4, 7], 2),
                           (100, [25, 65, 87], 20)):
        a = scipy.sparse.csr_matrix(np.diag(np.where(np.isin(np.arange(n), zeros), 0.0, 1.0)))
        with pytest.raises(om.SingularMatrixError, match="diagonal block 1$"):
            om.bj_setup(a, tile, None)


def test_bj_executor_matches_serial_exactly(monkeypatch):
    # 4x4 tiles take the dense kernel, 8x8 tiles the sparse LU
    for cells, tile, kind in ((8, 4, "dense"), (16, 8, "sparse")):
        a = poisson_matrix(cells)
        r = np.random.default_rng(23).standard_normal(cells**2)
        for precision in ("float64", "float32"):
            build = partial(om.bj_setup, a, tile, (cells, 2), precision=precision)
            assert assert_chunking_changes_no_bit(monkeypatch, build, a, r) == kind


def test_bj_benchmark_level_matches_dense_oracle():
    # the 128^2 finest level of the benchmark's disc problem, 1024 tiles
    a = disc_matrix(2, 128)
    sm = om.bj_setup(a, 4, (128, 2), sweeps=1)
    assert len(sm.sets) == 1024
    assert kernel(sm) == "dense"
    r = np.random.default_rng(37).standard_normal(a.shape[0])
    oracle = summed_local_solves(a, sm.sets, r)
    assert np.linalg.norm(sm.apply(a, r) - oracle) <= 1e-12 * np.linalg.norm(oracle)
    # only the 106 distinct tiles are inverted and kept: 0.21 MiB, where
    # one inverse per tile held 2.0 MiB
    factors = sum(array.nbytes for array in factor_arrays(sm))
    assert factors <= 0.25 * 2**20, factors / 2**20


@pytest.mark.parametrize("tile", [2, 4])
def test_dense_and_sparse_kernels_agree(monkeypatch, tile):
    a = disc_matrix(2, 32)
    dense = om.bj_setup(a, tile, (32, 2), omega=0.8, sweeps=3)
    monkeypatch.setattr(smoothers, "DENSE_MAX_CELLS", 0)
    sparse = om.bj_setup(a, tile, (32, 2), omega=0.8, sweeps=3)
    assert (kernel(dense), kernel(sparse)) == ("dense", "sparse")
    r = np.random.default_rng(41).standard_normal(a.shape[0])
    z_dense = dense.apply(a, r)
    z_sparse = sparse.apply(a, r)
    assert np.linalg.norm(z_dense - z_sparse) <= 1e-13 * np.linalg.norm(z_sparse)


def test_dense_kernel_tells_apart_blocks_with_equal_keys():
    # adjacent floats whose products with sqrt(2) round alike, so a rounded
    # key would merge their tiles: each gets its own inverse, and the two
    # copies of 3 share one
    x = 1.7500000000000004
    y = np.nextafter(x, 2.0)
    assert x * np.sqrt(2.0) == y * np.sqrt(2.0) and 1.0 / x != 1.0 / y
    diagonal = np.array([x, y, 3.0, 3.0])
    a = scipy.sparse.csr_matrix(np.diag(diagonal))
    sm = om.bj_setup(a, 1, None, sweeps=1)
    assert kernel(sm) == "dense"
    inverses = np.concatenate([solver.inverses for _, _, solver in sm.chunks])
    assert sorted(inverses[:, 0, 0]) == sorted([1.0 / x, 1.0 / y, 1.0 / 3.0])
    assert np.array_equal(sm.apply(a, np.ones(4)), 1.0 / diagonal)


def test_kernel_is_chosen_from_set_sizes():
    a2, a3 = poisson_matrix(8), poisson_matrix(8, dimension=3)
    assert kernel(om.bj_setup(a2, 4, (8, 2))) == "dense"  # 16 cells per tile
    assert kernel(om.bj_setup(a3, 2, (8, 3))) == "dense"  # 8
    assert kernel(om.bj_setup(a3, 4, (8, 3))) == "sparse"  # 64
    # equal 4-cell cores, but unequal sets once overlap is added
    p = om.partition_cells(8, 2, 16, 1)
    assert len({len(s) for s in p.extended_cells}) > 1
    assert kernel(om.schwarz_setup(a2, p)) == "sparse"


class CountingExecutor:
    """Serial stand-in for a thread pool that counts submitted tasks."""

    def __init__(self):
        self.tasks = 0

    def map(self, fn, items):
        items = list(items)
        self.tasks += len(items)
        return map(fn, items)


def test_bound_smoother_submits_one_task_per_chunk():
    # 1024 tiles on the 128^2 level: one task per chunk, and set-up cuts one
    # chunk per piece of distinct tiles, not one per tile or per usable CPU.
    # The distinct tiles of one copy count fit in a piece of PIECE_CELLS
    # cells, so there is a piece per copy count
    a = poisson_matrix(128)
    sm = om.bj_setup(a, 4, (128, 2), sweeps=1)
    assert len(sm.sets) == 1024
    csr = a
    copies = Counter(csr[tile][:, tile].toarray().tobytes() for tile in sm.sets)
    assert max(Counter(copies.values()).values()) * 16 <= smoothers.PIECE_CELLS
    assert len(sm.chunks) == len(set(copies.values())) == 5
    executor = CountingExecutor()
    r = np.random.default_rng(31).standard_normal(a.shape[0])
    z = om.LevelSmoother(sm, executor).apply(a, r)
    assert executor.tasks == 5
    assert np.array_equal(z, sm.apply(a, r))


# smoothers as solvers: repeated application of either smoother through the
# minimization must reduce the benchmark residual


@pytest.mark.parametrize("kind", ["schwarz", "block_jacobi"])
def test_smoother_reduces_residual_through_minimization(kind):
    a = poisson_matrix(8)
    if kind == "schwarz":
        sm = om.schwarz_setup(a, om.partition_cells(8, 2, 4, 1))
    else:
        sm = om.bj_setup(a, 4, (8, 2))
    b = np.ones(64)
    space = om.rm_init(np.zeros(64), b)
    r = b
    for _ in range(30):
        r = om.rm_update(space, a, sm.apply(a, r))
    assert om.norm2(r) < 1e-6 * om.norm2(b)
