"""Benchmark discretization tests: assembly, transfers, hierarchy."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse

import orthomg as om


def stencil_oracle(spec):
    """Slow cell-by-cell assembly of the same finite-volume operator."""
    n, d, h = spec.cells_per_axis, spec.dimension, spec.spacing

    def coeff(idx):
        x = [-spec.half_width + (i + 0.5) * h for i in idx]
        return spec.k_inner if math.hypot(*x) < spec.interface_radius else spec.k_outer

    cells = list(itertools.product(range(n), repeat=d))
    index = {c: i for i, c in enumerate(cells)}
    a = np.zeros((n**d, n**d))
    for c in cells:
        i = index[c]
        for axis in range(d):
            for step in (-1, 1):
                nb = list(c)
                nb[axis] += step
                if 0 <= nb[axis] < n:
                    j = index[tuple(nb)]
                    k_face = (2.0 * coeff(c) * coeff(tuple(nb))
                              / (coeff(c) + coeff(tuple(nb))) / h**2)
                    a[i, j] -= k_face
                    a[i, i] += k_face
                else:
                    a[i, i] += 2.0 * coeff(c) / h**2
    return a


# ---------------------------------------------------------------------------
# ProblemSpec


def test_spec_properties():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    assert spec.spacing == 0.25
    assert spec.n_dofs == 64
    assert spec.interface_radius == 0.7


@pytest.mark.parametrize("bad", [
    dict(dimension=1),
    dict(dimension=4),
    dict(cells_per_axis=2),
    dict(cells_per_axis=48),
    dict(cells_per_axis=0),
    dict(k_inner=0.0),
    dict(k_outer=-1.0),
    dict(radius_factor=0.0),
    dict(radius_factor=1.0),
    dict(half_width=0.0),
])
def test_spec_rejects(bad):
    kwargs = dict(dimension=2, cells_per_axis=8)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        om.ProblemSpec(**kwargs)


# ---------------------------------------------------------------------------
# assembly


def test_uniform_coefficient_diagonal_values():
    # 4x4 cells on [-1,1]^2 with k=1: h=1/2, interior faces couple with 4,
    # boundary faces add 8 to the diagonal.
    spec = om.ProblemSpec(dimension=2, cells_per_axis=4, k_inner=1.0, k_outer=1.0)
    a, _ = om.assemble_poisson(spec)
    dense = a.toarray()
    corner = 0  # cell (0, 0)
    interior = 5  # cell (1, 1)
    edge = 1  # cell (0, 1)
    assert dense[corner, corner] == 24.0
    assert dense[interior, interior] == 16.0
    assert dense[edge, edge] == 20.0
    assert dense[corner, 1] == -4.0
    assert dense[corner, 4] == -4.0


@pytest.mark.parametrize("dimension,cells", [(2, 4), (2, 8), (3, 4)])
def test_assembly_matches_stencil_oracle(dimension, cells):
    spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells)
    a, rhs = om.assemble_poisson(spec)
    assert a.toarray() == pytest.approx(stencil_oracle(spec), rel=1e-13)
    assert np.array_equal(rhs, np.ones(spec.n_dofs))


def test_assembly_scales_linearly_in_uniform_coefficient():
    base = om.ProblemSpec(dimension=2, cells_per_axis=8, k_inner=1.0, k_outer=1.0)
    scaled = om.ProblemSpec(dimension=2, cells_per_axis=8, k_inner=3.0, k_outer=3.0)
    a0, _ = om.assemble_poisson(base)
    a1, _ = om.assemble_poisson(scaled)
    assert a1.toarray() == pytest.approx(3.0 * a0.toarray(), rel=1e-15)


def test_assembled_matrix_is_spd():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    a, _ = om.assemble_poisson(spec)
    dense = a.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.linalg.eigvalsh(dense).min() > 0.0


def test_rhs_uses_configured_constant():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=4, rhs_constant=2.5)
    _, rhs = om.assemble_poisson(spec)
    assert np.array_equal(rhs, np.full(16, 2.5))


def test_cells_on_the_interface_take_the_outer_coefficient():
    # on the 4^2 grid of [-4, 4]^2 the four middle cells are centred at
    # (+-1, +-1), exactly on an interface of radius sqrt(2)
    on = om.ProblemSpec(dimension=2, cells_per_axis=4, half_width=4.0,
                        radius_factor=math.sqrt(2.0) / 4.0)
    outer = om.ProblemSpec(dimension=2, cells_per_axis=4, half_width=4.0,
                           k_inner=on.k_outer)
    past = om.ProblemSpec(dimension=2, cells_per_axis=4, half_width=4.0, radius_factor=0.36)
    uniform = om.assemble_poisson(outer)[0].toarray()
    assert np.array_equal(om.assemble_poisson(on)[0].toarray(), uniform)
    assert not np.array_equal(om.assemble_poisson(past)[0].toarray(), uniform)


def test_coefficient_jump_is_radial():
    # cells at equal distance from the origin see the same coefficient,
    # so the operator is invariant under swapping the two axes
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    a, _ = om.assemble_poisson(spec)
    dense = a.toarray()
    n = spec.cells_per_axis
    swap = np.arange(n * n).reshape(n, n).T.ravel()
    assert np.array_equal(dense[np.ix_(swap, swap)], dense)


# ---------------------------------------------------------------------------
# transfers


def test_prolongation_structure():
    p = om.build_prolongation(4, 2)
    dense = p.toarray()
    assert dense.shape == (16, 4)
    assert np.array_equal(dense.sum(axis=1), np.ones(16))  # one parent each
    assert np.array_equal(np.sort(np.unique(dense)), [0.0, 1.0])
    assert np.array_equal(dense.sum(axis=0), np.full(4, 4.0))  # 4 children each
    # fine cell (0,1) -> coarse cell (0,0); fine (2,3) -> coarse (1,1)
    assert dense[1, 0] == 1.0
    assert dense[2 * 4 + 3, 3] == 1.0


def test_restriction_averages_children():
    p = om.build_prolongation(4, 2)
    r = om.build_restriction(4, 2)
    dense = r.toarray()
    assert dense.shape == (4, 16)
    assert np.array_equal(np.sort(np.unique(dense)), [0.0, 0.25])
    # restriction of prolongation is exactly the identity
    assert np.array_equal(dense @ p.toarray(), np.eye(4))


def test_prolongation_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        om.build_prolongation(5, 2)
    with pytest.raises(ValueError):
        om.build_prolongation(1, 2)
    with pytest.raises(ValueError):
        om.build_restriction(5, 2)


@pytest.mark.parametrize("dimension,cells", [(1, 8), (2, 4), (2, 256), (3, 4), (3, 32)])
def test_restriction_is_the_scaled_transpose_bit_for_bit(dimension, cells):
    # built on the grid, the restriction holds the arrays of the transpose
    # of the prolongation times 1/2^d, dtypes included
    p = om.build_prolongation(cells, dimension)
    expected = scipy.sparse.csr_matrix(p.T) * (1.0 / 2**dimension)
    expected.sort_indices()
    r = om.build_restriction(cells, dimension)
    for ours, theirs in ((r.indptr, expected.indptr), (r.indices, expected.indices),
                         (r.data, expected.data)):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)


def test_coarse_operator_is_galerkin_product():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    hierarchy = om.build_hierarchy(spec, l_min=4)
    fine = hierarchy.levels[0]
    want = (fine.restriction.toarray()
            @ fine.matrix.toarray()
            @ fine.prolongation.toarray())
    assert hierarchy.levels[1].matrix.toarray() == pytest.approx(want, rel=1e-14)


def test_coarse_operators_stay_spd():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=16)
    hierarchy = om.build_hierarchy(spec, l_min=4)
    for level in hierarchy.levels:
        dense = level.matrix.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.linalg.eigvalsh(dense).min() > 0.0


def grid_symmetries(cells, dimension):
    """``(name, cell permutation)`` of each reflection and each axis swap of the grid."""
    grid = np.arange(cells**dimension).reshape((cells,) * dimension)
    for axis in range(dimension):
        yield f"reflect axis {axis}", np.flip(grid, axis).ravel()
    for first, second in itertools.combinations(range(dimension), 2):
        yield f"swap axes {first} and {second}", np.swapaxes(grid, first, second).ravel()


@pytest.mark.parametrize("dimension,cells", [(2, 32), (3, 16)])
def test_level_operators_keep_every_mirror_symmetry_bitwise(dimension, cells):
    # each diagonal and each coarse entry is a sum in an order that no
    # reflection or axis swap changes, so the disc operator keeps the grid's
    # symmetries bit for bit on every level, and mirror images of a
    # subdomain share one block
    spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells, k_outer=1000.0)
    hierarchy = om.build_hierarchy(spec, l_min=4)
    assert hierarchy.coarsest.cells_per_axis == 2
    for level in hierarchy.levels:
        a = level.matrix
        assert (a != a.T).nnz == 0, level.index
        for name, cells_moved in grid_symmetries(level.cells_per_axis, dimension):
            assert (a[cells_moved][:, cells_moved] != a).nnz == 0, (level.index, name)


# ---------------------------------------------------------------------------
# hierarchy


def test_hierarchy_level_sizes():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=64)
    hierarchy = om.build_hierarchy(spec, l_min=64)
    assert [lvl.n_dofs for lvl in hierarchy.levels] == [4096, 1024, 256, 64]
    assert hierarchy.n_levels == 4
    assert hierarchy.finest is hierarchy.levels[0]
    assert hierarchy.coarsest is hierarchy.levels[-1]


def test_hierarchy_respects_l_min():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=64)
    hierarchy = om.build_hierarchy(spec, l_min=4096)
    assert hierarchy.n_levels == 1
    assert hierarchy.levels[0].restriction is None


def test_hierarchy_stops_at_two_cells_per_axis():
    # 2:1 coarsening cannot go below a 2-cell axis even for a tiny l_min
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    hierarchy = om.build_hierarchy(spec, l_min=4)
    assert [lvl.cells_per_axis for lvl in hierarchy.levels] == [8, 4, 2]


def test_hierarchy_validation():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    good = om.build_hierarchy(spec, l_min=4)
    with pytest.raises(ValueError):
        om.GridHierarchy(list(reversed(good.levels)))
    with pytest.raises(ValueError):
        om.GridHierarchy([])


@pytest.mark.parametrize("dimension,cells", [(2, 32), (3, 8)])
def test_hierarchy_from_assembled_matrix_matches_build_hierarchy(dimension, cells):
    spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells)
    matrix, _ = om.assemble_poisson(spec)
    direct = om.build_hierarchy(spec, l_min=16)
    reused = om.hierarchy_from_matrix(matrix, cells, dimension, l_min=16)
    assert reused.finest.matrix is matrix
    assert reused.n_levels == direct.n_levels >= 2
    for mine, theirs in zip(reused.levels, direct.levels):
        assert mine.cells_per_axis == theirs.cells_per_axis
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(mine.matrix, name), getattr(theirs.matrix, name))
    with pytest.raises(ValueError, match="grid"):
        om.hierarchy_from_matrix(matrix, cells // 2, dimension)


def with_couplings(a, pairs):
    """``a`` plus a symmetric coupling of -1 between each ``(row, column)`` pair."""
    rows, cols = np.array(pairs).T
    extra = scipy.sparse.coo_matrix((-np.ones(rows.size), (rows, cols)), shape=a.shape)
    return scipy.sparse.csr_matrix(a + extra + extra.T)


def test_hierarchy_from_matrix_rejects_couplings_off_the_faces():
    # coarsening forms R A P on the grid, so it takes face couplings only
    a = om.assemble_poisson(om.ProblemSpec(dimension=2, cells_per_axis=8))[0]
    grid = np.arange(64).reshape(8, 8)
    diagonal = [(grid[i, j], grid[i + di, j + dj]) for i in range(7) for j in range(8)
                for di, dj in ((1, -1), (1, 1)) if 0 <= j + dj < 8]
    with pytest.raises(ValueError, match="row 0 couples cell 9, which is not a face"):
        om.hierarchy_from_matrix(with_couplings(a, diagonal), 8, 2)
    # cell 7 ends the first grid line and cell 8 starts the next: adjacent
    # numbers, no shared face
    with pytest.raises(ValueError, match="row 7 couples cell 8, which is not a face"):
        om.hierarchy_from_matrix(with_couplings(a, [(7, 8)]), 8, 2)
    # in 3D, the last line of one plane and the first line of the next
    a = om.assemble_poisson(om.ProblemSpec(dimension=3, cells_per_axis=4))[0]
    with pytest.raises(ValueError, match="row 12 couples cell 16, which is not a face"):
        om.hierarchy_from_matrix(with_couplings(a, [(12, 16)]), 4, 3)


@pytest.mark.parametrize("dimension,cells", [(2, 64), (3, 16)])
def test_every_matrix_is_canonical_int32_csr(dimension, cells):
    # scipy CSR throughout, each row's columns ascending (the smoothers rely
    # on it), with the integer type scipy picks
    spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells)
    assembled, _ = om.assemble_poisson(spec)
    prolongation = om.build_prolongation(cells, dimension)
    restriction = om.build_restriction(cells, dimension)
    hierarchy = om.hierarchy_from_matrix(assembled, cells, dimension, l_min=16)
    matrices = [assembled, prolongation, restriction]
    for level in hierarchy.levels:
        matrices += [m for m in (level.matrix, level.restriction, level.prolongation)
                     if m is not None]
    for m in matrices:
        assert m.format == "csr" and m.has_canonical_format
        assert m.indices.dtype == m.indptr.dtype == np.int32
        assert m.data.dtype == np.float64
