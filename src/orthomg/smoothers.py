"""Additive Schwarz and block-Jacobi smoothers on structured grids.

Both are one :class:`SubdomainSmoother`, summing local solves over
overlapping subdomains (Schwarz) or disjoint tiles (block Jacobi).  The
sets themselves choose the local kernel, once per level: when every set
has the same size ``m <= DENSE_MAX_CELLS`` (16), the blocks are inverted
explicitly and a sweep is one batched product with the stack of inverses
(the batched block-Jacobi form of Anzt, Dongarra, Flegar and
Quintana-Orti, Parallel Computing 81, 2019); otherwise they are
factorized together as one block-diagonal sparse LU.  An application
always starts from a zero correction, so smoothers are linear operators
on the residual; overlap contributions in the Schwarz sweep are summed
without damping because the surrounding minimization absorbs any
overcorrection.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import NumericalFailureError, SingularMatrixError
from .sparse import spmv

__all__ = [
    "Partition",
    "partition_cells",
    "SubdomainSmoother",
    "schwarz_setup",
    "bj_setup",
]

# Largest set size, in cells, that takes the dense kernel: equal-size sets of
# at most this many cells store their block inverses and solve a chunk with
# one batched matmul; larger or unequal sets keep the block-diagonal sparse
# LU.  One sweep with either kernel and its factor memory on the disc problem,
# measured on a 2-thread Xeon host:
#
#   cells per set m     SuperLU / dense per sweep    memory sparse / dense
#   4   (2D, 128^2)     1.69 / 0.42 ms               0.8 / 0.5 MiB
#   16  (2D, 128^2)     0.87 / 0.22 ms               1.4 / 2.0 MiB
#   64  (3D, 32^3)      2.61 / 1.46 ms               6.5 / 16 MiB
#   256 (2D, 128^2)     1.18 / 3.91 ms               3.1 / 32 MiB
#
# At m = 64 a whole 3D block-Jacobi solve gained no solve time, while its
# set-up rose from about 0.09 to 0.15 s and resident memory by 30-40 MiB.
DENSE_MAX_CELLS = 16


@dataclass(eq=False)
class Partition:
    """Disjoint core cells plus overlap-extended cells per subdomain."""

    n_subdomains: int
    core_cells: list
    extended_cells: list
    overlap_width: int


class _UnsplittableError(Exception):
    pass


def _bisect(lo, hi, n_parts, out):
    """Recursively halve the box ``[lo, hi)`` into ``n_parts`` boxes."""
    if n_parts == 1:
        out.append((lo, hi))
        return
    n_left = (n_parts + 1) // 2
    n_right = n_parts - n_left
    extents = [h - l for l, h in zip(lo, hi)]
    total = int(np.prod(extents))
    for axis in sorted(range(len(lo)), key=lambda a: -extents[a]):
        e = extents[axis]
        if e < 2:
            continue
        slab = total // e  # cells per unit cut along this axis
        t_min = -(-n_left // slab)  # ceil: left box must hold n_left parts
        t_max = e - (-(-n_right // slab))
        if t_min > t_max:
            continue
        t = min(max(round(e * n_left / n_parts), t_min), t_max)
        mid_hi = list(hi)
        mid_hi[axis] = lo[axis] + t
        mid_lo = list(lo)
        mid_lo[axis] = lo[axis] + t
        _bisect(lo, tuple(mid_hi), n_left, out)
        _bisect(tuple(mid_lo), hi, n_right, out)
        return
    raise _UnsplittableError


def _feasible(cells_per_axis, dimension, n_subdomains):
    try:
        _bisect((0,) * dimension, (cells_per_axis,) * dimension, n_subdomains, [])
        return True
    except _UnsplittableError:
        return False


def partition_cells(cells_per_axis, dimension, n_subdomains, overlap):
    """Partition a structured grid by recursive coordinate bisection.

    Parameters
    ----------
    cells_per_axis : int
        Cells along each axis (the grid is ``cells_per_axis**dimension``).
    dimension : int
    n_subdomains : int
        Number of parts; cores cover the grid disjointly and their sizes
        differ by at most one cut slab.
    overlap : int
        Rings of face neighbours added to each core to form the extended
        sets.

    Raises
    ------
    ValueError
        If the requested count cannot be reached by bisecting this grid;
        the message names the closest achievable count.
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if cells_per_axis < 1:
        raise ValueError("cells_per_axis must be at least 1")
    if overlap < 0:
        raise ValueError("overlap must be non-negative")
    total = cells_per_axis**dimension
    if not 1 <= n_subdomains <= total:
        raise ValueError(
            f"n_subdomains must lie in [1, {total}] for this grid, got {n_subdomains}"
        )
    boxes = []
    try:
        _bisect((0,) * dimension, (cells_per_axis,) * dimension, n_subdomains, boxes)
    except _UnsplittableError:
        achievable = next(
            m
            for m in range(n_subdomains - 1, 0, -1)
            if _feasible(cells_per_axis, dimension, m)
        )
        raise ValueError(
            f"bisection of this grid cannot produce {n_subdomains} subdomains; "
            f"achievable count: {achievable}"
        ) from None

    strides = cells_per_axis ** np.arange(dimension - 1, -1, -1)
    cores = []
    extended = []
    for lo, hi in boxes:
        # face-neighbour steps from the box are its L1 distance, summed per axis;
        # only a window ``overlap`` cells wider than the box can be reached
        axes = np.ix_(*(np.arange(max(l - overlap, 0), min(h + overlap, cells_per_axis))
                        for l, h in zip(lo, hi)))
        steps = sum(np.maximum(np.maximum(l - x, x - h + 1), 0) for x, l, h in zip(axes, lo, hi))
        flat = sum(x * stride for x, stride in zip(axes, strides))
        cores.append(flat[steps == 0])
        extended.append(flat[steps <= overlap])
    return Partition(n_subdomains, cores, extended, overlap)


@dataclass(eq=False)
class SubdomainSmoother:
    """Local solves on index sets, summed over ``sweeps`` damped sweeps.

    ``sets`` are the subdomains or tiles of the level matrix and ``idx``
    their concatenation: row ``k`` of the block-diagonal matrix
    ``diag(A[s, s])`` belongs to cell ``idx[k]``.  ``chunks`` pairs row
    slices with a solver for them, one chunk of whole sets per usable CPU
    (:func:`_usable_cpus`), cut once at set-up.  On the sparse kernel each
    solver is a SuperLU factor and the smoother keeps no block-diagonal
    matrix; on the dense kernel each is a slice of the ``(n_sets, m, m)``
    stack of inverted blocks.  The local kernel works in ``precision``;
    corrections are float64.
    """

    sets: list
    idx: np.ndarray
    omega: float
    sweeps: int
    precision: str
    chunks: list

    def apply(self, a, r, executor=None):
        """Correction of ``sweeps`` sweeps against residual ``r``.

        Each sweep gathers the defect on every set, solves all chunks
        (concurrently, one task each, given an ``executor``) and adds
        ``omega`` times the local solutions back.
        """
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (a.n_rows,):
            raise ValueError("residual length does not match the matrix")
        z = np.zeros_like(r)
        for sweep in range(self.sweeps):
            defect = r if sweep == 0 else r - spmv(a, z)
            if not np.isfinite(defect).all():
                raise NumericalFailureError("non-finite defect in smoother sweep")
            local = defect[self.idx].astype(self.precision, copy=False)

            def solve(chunk):
                rows, solver = chunk
                return solver.solve(local[rows])

            mapper = map if executor is None else executor.map
            solved = np.concatenate(list(mapper(solve, self.chunks)))
            z += self.omega * np.bincount(self.idx, weights=solved, minlength=r.size)
        return z


def _usable_cpus():
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass(eq=False)
class _BatchedInverse:
    """Dense-kernel solver: one batched product with a stack of inverses.

    Each block's product does not depend on the rest of the batch, so a
    slice of the stack solves its sets bitwise equally to the whole.
    """

    inverses: np.ndarray

    def solve(self, v):
        n_sets, m, _ = self.inverses.shape
        return np.matmul(self.inverses, v.reshape(n_sets, m, 1)).reshape(-1)


# Cells whose blocks one gathering step takes from the level matrix, at
# most (a larger set is gathered on its own).  Each step forms ``A[g][:, g]``
# for its cells ``g`` only, so the temporaries do not grow with the level.
GATHER_CELLS = 2**14


def _gathered(a, sets, sizes):
    """Entries of ``diag(A[s, s])`` over ``sets``, one step of sets at a time.

    Consecutive sets ending in the same run of :data:`GATHER_CELLS` cells
    form a step.  Yields ``(row0, size, row, col, data)`` per step: its
    ``size`` cells start at row ``row0`` of the whole block-diagonal
    matrix, and the COO entries of its blocks count rows and columns from
    there.
    """
    csr = a._scipy
    step = (np.cumsum(sizes) - 1) // GATHER_CELLS
    starts = [0, *(np.flatnonzero(np.diff(step)) + 1)]
    row0 = 0
    for first, stop in zip(starts, [*starts[1:], len(sets)]):
        cells = np.concatenate(sets[first:stop])
        owner = np.repeat(np.arange(stop - first, dtype=np.intc), sizes[first:stop])
        sub = csr[cells][:, cells]
        counts = np.diff(sub.indptr)
        keep = np.repeat(owner, counts) == owner[sub.indices]
        row = np.repeat(np.arange(cells.size, dtype=np.intc), counts)
        yield row0, cells.size, row[keep], sub.indices[keep], sub.data[keep]
        row0 += cells.size


def _block_diagonal(a, sets, precision):
    """``diag(A[s, s])`` over ``sets`` as one CSC matrix in ``precision``.

    Each gathered step is written straight into the result, whose entries
    are bounded by those of the rows of ``A`` over the sets; no copy of
    the whole ``A[idx][:, idx]`` is formed.
    """
    sizes = np.array([len(s) for s in sets])
    n = int(sizes.sum())
    bound = int(np.diff(a._scipy.indptr)[np.concatenate(sets)].sum())
    data = np.empty(bound, dtype=precision)
    indices = np.empty(bound, dtype=np.intc)
    indptr = np.zeros(n + 1, dtype=np.intc)
    nnz = 0
    for row0, size, row, col, values in _gathered(a, sets, sizes):
        block = scipy.sparse.csc_matrix((values, (row, col)), shape=(size, size))
        end = nnz + block.nnz
        data[nnz:end] = block.data
        indices[nnz:end] = block.indices + row0
        indptr[row0 + 1:row0 + size + 1] = block.indptr[1:] + nnz
        nnz = end
    return scipy.sparse.csc_matrix((data[:nnz], indices[:nnz], indptr), shape=(n, n))


def _factor(a, sets, n_chunks, precision, inverses=None, label="set"):
    """Solvers for ``n_chunks`` runs of consecutive ``sets``.

    A stack of ``inverses`` (dense kernel) is sliced.  Otherwise each
    chunk's blocks are gathered from ``a`` and factorized with minimum
    degree on ``A + A^T``, and only the factor is kept; one-column panels
    and supernodes keep every column's arithmetic inside its block, so
    chunks of any size solved bitwise equally on every grid tried up to
    256^2 and 32^3 (COLAMD and SuperLU's symmetric mode do not, for small
    blocks).  A singular chunk is refactorized set by set to name the
    singular set.
    """
    bounds = np.cumsum([0] + [len(s) for s in sets])
    chunks = []
    for group in np.array_split(np.arange(len(sets)), min(n_chunks, len(sets))):
        first, stop = group[0], group[-1] + 1
        rows = slice(bounds[first], bounds[stop])
        if inverses is not None:
            chunks.append((rows, _BatchedInverse(inverses[first:stop])))
            continue
        try:
            lu = scipy.sparse.linalg.splu(
                _block_diagonal(a, sets[first:stop], precision),
                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=1,
            )
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            if group.size == 1:
                raise SingularMatrixError(f"singular {label} {first}") from None
            return _factor(a, sets, len(sets), precision, label=label)
        chunks.append((rows, lu))
    return chunks


def _inverses(a, sets, m, precision, label):
    """Stack of the inverted ``m x m`` blocks ``A[s, s]`` over ``sets``.

    Where the coefficient is constant, a structured grid repeats the same
    block (106 distinct ones among the 1024 tiles of the 128^2 disc
    level), so each distinct block is inverted once.  A singular block
    raises :class:`SingularMatrixError` naming it.
    """
    n_sets = len(sets)
    flat = np.zeros((n_sets, m * m), dtype=precision)
    for row0, _, row, col, values in _gathered(a, sets, np.full(n_sets, m)):
        # a step starts at a block boundary, so ``col % m`` is the block column
        flat.reshape(-1)[(row0 + row.astype(np.int64)) * m + col % m] = values
    # equal blocks get equal keys; unequal blocks sharing a key fail the check
    keys = flat @ np.sqrt(np.arange(2.0, m * m + 2))
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    repeats = first.size < n_sets and np.array_equal(flat, flat[first[which]])
    blocks = flat.reshape(n_sets, m, m)
    try:
        return np.linalg.inv(blocks[first])[which] if repeats else np.linalg.inv(blocks)
    except np.linalg.LinAlgError:  # raised once for the whole stack
        # the same LU pivots vanish: a zero determinant sign marks the block
        singular = np.flatnonzero(np.linalg.slogdet(blocks)[0] == 0)[0]
        raise SingularMatrixError(f"singular {label} {singular}") from None


def _subdomain_smoother(a, sets, omega, sweeps, precision, label):
    """Invert or factorize the blocks ``A[s, s]`` over ``sets``.

    Equal-size sets of at most :data:`DENSE_MAX_CELLS` cells take the
    dense kernel, every other partition the sparse one.  The sets are cut
    into one chunk per usable CPU; chunks of whole sets solve bitwise
    equally to one, so their count only sizes the tasks a pool can run
    at once.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("subdomain smoothers require a square matrix")
    if precision not in ("float64", "float32"):
        raise ValueError(f"unknown precision {precision!r}; expected 'float64' or 'float32'")
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    sizes = np.array([len(s) for s in sets])
    m = sizes[0]
    inverses = None
    if m <= DENSE_MAX_CELLS and (sizes == m).all():
        inverses = _inverses(a, sets, m, precision, label)
    return SubdomainSmoother(sets, np.concatenate(sets), float(omega), int(sweeps), precision,
                             _factor(a, sets, _usable_cpus(), precision, inverses, label))


def schwarz_setup(a, partition, precision="float64", sweeps=1):
    """Additive Schwarz over the extended cells of ``partition``.

    A singular local block raises :class:`SingularMatrixError` naming
    the subdomain.
    """
    covered = sum(core.size for core in partition.core_cells)
    if covered != a.n_rows:
        raise ValueError(
            f"partition covers {covered} cells but the matrix has {a.n_rows} rows"
        )
    return _subdomain_smoother(a, partition.extended_cells, 1.0, sweeps, precision,
                               "subdomain")


def bj_setup(a, tile_cells_per_axis, geometry=None, omega=1.0, sweeps=5,
             precision="float64"):
    """Damped block Jacobi over square tiles of ``tile_cells_per_axis`` cells.

    ``geometry`` is the grid shape ``(cells_per_axis, dimension)`` behind
    the matrix rows; without it the index space is one-dimensional and
    tiles are contiguous ranges.  The tile edge must divide the axis.  A
    singular tile raises :class:`SingularMatrixError` naming the block.
    """
    cells, dimension = (a.n_rows, 1) if geometry is None else geometry
    if cells**dimension != a.n_rows:
        raise ValueError(
            f"geometry {cells}^{dimension} does not match {a.n_rows} matrix rows"
        )
    if tile_cells_per_axis < 1 or cells % tile_cells_per_axis != 0:
        raise ValueError(
            f"tile size {tile_cells_per_axis} does not divide the "
            f"axis cell count {cells}"
        )
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    # axes (tile_0, cell_0, tile_1, cell_1, ...) -> one row of cells per tile
    grid = np.arange(a.n_rows, dtype=np.int64).reshape(
        (cells // tile_cells_per_axis, tile_cells_per_axis) * dimension)
    tiles = grid.transpose([*range(0, 2 * dimension, 2), *range(1, 2 * dimension, 2)])
    tiles = list(tiles.reshape(-1, tile_cells_per_axis**dimension))
    return _subdomain_smoother(a, tiles, omega, sweeps, precision, "diagonal block")
