"""Additive Schwarz and block-Jacobi smoothers on structured grids.

Both are one :class:`SubdomainSmoother`, summing local solves over
overlapping subdomains (Schwarz) or disjoint tiles (block Jacobi).  The
sets themselves choose the local kernel, once per level: when every set
has the same size ``m <= DENSE_MAX_CELLS`` (16), the blocks are inverted
explicitly and a sweep is one batched product with the stack of inverses
(the batched block-Jacobi form of Anzt, Dongarra, Flegar and
Quintana-Orti, Parallel Computing 81, 2019); otherwise each distinct
block is factorized once by sparse LU, and one triangular solve takes
all copies of the blocks that share a factor.  An application always
starts from a zero correction, so smoothers are linear operators on the
residual; overlap contributions in the Schwarz sweep are summed without
damping because the surrounding minimization absorbs any
overcorrection.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import splu
# SuperLU's triangular solve is private to scipy (``spsolve_triangular``
# calls it); the scipy floor in pyproject.toml is the release whose
# ``gstrs`` signature was checked.
from scipy.sparse.linalg._dsolve._superlu import gstrs

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
# one batched matmul; larger or unequal sets take the sparse kernel.  One
# block-Jacobi sweep with either kernel and its factor memory on the disc
# problem, measured on a 2-thread Xeon host:
#
#   cells per set m     sparse / dense per sweep    memory sparse / dense
#   4   (2D, 128^2)     0.34 / 0.27 ms              0.03 / 0.5 MiB
#   16  (2D, 128^2)     0.34 / 0.23 ms              0.2 / 2.0 MiB
#   64  (3D, 32^3)      1.03 / 1.01 ms              2.1 / 16 MiB
#   256 (2D, 128^2)     0.67 / 1.46 ms              1.5 / 32 MiB
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
    ``diag(A[s, s])`` belongs to cell ``idx[k]``.  ``chunks`` pairs rows
    of that matrix with a solver for them, cut once at set-up into
    pieces of at most :data:`PIECE_CELLS` cells.  On the dense kernel the
    rows are a slice and the solver a slice of the ``(n_sets, m, m)``
    stack of inverted blocks; on the sparse kernel the rows are every
    copy of a few distinct blocks, in factor order, and the solver their
    one LU factor (:class:`_StackedLU`).  The smoother keeps no
    block-diagonal matrix.  The local kernel works in ``precision``;
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
        ``omega`` times the local solutions back.  Overlapping solutions
        are summed in set order, so the chunks change no bit of the sum.
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
            solved = np.empty_like(local)

            def solve(chunk):
                rows, solver = chunk
                solved[rows] = solver.solve(local[rows])

            mapper = map if executor is None else executor.map
            list(mapper(solve, self.chunks))
            z += self.omega * np.bincount(self.idx, weights=solved, minlength=r.size)
        return z


# Cells of one chunk, at most (a larger set is a chunk on its own): a run
# of whole blocks on the dense kernel, the distinct blocks factorized
# together on the sparse one.  The bound keeps SuperLU's working memory
# small and gives a pool several tasks per level; the chunks change no
# bit of a correction.
PIECE_CELLS = 2**12


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


@dataclass(eq=False)
class _StackedLU:
    """Sparse-kernel solver: one LU factor of a few distinct blocks.

    Every block of the factor has the same number ``c`` of copies on the
    level, and a right-hand side holds the rows of copy 1, then copy 2,
    and so on, each in factor order; one triangular solve takes all ``c``
    as columns.  ``lower`` is the unit-lower factor with the diagonal of
    the upper one written over its unit diagonal, and ``upper`` the upper
    factor with a zero diagonal: the CSC arrays SuperLU's ``gstrs`` takes
    to solve with one supernode per column.  Each column's arithmetic
    stays inside its block.
    """

    lower: scipy.sparse.csc_matrix
    upper: scipy.sparse.csc_matrix

    def solve(self, v):
        lower, upper = self.lower, self.upper
        n = lower.shape[0]
        x, info = gstrs("N", n, lower.nnz, lower.data, lower.indices, lower.indptr,
                        n, upper.nnz, upper.data, upper.indices, upper.indptr,
                        v.reshape(-1, n).T)
        if info:
            raise NumericalFailureError(f"SuperLU triangular solve failed (info {info})")
        return x.T.reshape(-1)


# Cells whose blocks one gathering step takes from the level matrix, at
# most, and the slots of its lookup table (a larger set is gathered on its
# own).  Each step forms the rows ``A[g]`` for its cells ``g`` only, so the
# temporaries do not grow with the level.
GATHER_CELLS = 2**14
GATHER_SLOTS = 2**18


def _gathered(a, sets, sizes):
    """Entries of ``diag(A[s, s])`` over ``sets``, one step of sets at a time.

    Each set owns a window of table slots, one per matrix index from its
    smallest cell to its largest, holding the step row of each of its
    cells; an entry of a gathered row is kept when its column hits a
    filled slot in the window of the row's own set.  Consecutive sets
    whose cells and windows fit in :data:`GATHER_CELLS` cells and
    :data:`GATHER_SLOTS` slots form a step.  Yields ``(row0, size, row,
    col, data)`` per step: its ``size`` cells start at row ``row0`` of the
    whole block-diagonal matrix, and the COO entries of its blocks count
    rows and columns from there.
    """
    csr = a._scipy
    heads = np.cumsum(sizes) - sizes
    cells = np.concatenate(sets)
    lo = np.minimum.reduceat(cells, heads)
    width = np.maximum.reduceat(cells, heads) - lo + 1
    ends = (np.cumsum(sizes) - 1) // GATHER_CELLS + (np.cumsum(width) - 1) // GATHER_SLOTS
    starts = [0, *(np.flatnonzero(np.diff(ends)) + 1)]
    for first, stop in zip(starts, [*starts[1:], len(sets)]):
        row0, size = heads[first], heads[stop - 1] + sizes[stop - 1] - heads[first]
        owner = np.repeat(np.arange(stop - first), sizes[first:stop])
        # slot of index j for a row of set o: shift[o] + j, past a -1 guard
        # slot at each end of the table
        window = np.cumsum(width[first:stop]) - width[first:stop] + 1
        shift = window - lo[first:stop]
        slots = np.full(window[-1] + width[stop - 1] + 1, -1)
        slots[shift[owner] + cells[row0:row0 + size]] = np.arange(size)
        sub = csr[cells[row0:row0 + size]]
        row = np.repeat(np.arange(size), np.diff(sub.indptr))
        col = slots[np.clip(shift[owner[row]] + sub.indices, 0, slots.size - 1)]
        # a column outside the row's window lands on a guard, an empty slot
        # or another set's cell
        keep = (col >= 0) & (owner[col] == owner[row])
        yield row0, size, row[keep], col[keep], sub.data[keep]


def _distinct_blocks(a, sets, bounds, precision):
    """Each distinct block ``A[s, s]`` over ``sets`` once, in ``precision``.

    ``bounds`` are the first rows of the sets in ``diag(A[s, s])``, plus
    its size.  A structured grid repeats blocks wherever the coefficient
    is constant (54 distinct ones among the 256 subdomains of the 256^2
    disc level).  Returns the distinct blocks as CSC ``(indptr, indices,
    data)`` triples in order of first appearance and, per set, the index
    of its block.  Blocks are keyed by the bytes of those arrays, so only
    bitwise-equal blocks of the same size and structure share one: the
    dict confirms every hash match by comparing the keys whole.
    """
    keys = {}
    which = np.empty(len(sets), dtype=np.intp)
    for row0, size, row, col, values in _gathered(a, sets, np.diff(bounds)):
        step = scipy.sparse.csc_matrix((values.astype(precision), (row, col)), shape=(size, size))
        first, stop = np.searchsorted(bounds, [row0, row0 + size])
        for k in range(first, stop):
            lo, hi = bounds[k] - row0, bounds[k + 1] - row0
            ptr = step.indptr[lo:hi + 1]
            key = ((ptr - ptr[0]).astype(np.intc).tobytes(),
                   (step.indices[ptr[0]:ptr[-1]] - lo).astype(np.intc).tobytes(),
                   step.data[ptr[0]:ptr[-1]].tobytes())
            which[k] = keys.setdefault(key, len(keys))
    blocks = [(np.frombuffer(indptr, dtype=np.intc), np.frombuffer(indices, dtype=np.intc),
               np.frombuffer(data, dtype=precision)) for indptr, indices, data in keys]
    return blocks, which


def _block_diagonal(blocks):
    """``diag(blocks)`` as one CSC matrix, from CSC ``(indptr, indices, data)`` triples."""
    offsets = np.cumsum([0, *(indptr.size - 1 for indptr, _, _ in blocks)])
    starts = np.cumsum([0, *(indices.size for _, indices, _ in blocks)])
    indptr = np.concatenate([[0], *(p[1:] + s for (p, _, _), s in zip(blocks, starts))])
    indices = np.concatenate([i + o for (_, i, _), o in zip(blocks, offsets)])
    data = np.concatenate([d for _, _, d in blocks])
    return scipy.sparse.csc_matrix((data, indices, indptr.astype(np.intc)),
                                   shape=(offsets[-1], offsets[-1]))


def _pieces(sizes, counts):
    """Distinct blocks cut into pieces that share a copy count.

    Blocks of ``sizes`` cells with the same count in ``counts`` are
    stacked in order, and each stack is cut into runs of at most
    :data:`PIECE_CELLS` cells.
    """
    for c in np.unique(counts):
        piece, cells = [], 0
        for j in np.flatnonzero(counts == c):
            if piece and cells + sizes[j] > PIECE_CELLS:
                yield piece
                piece, cells = [], 0
            piece.append(j)
            cells += sizes[j]
        yield piece


# One-column panels and supernodes with minimum degree on ``A + A^T`` keep
# every column's arithmetic inside its block, so a block factorizes
# bitwise alike in any piece on every grid tried up to 256^2 and 32^3
# (COLAMD and SuperLU's symmetric mode do not, for small blocks).
_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=1)


def _stacked_lu(blocks, names, label):
    """:class:`_StackedLU` of ``diag(blocks)`` and its row order.

    Row ``k`` of the factor is row ``order[k]`` of ``diag(blocks)``.  A
    singular stack is factorized block by block to raise
    :class:`SingularMatrixError` naming the first singular set, ``names``
    holding each block's first set.
    """
    try:
        lu = splu(_block_diagonal(blocks), **_SPLU_OPTIONS)
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        for k in np.argsort(names):
            try:
                splu(_block_diagonal(blocks[k:k + 1]), **_SPLU_OPTIONS)
            except RuntimeError:
                raise SingularMatrixError(f"singular {label} {names[k]}") from None
        raise NumericalFailureError(f"{label}s {sorted(names)} factorize alone but not together")
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalFailureError(f"LU of {label}s {sorted(names)} pivoted off the diagonal")
    lower, upper = lu.L, lu.U
    n = lower.shape[0]
    # scipy stores each column's diagonal first in L and last in U
    head, tail = lower.indptr[:-1], upper.indptr[1:] - 1
    if not (np.array_equal(lower.indices[head], np.arange(n))
            and np.array_equal(upper.indices[tail], np.arange(n))):
        raise NumericalFailureError("SuperLU factors lack a diagonal entry in some column")
    lower.data[head] = upper.data[tail]
    upper.data[tail] = 0.0
    return _StackedLU(lower, upper), np.argsort(lu.perm_r)


def _factor(a, sets, precision, label):
    """Sparse-kernel chunks: each distinct block factorized once.

    The distinct blocks are cut into pieces (:func:`_pieces`), and each
    piece is factorized with minimum degree on ``A + A^T``.  Its rows are
    those of all its copies, copy by copy, each copy listing its blocks'
    rows in factor order, so one solve of a gathered defect takes them
    all and the permutation costs no extra step.
    """
    bounds = np.cumsum([0, *map(len, sets)])
    blocks, which = _distinct_blocks(a, sets, bounds, precision)
    sizes = [indptr.size - 1 for indptr, _, _ in blocks]
    chunks = []
    for piece in _pieces(sizes, np.bincount(which)):
        copies = [np.flatnonzero(which == j) for j in piece]
        names = [int(s[0]) for s in copies]
        solver, order = _stacked_lu([blocks[j] for j in piece], names, label)
        # row t: the rows of the t-th copy of every block of the piece
        rows = np.concatenate([bounds[s][:, None] + np.arange(sizes[j])
                               for j, s in zip(piece, copies)], axis=1)
        chunks.append((rows[:, order].reshape(-1), solver))
    return chunks


def _slices(inverses):
    """Dense-kernel chunks: runs of whole blocks of the stack of ``inverses``."""
    n_sets, m, _ = inverses.shape
    per = max(1, PIECE_CELLS // m)
    return [(slice(first * m, min(first + per, n_sets) * m),
             _BatchedInverse(inverses[first:first + per]))
            for first in range(0, n_sets, per)]


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
        flat.reshape(-1)[(row0 + row) * m + col % m] = values
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
    dense kernel, every other partition the sparse one.  Either is cut
    into chunks of at most :data:`PIECE_CELLS` cells; the cut depends on
    the sets alone, not on the CPUs a solve may use.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("subdomain smoothers require a square matrix")
    if precision not in ("float64", "float32"):
        raise ValueError(f"unknown precision {precision!r}; expected 'float64' or 'float32'")
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    sizes = np.array([len(s) for s in sets])
    m = sizes[0]
    if m <= DENSE_MAX_CELLS and (sizes == m).all():
        chunks = _slices(_inverses(a, sets, m, precision, label))
    else:
        chunks = _factor(a, sets, precision, label)
    return SubdomainSmoother(sets, np.concatenate(sets), float(omega), int(sweeps), precision,
                             chunks)


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
