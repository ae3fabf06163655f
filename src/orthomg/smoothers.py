"""Additive Schwarz and block-Jacobi smoothers on structured grids.

Both are one :class:`SubdomainSmoother`, summing local solves over
overlapping subdomains (Schwarz) or disjoint tiles (block Jacobi).  Set-up
finds the distinct blocks ``A[s, s]``, stacks those with the same number
of copies into pieces, and gives each piece one solver for all its
copies.  A block is listed in its set's cell order, and a subdomain
lists its cells in a canonical orientation (:func:`partition_cells`), so
mirror images of a subdomain under the grid's reflections and axis swaps
share one block.  The sets choose the solver, once per level: when every
set has the same size ``m <= DENSE_MAX_CELLS`` (16), a piece's blocks
are inverted explicitly and its solve is one batched product (the
batched block-Jacobi form of Anzt, Dongarra, Flegar and Quintana-Orti,
Parallel Computing 81, 2019); otherwise they are factorized together by
sparse LU, and its solve is one triangular solve.  An application always
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
# ``gstrs`` signature was checked.  The public ``SuperLU.solve`` solves the
# same multi-column pieces to 1e-15 but, with BLAS threads unpinned as the
# CLI and the tests run, erratically: 20-59 ms for one level-0 piece of the
# 256^2 and 32^3 benchmarks on a 2-CPU host, where ``gstrs`` took 0.4-1.6 ms.
# Pinned to one BLAS thread it is as fast or faster (32^3 level-0 sweep: 2.0
# against 2.5 ms), so switching is safe only once every caller pins.
from scipy.sparse.linalg._dsolve._superlu import gstrs

from .errors import NumericalFailureError, SingularMatrixError
from .sparse import check_csr, spmv

__all__ = [
    "Partition",
    "partition_cells",
    "SubdomainSmoother",
    "schwarz_setup",
    "bj_setup",
]

# Largest set size, in cells, that takes the dense kernel: equal-size sets of
# at most this many cells store the inverses of their distinct blocks and
# solve a piece with one batched matmul; larger or unequal sets take the
# sparse kernel.  One block-Jacobi sweep with either kernel and its factor
# memory on the disc problem, measured on a 2-thread Xeon host:
#
#   cells per set m     sparse / dense per sweep    memory sparse / dense
#   4   (2D, 128^2)     0.36 / 0.32 ms              0.02 / 0.01 MiB
#   16  (2D, 128^2)     0.33 / 0.20 ms              0.15 / 0.21 MiB
#   64  (3D, 32^3)      1.01 / 0.72 ms              2.1 / 4.9 MiB
#   256 (2D, 128^2)     0.55 / 1.23 ms              1.5 / 15 MiB
#
# A whole 3D block-Jacobi solve at m = 64 (32^3, multiplicative) took
# 0.18 s to solve and 0.055 s to set up on the sparse kernel, 0.13 s and
# 0.075 s on the dense one, with 2.9 against 6.8 MiB of factors.
DENSE_MAX_CELLS = 16


@dataclass(eq=False)
class Partition:
    """Disjoint core cells plus overlap-extended cells per subdomain.

    Core cells are ascending; extended cells are listed in the canonical
    orientation of :func:`partition_cells`.
    """

    core_cells: list
    extended_cells: list


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

    Each core lists its cells in ascending order.  Each extended set
    walks its box's overlap window in a canonical orientation: an axis
    runs backwards when the box's centre lies past the grid's centre
    (``lo + hi > cells_per_axis``), and axes are ordered by box extent,
    then by the centre reflected into the grid's first half.  A box and
    its mirror image under a reflection or axis swap of the grid thus
    list mirrored cells at the same positions, and where the operator is
    bitwise symmetric under that mirror, their blocks are bitwise equal.

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

    n = cells_per_axis
    strides = n ** np.arange(dimension - 1, -1, -1)
    cores = []
    extended = []
    for lo, hi in boxes:
        # the walk's axes, slowest first, and their directions (see above)
        order = sorted(range(dimension),
                       key=lambda a: (hi[a] - lo[a], min(lo[a] + hi[a], 2 * n - lo[a] - hi[a])))
        lo, hi = [lo[a] for a in order], [hi[a] for a in order]
        # face-neighbour steps from the box are its L1 distance, summed per axis;
        # only a window ``overlap`` cells wider than the box can be reached
        windows = [np.arange(max(l - overlap, 0), min(h + overlap, n)) for l, h in zip(lo, hi)]
        axes = np.ix_(*(w[::-1] if l + h > n else w for w, l, h in zip(windows, lo, hi)))
        steps = sum(np.maximum(np.maximum(l - x, x - h + 1), 0) for x, l, h in zip(axes, lo, hi))
        flat = sum(x * strides[a] for x, a in zip(axes, order))
        cores.append(np.sort(flat[steps == 0]))
        extended.append(flat[steps <= overlap])
    return Partition(cores, extended)


@dataclass(eq=False)
class SubdomainSmoother:
    """Local solves on index sets, summed over ``sweeps`` damped sweeps.

    ``sets`` are the subdomains or tiles of the level matrix and ``idx``
    their concatenation: row ``k`` of the block-diagonal matrix
    ``diag(A[s, s])`` belongs to cell ``idx[k]``.  Each chunk holds rows
    of that matrix, their cells ``idx[rows]`` and a solver for them, one
    chunk per piece: a few distinct blocks with the same number of
    copies, of at most :data:`PIECE_CELLS` cells together.  The rows are
    those of every copy, copy by copy, in the solver's order; the solver
    holds the inverses of the piece's blocks (:class:`_BatchedInverse`)
    or their one LU factor (:class:`_StackedLU`).  The smoother keeps no
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

        Each sweep gathers each chunk's defect and solves it (all chunks
        concurrently, one task each, given an ``executor``), and adds
        ``omega`` times the local solutions back.  Overlapping solutions
        are summed in set order, so the chunks change no bit of the sum.
        """
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (a.shape[0],):
            raise ValueError("residual length does not match the matrix")
        z = np.zeros_like(r)
        for sweep in range(self.sweeps):
            defect = r if sweep == 0 else r - spmv(a, z)
            if not np.isfinite(defect).all():
                raise NumericalFailureError("non-finite defect in smoother sweep")
            solved = np.empty(self.idx.size, self.precision)

            def solve(chunk):
                rows, cells, solver = chunk
                solved[rows] = solver.solve(defect[cells].astype(self.precision, copy=False))

            mapper = map if executor is None else executor.map
            list(mapper(solve, self.chunks))
            z += self.omega * np.bincount(self.idx, weights=solved, minlength=r.size)
        return z


# Cells of a piece's distinct blocks, at most (a larger block is a piece on
# its own).  A piece and every copy of its blocks form one chunk; the bound
# keeps SuperLU's working memory small and gives a pool several tasks per
# level.  The pieces change no bit of a correction.
PIECE_CELLS = 2**12


@dataclass(eq=False)
class _BatchedInverse:
    """Dense-kernel solver: the inverses of a piece's distinct blocks.

    A right-hand side holds the rows of copy 1 of every block, then copy
    2, and so on; one batched product applies each inverse to all its
    copies.  Each block's product does not depend on the rest of the
    batch, so any cut into pieces solves a set bitwise alike.
    """

    inverses: np.ndarray

    def solve(self, v):
        d, m, _ = self.inverses.shape
        return np.matmul(self.inverses, v.reshape(-1, d, m, 1)).reshape(-1)


@dataclass(eq=False)
class _StackedLU:
    """Sparse-kernel solver: one LU factor of a piece's distinct blocks.

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
    """Entries of each block ``A[s, s]`` over ``sets``, one step of sets at a time.

    Each set owns a window of table slots, one per matrix index from its
    smallest cell to its largest, holding the step row of each of its
    cells; an entry of a gathered row is kept when its column hits a
    filled slot in the window of the row's own set.  Consecutive sets
    whose cells and windows fit in :data:`GATHER_CELLS` cells and
    :data:`GATHER_SLOTS` slots form a step.  Yields ``(first, nnz, row,
    col, data)`` per step: its sets start at set ``first``, and the
    ``k``-th of them holds the next ``nnz[k]`` entries, in row order, each
    row by column, with rows and columns counted as positions in the set.
    So a block's entries do not depend on where the set lies in the grid.
    """
    heads = np.cumsum(sizes) - sizes
    cells = np.concatenate(sets)
    lo = np.minimum.reduceat(cells, heads)
    width = np.maximum.reduceat(cells, heads) - lo + 1
    ends = (np.cumsum(sizes) - 1) // GATHER_CELLS + (np.cumsum(width) - 1) // GATHER_SLOTS
    starts = [0, *(np.flatnonzero(np.diff(ends)) + 1)]
    # cells listed after a larger cell of their own set; a step without any
    # keeps the matrix's ascending columns, already each row by column
    descends = np.diff(cells) < 0
    descends[heads[1:] - 1] = False
    for first, stop in zip(starts, [*starts[1:], len(sets)]):
        row0, size = heads[first], heads[stop - 1] + sizes[stop - 1] - heads[first]
        owner = np.repeat(np.arange(stop - first), sizes[first:stop])
        # slot of index j for a row of set o: shift[o] + j, past a -1 guard
        # slot at each end of the table
        window = np.cumsum(width[first:stop]) - width[first:stop] + 1
        shift = window - lo[first:stop]
        slots = np.full(window[-1] + width[stop - 1] + 1, -1, dtype=np.intc)
        slots[shift[owner] + cells[row0:row0 + size]] = np.arange(size)
        sub = a[cells[row0:row0 + size]]
        per_row = np.diff(sub.indptr)
        set_of = np.repeat(owner, per_row)
        col = slots[np.clip(shift[set_of] + sub.indices, 0, slots.size - 1)]
        # a column outside the row's window lands on a guard, an empty slot
        # or another set's cell
        keep = (col >= 0) & (owner[col] == set_of)
        base = heads[first:stop] - row0  # step row of each set's first cell
        row = np.repeat(np.arange(size) - base[owner], per_row)[keep]
        set_of = set_of[keep]
        col, data = col[keep], sub.data[keep]
        if descends[row0:row0 + size - 1].any():
            # the rows list columns in the grid's order: sort each by the set's
            by_col = np.argsort((row + base[set_of]) * size + col, kind="stable")
            col, data = col[by_col], data[by_col]
            del by_col
        nnz, col = np.bincount(set_of, minlength=stop - first), col - base[set_of]
        # the caller keys the step's blocks: free the step's temporaries first
        del sub, per_row, set_of, keep, slots, owner
        yield first, nnz, row, col, data
        del nnz, row, col, data  # the next step gathers without them


def _distinct_blocks(a, sets, sizes, precision):
    """Each distinct block ``A[s, s]`` over ``sets`` once, in ``precision``.

    A structured grid repeats blocks wherever the coefficient is constant
    and between mirror images of a subdomain (16 distinct ones among the
    256 subdomains of the 256^2 disc level, 11 among the 128 of the 32^3
    one, 106 among the 1024 tiles of the 128^2 one).  A set is keyed by its
    size and the bytes of its entries, so only bitwise-equal blocks share
    one: the dict confirms every hash match by comparing the keys whole.
    Returns the distinct blocks in order of first appearance, each as its
    size and its entries (``row``, ``col`` and ``data`` records, in row
    order), and per set the index of its block.
    """
    entry = np.dtype([("row", np.intc), ("col", np.intc), ("data", precision)])
    keys = {}
    which = []
    for first, nnz, row, col, data in _gathered(a, sets, sizes):
        records = np.empty(row.size, entry)
        records["row"], records["col"], records["data"] = row, col, data
        flat = records.tobytes()
        ends = np.cumsum(nnz) * entry.itemsize
        which += [keys.setdefault((size, flat[lo:hi]), len(keys)) for size, lo, hi
                  in zip(sizes[first:first + nnz.size].tolist(),
                         (ends - nnz * entry.itemsize).tolist(), ends.tolist())]
        del records, flat, row, col, data  # likewise
    return [(size, np.frombuffer(key, entry)) for size, key in keys], np.array(which)


def _stacked(blocks):
    """The entries of ``(size, entries)`` blocks in one array, and each one's block."""
    return (np.frombuffer(b"".join(entries for _, entries in blocks), blocks[0][1].dtype),
            np.repeat(np.arange(len(blocks)), [entries.size for _, entries in blocks]))


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


def _batched_inverse(blocks):
    """:class:`_BatchedInverse` of equal-size ``(size, entries)`` blocks, and its row order."""
    m = blocks[0][0]
    entries, owner = _stacked(blocks)
    stack = np.zeros((len(blocks), m, m), dtype=entries["data"].dtype)
    stack[owner, entries["row"], entries["col"]] = entries["data"]
    try:
        return _BatchedInverse(np.linalg.inv(stack)), slice(None)
    except np.linalg.LinAlgError:  # raised once for the whole stack
        raise SingularMatrixError("singular block among a stack") from None


# One-column panels and supernodes with minimum degree on ``A + A^T`` keep
# every column's arithmetic inside its block, so a block factorizes
# bitwise alike in any piece on every grid tried up to 256^2 and 32^3
# (COLAMD and SuperLU's symmetric mode do not, for small blocks).
_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=1)


def _stacked_lu(blocks):
    """:class:`_StackedLU` of ``diag(blocks)``, from ``(size, entries)`` blocks, and its row order.

    Row ``k`` of the factor is row ``order[k]`` of ``diag(blocks)``.
    """
    entries, owner = _stacked(blocks)
    sizes = np.array([size for size, _ in blocks])
    offset = (np.cumsum(sizes) - sizes)[owner]
    n = sizes.sum()
    matrix = scipy.sparse.csc_matrix(
        (entries["data"], (entries["row"] + offset, entries["col"] + offset)), shape=(n, n))
    try:
        lu = splu(matrix, **_SPLU_OPTIONS)
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError("singular block among a stack") from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalFailureError("sparse LU of a stack of blocks pivoted off the diagonal")
    lower, upper = lu.L, lu.U
    # scipy stores each column's diagonal first in L and last in U
    head, tail = lower.indptr[:-1], upper.indptr[1:] - 1
    if not (np.array_equal(lower.indices[head], np.arange(n))
            and np.array_equal(upper.indices[tail], np.arange(n))):
        raise NumericalFailureError("SuperLU factors lack a diagonal entry in some column")
    lower.data[head] = upper.data[tail]
    upper.data[tail] = 0.0
    return _StackedLU(lower, upper), np.argsort(lu.perm_r)


def _subdomain_smoother(a, sets, omega, sweeps, precision, label):
    """Invert or factorize each distinct block ``A[s, s]`` over ``sets`` once.

    The distinct blocks are cut into pieces (:func:`_pieces`), and each
    piece gets one solver: the inverses of its blocks when every set has
    the same size of at most :data:`DENSE_MAX_CELLS` cells, their sparse
    LU factor otherwise.  A chunk's rows are those of every copy of its
    piece, copy by copy, each listing its blocks' rows in the solver's
    order, so one solve of a gathered defect takes them all.  The cut
    depends on the sets alone, not on the CPUs a solve may use.  A
    singular block raises :class:`SingularMatrixError` naming the
    lowest-numbered singular set.
    """
    if precision not in ("float64", "float32"):
        raise ValueError(f"unknown precision {precision!r}; expected 'float64' or 'float32'")
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    sizes = np.array([len(s) for s in sets])
    dense = sizes[0] <= DENSE_MAX_CELLS and (sizes == sizes[0]).all()
    build = _batched_inverse if dense else _stacked_lu
    blocks, which = _distinct_blocks(a, sets, sizes, precision)
    counts = np.bincount(which)
    # the sets of block j, in set order: by_block[heads[j]:heads[j] + counts[j]]
    by_block = np.argsort(which, kind="stable")
    heads = np.cumsum(counts) - counts
    block_sizes = sizes[by_block[heads]]
    set_rows = np.cumsum(sizes) - sizes
    idx = np.concatenate(sets)
    chunks = []
    for piece in _pieces(block_sizes, counts):
        try:
            solver, order = build([blocks[j] for j in piece])
        except SingularMatrixError:
            # blocks are numbered in order of their first set
            for j, block in enumerate(blocks):
                try:
                    build([block])
                except SingularMatrixError:
                    raise SingularMatrixError(f"singular {label} {by_block[heads[j]]}") from None
            raise NumericalFailureError(f"{label}s factorize alone but not together") from None
        # row t: the rows of the t-th copy of every block of the piece
        lengths = block_sizes[piece]
        block = np.repeat(np.arange(len(piece)), lengths)
        offset = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        copies = by_block[heads[piece][:, None] + np.arange(counts[piece[0]])]
        rows = (set_rows[copies[block].T] + offset)[:, order].reshape(-1)
        chunks.append((rows, idx[rows], solver))
    return SubdomainSmoother(sets, idx, float(omega), int(sweeps), precision, chunks)


def schwarz_setup(a, partition, precision="float64", sweeps=1):
    """Additive Schwarz over the extended cells of ``partition``.

    A singular local block raises :class:`SingularMatrixError` naming
    the subdomain.
    """
    check_csr(a)
    covered = sum(core.size for core in partition.core_cells)
    if covered != a.shape[0]:
        raise ValueError(
            f"partition covers {covered} cells but the matrix has {a.shape[0]} rows"
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
    check_csr(a)
    cells, dimension = (a.shape[0], 1) if geometry is None else geometry
    if cells**dimension != a.shape[0]:
        raise ValueError(
            f"geometry {cells}^{dimension} does not match {a.shape[0]} matrix rows"
        )
    if tile_cells_per_axis < 1 or cells % tile_cells_per_axis != 0:
        raise ValueError(
            f"tile size {tile_cells_per_axis} does not divide the "
            f"axis cell count {cells}"
        )
    if not 0.0 < omega < np.inf:
        raise ValueError("omega must be positive and finite")
    # axes (tile_0, cell_0, tile_1, cell_1, ...) -> one row of cells per tile
    grid = np.arange(a.shape[0], dtype=np.int64).reshape(
        (cells // tile_cells_per_axis, tile_cells_per_axis) * dimension)
    tiles = grid.transpose([*range(0, 2 * dimension, 2), *range(1, 2 * dimension, 2)])
    tiles = list(tiles.reshape(-1, tile_cells_per_axis**dimension))
    return _subdomain_smoother(a, tiles, omega, sweeps, precision, "diagonal block")
