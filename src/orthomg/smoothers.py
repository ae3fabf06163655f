"""Additive Schwarz and block-Jacobi smoothers on structured grids.

Both are one :class:`SubdomainSmoother`, summing local solves over
overlapping subdomains (Schwarz) or disjoint tiles (block Jacobi).  Set-up
finds the distinct blocks ``A[s, s]``, stacks those with the same number
of copies into pieces, and gives each piece one solver for all its
copies.  Where the sets were cut from boxes and the matrix stores
exactly the face pattern of its grid, it reads the blocks from the
matrix at positions the grid fixes: boxes that list their sets by one
pattern share the pattern's entries, and each box reads its values with
one gather (:func:`_read_blocks`).  Elsewhere it slices each set's block
from the matrix on its own (:func:`_sliced_blocks`), slower but with one
block's temporaries; both find the same blocks.  A block is listed in its
set's cell order, and a subdomain lists its cells in a canonical
orientation (:func:`partition_cells`), so mirror images of a subdomain
under the grid's reflections and axis swaps share one block.  The sets
choose the solver, once per level: when every set has the same size
``m <= DENSE_MAX_CELLS`` (16), a piece's blocks are inverted explicitly
and its solve is one batched product (the batched block-Jacobi form of
Anzt, Dongarra, Flegar and Quintana-Orti, Parallel Computing 81, 2019);
otherwise they are factorized together by sparse LU, and its solve is
one triangular solve.  An application always starts from a zero
correction, so smoothers are linear operators on the residual; overlap
contributions in the Schwarz sweep are summed without damping because
the surrounding minimization absorbs any overcorrection.
"""

import math
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
    orientation of :func:`partition_cells`.  ``boxes`` are the boxes the
    sets were cut from, in groups that list their sets by one pattern
    (:class:`_Boxes`); a partition listed by hand has none, and set-up
    then slices each set's block from the matrix.
    """

    core_cells: list
    extended_cells: list
    boxes: tuple = ()


@dataclass(eq=False)
class _Boxes:
    """Boxes whose sets are one pattern of cells, each placed by its own walk.

    Each set holds the window cells ``cells`` (coordinates along the walk
    axes, slowest first, in walk order), of which those marked in
    ``core`` lie in the box.  Box ``k`` is set ``members[k]``: window cell
    ``x`` is grid cell ``base[k] + strides[k] @ x``, and walk direction
    ``j`` is slot ``slots[k, j]`` of :func:`_face_positions`, with walk
    directions in slot order over the walk axes.  Every set's block has
    the entries ``(row, col, direction)``, rows in set order and each
    row's columns ascending, since the walk fixes the set's order.
    """

    members: np.ndarray
    base: np.ndarray
    strides: np.ndarray
    slots: np.ndarray
    cells: np.ndarray
    core: np.ndarray
    row: np.ndarray
    col: np.ndarray
    direction: np.ndarray

    def grid_cells(self, boxes=slice(None), cells=None):
        """Grid cells of window ``cells`` (default: the set's), one row per box of ``boxes``."""
        cells = self.cells if cells is None else cells
        out = self.strides[boxes] @ cells.T
        out += self.base[boxes, None]
        return out


def _walks(lo, hi, flips, order, cells_per_axis, overlap):
    """Group boxes ``[lo, hi)`` by the pattern their walks list.

    Row ``k`` of each argument is box ``k`` in walk coordinates: ``lo``
    and ``hi`` per walk axis, slowest first, whether the walk runs
    backwards along it (``flips``), and its grid axis (``order``).  A set
    holds the cells at most ``overlap`` face steps from its box, and only
    a window ``overlap`` cells wider than the box can hold any.  Boxes
    whose windows have the same extents, with the box at the same place
    counted from the walk's start, list one pattern.
    """
    n, d = cells_per_axis, lo.shape[1]
    start, stop = np.maximum(lo - overlap, 0), np.minimum(hi + overlap, n)
    first = np.where(flips, stop - hi, lo - start)
    last = np.where(flips, stop - lo, hi - start)
    keys, group = np.unique(np.concatenate([stop - start, first, last], axis=1), axis=0,
                            return_inverse=True)
    grid = (n ** np.arange(d - 1, -1, -1))[order]
    base = (np.where(flips, stop - 1, start) * grid).sum(axis=1)
    strides = np.where(flips, -grid, grid)
    lower = np.where(flips, 2 * d - order, order)
    slots = np.concatenate([lower, np.full((len(lo), 1), d), 2 * d - lower[:, ::-1]], axis=1)
    # a walk direction's step in walk coordinates: lower neighbours, the cell, upper ones
    moves = np.concatenate([-np.eye(d, dtype=np.int64), np.zeros((1, d), np.int64),
                            np.eye(d, dtype=np.int64)[::-1]])
    group = group.reshape(-1)
    groups = []
    for g, (shape, low, high) in enumerate(keys.reshape(-1, 3, d)):
        axes = np.ix_(*map(np.arange, shape))
        steps = sum(np.maximum(np.maximum(l - x, x - h + 1), 0) for x, l, h in zip(axes, low, high))
        inside = steps <= overlap
        cells = np.argwhere(inside)
        # each window cell's position in the set, -1 off the set, in a -1 frame
        position = np.full(tuple(shape + 2), -1)
        position[(slice(1, -1),) * d][inside] = np.arange(len(cells))
        col = position[tuple((cells[:, None] + 1 + moves).transpose(2, 0, 1))]
        entries = col >= 0
        row, direction = np.nonzero(entries)
        members = np.flatnonzero(group == g)
        groups.append(_Boxes(members, base[members], strides[members], slots[members],
                             cells, steps[inside] == 0, row, col[entries], direction))
    return tuple(groups)


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
    total = math.prod(extents)
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
    lo, hi = np.array(boxes, dtype=np.int64).transpose(1, 0, 2)
    # the walk's axes, slowest first, and their directions (see above)
    centre = np.minimum(lo + hi, 2 * n - lo - hi)
    order = np.argsort((hi - lo) * (2 * n + 1) + centre, axis=1, kind="stable")
    lo, hi = np.take_along_axis(lo, order, axis=1), np.take_along_axis(hi, order, axis=1)
    groups = _walks(lo, hi, lo + hi > n, order, n, overlap)
    cores, extended = [None] * len(boxes), [None] * len(boxes)
    for g in groups:
        sets = g.grid_cells()
        for k, core, cells in zip(g.members.tolist(), np.sort(sets[:, g.core], axis=1), sets):
            cores[k], extended[k] = core, cells
    return Partition(cores, extended, groups)


@dataclass(eq=False)
class SubdomainSmoother:
    """Local solves on index sets, summed over ``sweeps`` damped sweeps.

    ``sets`` are the subdomains or tiles of the level matrix, as views of
    ``idx``, their concatenation: row ``k`` of the block-diagonal matrix
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
        z = None
        for _ in range(self.sweeps):
            defect = r if z is None else r - spmv(a, z)
            if not np.isfinite(defect).all():
                raise NumericalFailureError("non-finite defect in smoother sweep")
            solved = np.empty(self.idx.size, self.precision)

            def solve(chunk):
                rows, cells, solver = chunk
                solved[rows] = solver.solve(defect[cells].astype(self.precision, copy=False))

            mapper = map if executor is None else executor.map
            list(mapper(solve, self.chunks))
            step = np.bincount(self.idx, weights=solved, minlength=r.size)
            if self.omega != 1.0:
                step *= self.omega
            if z is not None:
                z += step
            elif self.omega != 1.0:
                z = step + 0.0  # 0.0 + a damped step rounded to -0.0 is +0.0
            else:
                z = step  # bincount sums from +0.0, so no entry is -0.0
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


def _sliced_blocks(a, sets, sizes, precision):
    """Each distinct block ``A[s, s]`` over ``sets`` once, in ``precision``.

    A structured grid repeats blocks wherever the coefficient is constant
    and between mirror images of a subdomain (10 distinct ones among the
    256 subdomains of the 256^2 disc level, 11 among the 128 of the 32^3
    one, 106 among the 1024 tiles of the 128^2 one).  Each set's block is
    sliced from ``a`` on its own, so the temporaries are one block's, and
    keyed by its size and the bytes of its entries, so only bitwise-equal
    blocks share one: the dict confirms every hash match by comparing the
    keys whole.  Returns the distinct blocks in order of first appearance,
    each as its size and its entries (``row``, ``col`` and ``data``
    records, in row order, each row by column, counted as positions in the
    set), and per set the index of its block.
    """
    entry = np.dtype([("row", np.intc), ("col", np.intc), ("data", precision)])
    keys = {}
    which = []
    for s, size in zip(sets, sizes.tolist()):
        block = a[s][:, s]
        block.sort_indices()
        records = np.empty(block.nnz, entry)
        records["row"] = np.repeat(np.arange(size), np.diff(block.indptr))
        records["col"], records["data"] = block.indices, block.data
        which.append(keys.setdefault((size, records.tobytes()), len(keys)))
    return [(size, np.frombuffer(key, entry)) for size, key in keys], np.array(which)


# Block entries one step of the grid read takes, at most: a group's boxes
# are read a slice at a time, so the temporaries do not grow with the level.
READ_ENTRIES = 2**16


def _distinct_rows(data):
    """The first of each set of bitwise-equal rows of ``data``, and each row's one.

    Rows are sorted by a wrapping weighted sum of their bits, and each is
    then compared whole with the first row of its sum; only when two
    unequal rows share a sum are the rows sorted by their bytes.
    """
    bits = data.view(np.dtype(f"u{data.itemsize}"))
    weights = np.arange(1, 2 * bits.shape[1], 2, dtype=bits.dtype)
    _, first, inverse = np.unique(bits @ weights, return_index=True, return_inverse=True)
    if not (bits == bits[first[inverse]]).all():
        rows = bits.view(np.dtype((np.void, bits[0].nbytes)))[:, 0]
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


def _face_positions(a, boxes):
    """Where ``a.data`` holds each face coupling of each cell, or ``None``.

    The grid is the ``n**d`` one of ``boxes``.  Slot ``s`` of a cell is its
    coupling to its lower neighbour on axis ``s`` for ``s < d``, its
    diagonal for ``s = d``, and its coupling to its upper neighbour on
    axis ``2d - s`` for ``s > d``; with cells in C order a row lists its
    columns in slot order.  Set-up reads along boxes only where ``a`` stores exactly the
    face pattern of the grid, stored zeros included: every row holds one
    entry per neighbour on the grid and itself, each at the expected
    column.  Then slot ``s`` of cell ``c`` lies at ``positions[s, c]``:
    ``indptr[c]`` plus the slots the cell has before ``s``.  Each slot is
    checked on its own, so no temporary holds more than one index per
    cell.  Without boxes, or where the pattern differs, returns ``None``.
    """
    if not boxes:
        return None
    d, total = boxes[0].strides.shape[1], a.shape[0]
    n = round(total ** (1.0 / d))
    if n**d != total or any(g.strides.shape[1] != d for g in boxes):
        return None
    shape = (n,) * d
    # the cells whose lower and upper neighbours on each axis lie on the grid
    lower = [(slice(None),) * axis + (slice(1, None),) for axis in range(d)]
    upper = [(slice(None),) * axis + (slice(None, -1),) for axis in range(d)]
    count = np.full(shape, 2 * d + 1, dtype=np.int8)
    for axis in range(d):
        count[(slice(None),) * axis + (0,)] -= 1
        count[(slice(None),) * axis + (-1,)] -= 1
    if not np.array_equal(np.diff(a.indptr), count.reshape(-1)):
        return None
    del count
    cells = np.arange(total, dtype=a.indices.dtype).reshape(shape)
    positions = np.empty((2 * d + 1, total), dtype=a.indptr.dtype)
    positions[0] = a.indptr[:-1]
    for slot in range(2 * d + 1):
        here = positions[slot].reshape(shape)
        if slot < d:
            inside, step = lower[slot], -n ** (d - 1 - slot)
        elif slot > d:
            inside, step = upper[2 * d - slot], n ** (slot - d - 1)
        else:
            inside, step = (), 0
        columns = np.take(a.indices, here[inside])
        columns -= cells[inside]
        if not (columns == step).all():
            return None
        del columns
        if slot < 2 * d:
            positions[slot + 1] = positions[slot]
            positions[slot + 1].reshape(shape)[inside] += 1
    return positions


def _read_blocks(a, positions, boxes, count, precision):
    """Each distinct block over the ``count`` sets of ``boxes``, read from ``a``.

    Returns what :func:`_sliced_blocks` returns where
    :func:`_face_positions` gives ``positions``.  A box's entries are one
    gather ``a.data[positions[slot, cell]]``, keyed by their bytes in
    ``precision`` beside its pattern's size, rows and columns, so
    bitwise-equal blocks share one, as there.  Records are formed for
    distinct blocks only, and blocks are numbered in order of their first
    set.
    """
    entry = np.dtype([("row", np.intc), ("col", np.intc), ("data", precision)])
    places = positions.reshape(-1)
    total = a.shape[0]
    patterns, keys, blocks = {}, {}, []
    which = np.empty(count, dtype=np.intp)
    for g in boxes:
        size = len(g.cells)
        pattern = patterns.setdefault((size, g.row.tobytes(), g.col.tobytes()), len(patterns))
        rows = g.cells[g.row]
        step = max(1, READ_ENTRIES // g.row.size)
        for lo in range(0, g.members.size, step):
            part = slice(lo, lo + step)
            # slot s of cell c at s * total + c: each box's slot and base
            # cell per walk direction, plus the entry's cell in its window
            at = np.take(g.slots[part] * total + g.base[part, None], g.direction, axis=1)
            at += g.strides[part] @ rows.T
            data = np.take(a.data, places[at]).astype(precision, copy=False)
            del at
            first, inverse = _distinct_rows(data)
            number = []
            for k in first.tolist():
                number.append(keys.setdefault((pattern, data[k].tobytes()), len(keys)))
                if number[-1] == len(blocks):
                    records = np.empty(g.row.size, entry)
                    records["row"], records["col"], records["data"] = g.row, g.col, data[k]
                    blocks.append((size, records))
            which[g.members[part]] = np.array(number)[inverse]
            del data  # the next slice reads without it
    first = np.full(len(blocks), count)
    np.minimum.at(first, which, np.arange(count))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return [blocks[j] for j in order], rank[which]


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
    The entries, in row order and each row by column, are the CSR arrays
    of ``diag(blocks)``, turned into CSC in linear time, without a sort.
    """
    entries, owner = _stacked(blocks)
    sizes = np.array([size for size, _ in blocks])
    offset = (np.cumsum(sizes) - sizes)[owner]
    n = sizes.sum()
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(entries["row"] + offset, minlength=n), out=indptr[1:])
    matrix = scipy.sparse.csr_matrix(
        (entries["data"], entries["col"] + offset, indptr), shape=(n, n)).tocsc()
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


def _subdomain_smoother(a, sets, omega, sweeps, precision, label, boxes=()):
    """Invert or factorize each distinct block ``A[s, s]`` over ``sets`` once.

    The blocks are read from ``a`` along the ``boxes`` the sets were cut
    from where :func:`_face_positions` allows, and sliced from it set by
    set otherwise; both find the same blocks, bit for bit.

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
    positions = _face_positions(a, boxes)
    if positions is not None:
        blocks, which = _read_blocks(a, positions, boxes, len(sets), precision)
    else:
        blocks, which = _sliced_blocks(a, sets, sizes, precision)
    del positions
    counts = np.bincount(which)
    # the sets of block j, in set order: by_block[heads[j]:heads[j] + counts[j]]
    by_block = np.argsort(which, kind="stable")
    heads = np.cumsum(counts) - counts
    block_sizes = sizes[by_block[heads]]
    set_rows = np.cumsum(sizes) - sizes
    idx = np.concatenate(sets)
    # the smoother keeps no copy of the caller's sets
    sets = [idx[lo:lo + size] for lo, size in zip(set_rows.tolist(), sizes.tolist())]
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

    Where the partition has boxes (:func:`partition_cells`) and ``a``
    stores exactly the face pattern of their grid, set-up reads the blocks
    from ``a.data`` along the boxes instead of slicing each from ``a``; the
    smoother is the same, bit for bit.  A singular local block raises
    :class:`SingularMatrixError` naming the subdomain.
    """
    check_csr(a)
    covered = sum(core.size for core in partition.core_cells)
    if covered != a.shape[0]:
        raise ValueError(
            f"partition covers {covered} cells but the matrix has {a.shape[0]} rows"
        )
    return _subdomain_smoother(a, partition.extended_cells, 1.0, sweeps, precision,
                               "subdomain", partition.boxes)


def _tiles(cells_per_axis, dimension, tile):
    """The grid's tiles of ``tile`` cells per axis as one group of boxes, in C order.

    Each tile walks its own cells in grid order, so its set lists them
    ascending.
    """
    lo = np.indices((cells_per_axis // tile,) * dimension).reshape(dimension, -1).T * tile
    return _walks(lo, lo + tile, np.zeros(lo.shape, dtype=bool),
                  np.broadcast_to(np.arange(dimension), lo.shape), cells_per_axis, 0)


def bj_setup(a, tile_cells_per_axis, geometry=None, omega=1.0, sweeps=5,
             precision="float64"):
    """Damped block Jacobi over square tiles of ``tile_cells_per_axis`` cells.

    ``geometry`` is the grid shape ``(cells_per_axis, dimension)`` behind
    the matrix rows; without it the index space is one-dimensional and
    tiles are contiguous ranges.  The tile edge must divide the axis.
    The blocks are read along the tiles as :func:`schwarz_setup` reads
    them along its boxes.  A singular tile raises
    :class:`SingularMatrixError` naming the block.
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
    boxes = _tiles(cells, dimension, tile_cells_per_axis)
    return _subdomain_smoother(a, list(boxes[0].grid_cells()), omega, sweeps, precision,
                               "diagonal block", boxes)
