"""Additive Schwarz and block-Jacobi smoothers on structured grids.

Both are one :class:`SubdomainSmoother`, summing local solves over
overlapping subdomains (Schwarz) or disjoint tiles (block Jacobi) whose
blocks are factorized together, as one block-diagonal sparse LU, once
per level.  An application always starts from a zero correction, so
smoothers are linear operators on the residual; overlap contributions in
the Schwarz sweep are summed without damping because the surrounding
minimization absorbs any overcorrection.
"""

from dataclasses import dataclass, replace

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

    ``sets`` are the subdomains or tiles and ``idx`` their concatenation:
    row ``k`` of ``block_diagonal = diag(A[s, s])`` belongs to cell
    ``idx[k]``.  ``chunks`` pairs row slices of that matrix with their
    sparse LU factors, one chunk after set-up and one per worker after
    :meth:`split`.  Factors work in ``precision``; corrections are float64.
    """

    sets: list
    idx: np.ndarray
    omega: float
    sweeps: int
    precision: str
    block_diagonal: scipy.sparse.csc_matrix
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
                rows, lu = chunk
                return lu.solve(local[rows])

            mapper = map if executor is None else executor.map
            solved = np.concatenate(list(mapper(solve, self.chunks)))
            z += self.omega * np.bincount(self.idx, weights=solved, minlength=r.size)
        return z

    def split(self, n_chunks):
        """Refactorized copy with up to ``n_chunks`` chunks of whole sets."""
        return replace(self, chunks=_factor(self.block_diagonal, self.sets, n_chunks))


def _factor(block_diagonal, sets, n_chunks, label="set"):
    """Sparse LU factors of ``n_chunks`` runs of consecutive ``sets``.

    Minimum degree on ``A + A^T`` orders each block on its own, and
    one-column panels and supernodes keep every column's arithmetic
    inside its block, so chunks of any size solved bitwise equally on
    every grid tried up to 256^2 and 32^3 (COLAMD and SuperLU's symmetric
    mode do not, for small blocks).  A singular chunk is refactorized set
    by set to name the singular set.
    """
    bounds = np.cumsum([0] + [len(s) for s in sets])
    chunks = []
    for group in np.array_split(np.arange(len(sets)), min(n_chunks, len(sets))):
        rows = slice(bounds[group[0]], bounds[group[-1] + 1])
        try:
            lu = scipy.sparse.linalg.splu(
                block_diagonal[rows, rows], permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, relax=1, panel_size=1,
            )
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            if group.size == 1:
                raise SingularMatrixError(f"singular {label} {group[0]}") from None
            return _factor(block_diagonal, sets, len(sets), label)
        chunks.append((rows, lu))
    return chunks


def _subdomain_smoother(a, sets, omega, sweeps, precision, label):
    """Factorize ``diag(A[s, s])`` over ``sets`` as one sparse LU."""
    if a.n_rows != a.n_cols:
        raise ValueError("subdomain smoothers require a square matrix")
    if precision not in ("float64", "float32"):
        raise ValueError(f"unknown precision {precision!r}; expected 'float64' or 'float32'")
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    idx = np.concatenate(sets)
    owner = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    sub = a._scipy[idx][:, idx].tocoo()
    keep = owner[sub.row] == owner[sub.col]
    block_diagonal = scipy.sparse.csc_matrix(
        (sub.data[keep], (sub.row[keep], sub.col[keep])),
        shape=(idx.size, idx.size), dtype=precision,
    )
    return SubdomainSmoother(sets, idx, float(omega), int(sweeps), precision,
                             block_diagonal, _factor(block_diagonal, sets, 1, label))


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
