"""Piecewise-coefficient Poisson benchmark and its grid hierarchy.

The model problem is a diffusion equation on the box ``[-L, L]^d`` with
a circular (spherical in 3d) coefficient inclusion: the conductivity is
``k_inner`` inside a centred ball and ``k_outer`` outside, the right
hand side is constant, and the boundary condition is homogeneous
Dirichlet.  Discretization is cell-centred finite volume on a uniform
grid with harmonic face averaging, which keeps the assembled operator
symmetric positive definite across arbitrary coefficient jumps.

Coarsening is geometric 2:1 per axis with piecewise-constant
prolongation, scaled-transpose restriction, and Galerkin coarse
operators.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse

from .sparse import check_csr, csr

__all__ = [
    "ProblemSpec",
    "GridLevel",
    "GridHierarchy",
    "assemble_poisson",
    "build_prolongation",
    "build_restriction",
    "build_hierarchy",
    "hierarchy_from_matrix",
]


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of the coefficient-inclusion Poisson benchmark.

    ``radius_factor`` scales the inclusion radius relative to the half
    width of the box; a point exactly on the interface is assigned the
    outer coefficient.
    """

    dimension: int
    cells_per_axis: int
    radius_factor: float = 0.7
    k_inner: float = 1.0
    k_outer: float = 1000.0
    rhs_constant: float = 1.0
    half_width: float = 1.0

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        if self.cells_per_axis < 4 or not _is_power_of_two(self.cells_per_axis):
            raise ValueError(
                "cells_per_axis must be a power of two >= 4, "
                f"got {self.cells_per_axis}"
            )
        for name in ("k_inner", "k_outer", "half_width"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.radius_factor < 1.0:
            raise ValueError("radius_factor must lie strictly between 0 and 1")
        if not np.isfinite(self.rhs_constant):
            raise ValueError("rhs_constant must be finite")

    @property
    def interface_radius(self):
        return self.radius_factor * self.half_width

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.cells_per_axis

    @property
    def n_dofs(self):
        return self.cells_per_axis ** self.dimension

    def rhs(self):
        """The constant right-hand side, one entry per cell."""
        return np.full(self.n_dofs, float(self.rhs_constant))


@dataclass(eq=False)
class GridLevel:
    """One level of the hierarchy.

    ``restriction`` maps this level to the next coarser one and
    ``prolongation`` maps back; both are ``None`` on the coarsest level.
    """

    index: int
    matrix: scipy.sparse.csr_matrix
    restriction: Optional[scipy.sparse.csr_matrix]
    prolongation: Optional[scipy.sparse.csr_matrix]
    cells_per_axis: int

    @property
    def n_dofs(self):
        return self.matrix.shape[0]


@dataclass(eq=False)
class GridHierarchy:
    """Finest-to-coarsest sequence of grid levels."""

    levels: list

    def __post_init__(self):
        if not self.levels:
            raise ValueError("hierarchy needs at least one level")
        for fine, coarse in zip(self.levels, self.levels[1:]):
            if fine.n_dofs <= coarse.n_dofs:
                raise ValueError("levels must strictly decrease in size")
            if fine.restriction is None or fine.prolongation is None:
                raise ValueError("non-coarsest levels need transfer operators")
            if fine.restriction.shape != (coarse.n_dofs, fine.n_dofs):
                raise ValueError("restriction shape does not match level sizes")
            if fine.prolongation.shape != (fine.n_dofs, coarse.n_dofs):
                raise ValueError("prolongation shape does not match level sizes")
        last = self.levels[-1]
        if last.restriction is not None or last.prolongation is not None:
            raise ValueError("coarsest level must not carry transfer operators")

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def finest(self):
        return self.levels[0]

    @property
    def coarsest(self):
        return self.levels[-1]


def _cell_coefficients(spec):
    """Coefficient sampled at every cell centre, shape ``(n,)*d``."""
    n = spec.cells_per_axis
    h = spec.spacing
    centers = -spec.half_width + (np.arange(n) + 0.5) * h
    grids = np.meshgrid(*([centers] * spec.dimension), indexing="ij")
    radius = np.sqrt(sum(g * g for g in grids))
    return np.where(radius < spec.interface_radius, spec.k_inner, spec.k_outer)


def _along(d, axis, index):
    """Index that takes ``index`` on ``axis`` of a ``d``-dimensional array and all of the rest."""
    return (slice(None),) * axis + (index,) + (slice(None),) * (d - axis - 1)


def _sorted_sum(terms):
    """Entrywise sum of equal-shape arrays, each entry's terms added in ascending order.

    The same terms in any order give the same bits, so no reflection or axis
    swap of the grid changes a sum.  Two terms commute as they are; up to
    four are ordered by a network of ``minimum``/``maximum`` pairs, which is
    faster than ``np.sort`` over many short rows.
    """
    terms = list(terms)
    if len(terms) <= 4:
        # each pass carries the largest term left to the end; the first two
        # need no order, as their sum commutes
        for end in range(len(terms) - 1, 1, -1):
            for j in range(end):
                terms[j], terms[j + 1] = (np.minimum(terms[j], terms[j + 1]),
                                          np.maximum(terms[j], terms[j + 1]))
    else:
        terms = np.moveaxis(np.sort(np.stack(terms, axis=-1), axis=-1), -1, 0)
    total = terms[0] + terms[1]
    for term in terms[2:]:
        total += term
    return total


# A level operator in stencil form is one array of shape ``(2d+1,) + (n,)*d``:
# slot ``a`` holds each cell's coupling to its lower neighbour on axis ``a``,
# slot ``d`` its diagonal and slot ``2d - a`` its coupling to its upper
# neighbour on axis ``a``, with 0 where the neighbour lies outside the grid.
# With cells numbered in C order the slots run in ascending column order.


def _offsets(d, n):
    """Column offset of each stencil slot on the ``n**d`` grid, ascending."""
    strides = [n ** (d - 1 - axis) for axis in range(d)]
    return np.array([-s for s in strides] + [0] + strides[::-1])


def _poisson_stencil(spec):
    """The finite-volume operator of ``spec`` in stencil form.

    Each cell has a lower and an upper term per axis, a face coupling or
    a boundary term; the diagonal sums each axis's two terms and then the
    axis sums in ascending order, so it keeps every mirror symmetry of
    the coefficient.
    """
    d = spec.dimension
    n = spec.cells_per_axis
    h = spec.spacing
    k = _cell_coefficients(spec)
    stencil = np.zeros((2 * d + 1,) + (n,) * d)
    pairs = []
    for axis in range(d):
        lo, hi = _along(d, axis, slice(0, n - 1)), _along(d, axis, slice(1, n))
        first, last = _along(d, axis, 0), _along(d, axis, n - 1)
        k_lo = k[lo]
        k_hi = k[hi]
        face = 2.0 * k_lo * k_hi / (k_lo + k_hi) / (h * h)
        below = np.empty_like(k)
        above = np.empty_like(k)
        below[hi] = face
        above[lo] = face
        # Dirichlet boundary faces at both ends of this axis
        below[first] = 2.0 * k[first] / (h * h)
        above[last] = 2.0 * k[last] / (h * h)
        pairs.append(below + above)
        stencil[axis][hi] = -face
        stencil[2 * d - axis][lo] = -face
    stencil[d] = _sorted_sum(pairs)
    return stencil


def _inside(d, n):
    """Whether each stencil slot's neighbour lies on the ``n**d`` grid, shape ``(2d+1, n**d)``."""
    inside = np.ones((2 * d + 1,) + (n,) * d, dtype=bool)
    for axis in range(d):
        inside[axis][_along(d, axis, 0)] = False
        inside[2 * d - axis][_along(d, axis, n - 1)] = False
    return inside.reshape(2 * d + 1, n**d)


def _csr_of(stencil):
    """The canonical CSR matrix of an operator in stencil form, without its zeros."""
    k, n = stencil.shape[:2]
    total = stencil[0].size
    slots = stencil.reshape(k, total)
    indptr = np.zeros(total + 1, dtype=np.int32)
    # counted slot by slot: numpy sums long rows faster than many short ones
    np.cumsum(np.sum(slots != 0.0, axis=0, dtype=np.int32), out=indptr[1:])
    values = np.ascontiguousarray(slots.T)
    keep = values != 0.0
    offsets = _offsets(stencil.ndim - 1, n).astype(np.int32)
    columns = np.arange(total, dtype=np.int32)[:, None] + offsets
    return csr((values[keep], columns[keep], indptr), shape=(total, total))


def _stencil_of(matrix, cells, dimension):
    """A caller's CSR matrix on the ``cells**dimension`` grid in stencil form.

    Raises ``ValueError`` naming the first row that couples a cell other
    than a face neighbour, counting a coupling that wraps across a grid
    edge.
    """
    d, n = dimension, cells
    total = n**d
    reach = n ** (d - 1)
    # stencil slot of each column offset from -reach to reach, -1 for none,
    # and a -1 guard at each end for the offsets beyond
    slot_of = np.full(2 * reach + 3, -1)
    slot_of[_offsets(d, n) + reach + 1] = np.arange(2 * d + 1)
    row = np.repeat(np.arange(total), np.diff(matrix.indptr))
    slot = slot_of[np.clip(matrix.indices - row + reach + 1, 0, 2 * reach + 2)]
    at = slot * total + row
    face = (slot >= 0) & _inside(d, n).ravel()[at]
    if not face.all():
        bad = np.flatnonzero(~face)[0]
        raise ValueError(f"row {row[bad]} couples cell {matrix.indices[bad]}, which is not "
                         f"a face neighbour on the {n}^{d} grid")
    stencil = np.zeros((2 * d + 1,) + (n,) * d)
    stencil.ravel()[at] = matrix.data
    return stencil


def _coarsened(stencil):
    """Galerkin operator ``R A P`` of piecewise-constant ``P``, in stencil form.

    Each coarse entry is ``1/2^d`` times a sorted sum of fine entries: a
    face coupling sums the ``2^(d-1)`` fine couplings across the coarse
    face, and a diagonal the ``2^d`` child diagonals and the couplings
    between children (12 terms in 2D, 32 in 3D).  The terms come from the
    grid structure, so nothing sorts the fine nonzeros, and mirror images
    of a coarse cell sum the same terms.
    """
    d = stencil.ndim - 1
    nc = stencil.shape[1] // 2
    children = stencil.reshape((2 * d + 1,) + (nc, 2) * d)

    def child(slot, position):
        return children[(slot,) + tuple(x for c in position for x in (slice(None), c))]

    positions = list(itertools.product((0, 1), repeat=d))
    coarse = np.empty((2 * d + 1,) + (nc,) * d)
    internal = [child(d, c) for c in positions]
    for axis in range(d):
        low = [c for c in positions if c[axis] == 0]
        high = [c for c in positions if c[axis] == 1]
        coarse[axis] = _sorted_sum([child(axis, c) for c in low])
        coarse[2 * d - axis] = _sorted_sum([child(2 * d - axis, c) for c in high])
        internal += [child(2 * d - axis, c) for c in low] + [child(axis, c) for c in high]
    coarse[d] = _sorted_sum(internal)
    coarse *= 1.0 / 2**d
    return coarse


def assemble_poisson(spec):
    """Assemble the finite-volume system for a :class:`ProblemSpec`.

    Returns
    -------
    (scipy.sparse.csr_matrix, ndarray)
        The SPD system matrix and the constant right-hand side.  Cells
        are numbered lexicographically (C order over the axis indices).
        Interior faces carry the harmonic mean of the two adjacent
        cell coefficients; boundary faces eliminate a zero-valued ghost
        cell, which adds ``2 k / h^2`` to the diagonal.  Each diagonal
        entry is summed in an order that no reflection or axis swap of
        the grid changes, so the matrix keeps the coefficient's mirror
        symmetries bit for bit.
    """
    return _csr_of(_poisson_stencil(spec)), spec.rhs()


def build_prolongation(fine_cells_per_axis, dimension):
    """Piecewise-constant prolongation from the 2:1 coarsened grid.

    Every fine cell receives the value of its parent coarse cell, so
    each row holds a single 1 and each column sums to ``2**dimension``.
    """
    n = fine_cells_per_axis
    if n % 2 != 0:
        raise ValueError(f"cannot coarsen an odd cell count ({n})")
    if n < 2:
        raise ValueError("need at least two cells per axis to coarsen")
    d = dimension
    nc = n // 2
    idx = np.indices((n,) * d).reshape(d, -1)
    parent = np.ravel_multi_index(idx // 2, (nc,) * d)
    n_fine = n**d
    return csr((np.ones(n_fine), parent, np.arange(n_fine + 1)), shape=(n_fine, nc**d))


def build_restriction(prolongation, dimension):
    """Restriction as the scaled transpose ``P^T / 2**dimension``.

    With piecewise-constant prolongation this averages the children of
    each coarse cell, and ``R @ P`` is exactly the identity.
    """
    return csr(prolongation.T) * (1.0 / 2**dimension)


def build_hierarchy(spec, l_min=1024):
    """Assemble the benchmark and coarsen it as :func:`hierarchy_from_matrix` does."""
    stencil = _poisson_stencil(spec)
    return _hierarchy(_csr_of(stencil), stencil, l_min)


def hierarchy_from_matrix(matrix, cells, dimension, l_min=1024):
    """Coarsen ``matrix`` on its ``cells**dimension`` grid down to ``l_min`` unknowns.

    Coarsening halts once the coarsest level has at most ``l_min``
    unknowns or only two cells per axis remain.  Coarse operators are
    the Galerkin products ``R A P`` of the fine operator, formed on the
    grid: ``matrix`` may couple each cell only to itself and its face
    neighbours, and a ``ValueError`` names the first row that does not.
    """
    check_csr(matrix)
    if matrix.shape[0] != cells**dimension:
        raise ValueError(f"matrix must be square on the {cells}^{dimension} grid")
    return _hierarchy(matrix, _stencil_of(matrix, cells, dimension), l_min)


def _hierarchy(matrix, stencil, l_min):
    """Levels from ``matrix`` and its stencil form down to ``l_min`` unknowns."""
    if l_min < 4:
        raise ValueError("l_min must be at least 4")
    dimension = stencil.ndim - 1
    cells = stencil.shape[1]
    levels = []
    while matrix.shape[0] > l_min and cells >= 4:
        prolongation = build_prolongation(cells, dimension)
        restriction = build_restriction(prolongation, dimension)
        levels.append(GridLevel(len(levels), matrix, restriction, prolongation, cells))
        stencil = _coarsened(stencil)
        matrix = _csr_of(stencil)
        cells //= 2
    levels.append(GridLevel(len(levels), matrix, None, None, cells))
    return GridHierarchy(levels)
