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

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse

from .sparse import check_csr, csr, triple_product

__all__ = [
    "ProblemSpec",
    "GridLevel",
    "GridHierarchy",
    "coefficient_at",
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
        if not (self.k_inner > 0.0 and self.k_outer > 0.0):
            raise ValueError("coefficients k_inner and k_outer must be positive")
        if not 0.0 < self.radius_factor < 1.0:
            raise ValueError("radius_factor must lie strictly between 0 and 1")
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")

    @property
    def interface_radius(self):
        return self.radius_factor * self.half_width

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.cells_per_axis

    @property
    def n_dofs(self):
        return self.cells_per_axis ** self.dimension


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
    spacing: float

    @property
    def n_dofs(self):
        return self.matrix.shape[0]


@dataclass(eq=False)
class GridHierarchy:
    """Finest-to-coarsest sequence of grid levels."""

    levels: list
    l_min: int

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


def coefficient_at(spec, x):
    """Diffusion coefficient at point ``x``.

    Returns ``k_inner`` strictly inside the inclusion ball and
    ``k_outer`` on or outside the interface.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.dimension,):
        raise ValueError(f"point must have {spec.dimension} coordinates")
    if np.linalg.norm(x) < spec.interface_radius:
        return spec.k_inner
    return spec.k_outer


def _cell_coefficients(spec):
    """Coefficient sampled at every cell centre, shape ``(n,)*d``."""
    n = spec.cells_per_axis
    h = spec.spacing
    centers = -spec.half_width + (np.arange(n) + 0.5) * h
    grids = np.meshgrid(*([centers] * spec.dimension), indexing="ij")
    radius = np.sqrt(sum(g * g for g in grids))
    return np.where(radius < spec.interface_radius, spec.k_inner, spec.k_outer)


def assemble_poisson(spec):
    """Assemble the finite-volume system for a :class:`ProblemSpec`.

    Returns
    -------
    (scipy.sparse.csr_matrix, ndarray)
        The SPD system matrix and the constant right-hand side.  Cells
        are numbered lexicographically (C order over the axis indices).
        Interior faces carry the harmonic mean of the two adjacent
        cell coefficients; boundary faces eliminate a zero-valued ghost
        cell, which adds ``2 k / h^2`` to the diagonal.
    """
    d = spec.dimension
    n = spec.cells_per_axis
    h = spec.spacing
    k = _cell_coefficients(spec)
    shape = (n,) * d
    total = n**d
    flat = np.arange(total, dtype=np.int64).reshape(shape)
    diag = np.zeros(shape, dtype=np.float64)

    rows = []
    cols = []
    vals = []
    for axis in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[axis] = slice(0, n - 1)
        hi[axis] = slice(1, n)
        k_lo = k[tuple(lo)]
        k_hi = k[tuple(hi)]
        face = 2.0 * k_lo * k_hi / (k_lo + k_hi) / (h * h)
        left = flat[tuple(lo)].ravel()
        right = flat[tuple(hi)].ravel()
        coupling = face.ravel()
        rows.append(left)
        cols.append(right)
        vals.append(-coupling)
        rows.append(right)
        cols.append(left)
        vals.append(-coupling)
        diag[tuple(lo)] += face
        diag[tuple(hi)] += face
        # Dirichlet boundary faces at both ends of this axis
        first = [slice(None)] * d
        last = [slice(None)] * d
        first[axis] = 0
        last[axis] = n - 1
        diag[tuple(first)] += 2.0 * k[tuple(first)] / (h * h)
        diag[tuple(last)] += 2.0 * k[tuple(last)] / (h * h)

    rows.append(flat.ravel())
    cols.append(flat.ravel())
    vals.append(diag.ravel())
    coo = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    )
    matrix = csr(coo)
    rhs = np.full(total, float(spec.rhs_constant))
    return matrix, rhs


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
    """Assemble the benchmark and coarsen it with :func:`hierarchy_from_matrix`."""
    matrix, _ = assemble_poisson(spec)
    return hierarchy_from_matrix(matrix, spec.cells_per_axis, spec.spacing,
                                 spec.dimension, l_min)


def hierarchy_from_matrix(matrix, cells, spacing, dimension, l_min=1024):
    """Coarsen ``matrix`` on its ``cells**dimension`` grid down to ``l_min`` unknowns.

    Coarsening halts once the coarsest level has at most ``l_min``
    unknowns or only two cells per axis remain.  Coarse operators are
    Galerkin triple products of the fine operator.
    """
    if l_min < 4:
        raise ValueError("l_min must be at least 4")
    check_csr(matrix)
    if matrix.shape[0] != cells**dimension:
        raise ValueError(f"matrix must be square on the {cells}^{dimension} grid")
    levels = []
    index = 0
    while matrix.shape[0] > l_min and cells >= 4:
        prolongation = build_prolongation(cells, dimension)
        restriction = build_restriction(prolongation, dimension)
        levels.append(
            GridLevel(index, matrix, restriction, prolongation, cells, spacing)
        )
        matrix = triple_product(restriction, matrix, prolongation)
        cells //= 2
        spacing *= 2.0
        index += 1
    levels.append(GridLevel(index, matrix, None, None, cells, spacing))
    return GridHierarchy(levels, l_min)
