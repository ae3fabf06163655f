"""Residual orthonormalization and minimization shared by every cycle.

Corrections produced by smoothers and coarse-grid solves are not applied
directly.  Each candidate direction ``z`` is mapped through the
operator, orthonormalized against the image vectors accepted so far,
and folded into the iterate with the coefficient that minimizes the
residual norm over the span of all accepted directions.  The residual
norm is therefore non-increasing no matter how poor an individual
correction is, which is what lets the task-parallel cycles tolerate
stale coarse corrections.

The same directions carry a second residual.  ``SearchSpace.proposal``
is the energy-norm (Galerkin) residual over their span, the one
flexible CG would reach; it is what cycles hand to the next smoother
sweep or coarse solve.  The reported iterate and residual stay the
2-norm minimizer, so histories and stopping tests keep their meaning.
"""

import numpy as np

from .sparse import norm2, spmv

__all__ = ["SearchSpace", "rm_init", "rm_update"]

# A direction is rejected when Gram-Schmidt leaves less than this share
# of its operator image, about the square root of machine epsilon.
# Normalizing a smaller remainder amplifies rounding so far that the
# stored pairs (w, z) no longer satisfy A z = w, and the carried residual
# drifts away from the true one.
BREAKDOWN_TOLERANCE = 1.5e-8

# A second orthogonalization pass is run when cancellation removed most
# of the vector's mass in the first one.
REORTHOGONALIZE_THRESHOLD = 0.1

DEFAULT_RESTART_CAP = 200


class SearchSpace:
    """Orthonormalized search directions anchored at an initial guess.

    ``basis[i]`` is the operator image of ``directions[i]`` after
    modified Gram-Schmidt and normalization, so the basis stays
    orthonormal.  The iterate and its residual advance together: ``x``
    gains ``coeff * directions[i]`` while ``r`` loses ``coeff * basis[i]``.
    Every accepted direction kept more than ``BREAKDOWN_TOLERANCE`` of its
    image, so ``A @ directions[i]`` matches ``basis[i]`` to rounding and
    ``r`` stays the residual of ``x`` up to rounding.  ``breakdown_count``
    counts rejected directions and is not reset by a restart.

    ``galerkin_matrix`` is ``H = Z^T W`` (``H[i, j] = directions[i] .
    basis[j]``, symmetric) and ``galerkin_rhs`` is ``g = Z^T r_anchor``;
    ``proposal`` is the Galerkin residual ``r_anchor - W H^{-1} g``.
    After a breakdown ``proposal`` is the 2-norm residual instead, so a
    rejected direction is not proposed again.  A restart drops ``H`` and
    ``g`` with the basis.
    """

    __slots__ = (
        "anchor_x",
        "basis",
        "directions",
        "galerkin_matrix",
        "galerkin_rhs",
        "proposal",
        "breakdown_count",
        "restart_cap",
        "_x",
        "_r",
        "_anchor_r",
        "_anchor_norm",
    )

    def __init__(self, x0, r0, restart_cap=DEFAULT_RESTART_CAP):
        x0 = np.asarray(x0, dtype=np.float64)
        r0 = np.asarray(r0, dtype=np.float64)
        if x0.shape != r0.shape or x0.ndim != 1:
            raise ValueError("initial guess and residual must be equal-length vectors")
        if restart_cap < 1:
            raise ValueError("restart_cap must be at least 1")
        self.restart_cap = int(restart_cap)
        self.breakdown_count = 0
        self._set_anchor(x0, r0)

    def _set_anchor(self, x0, r0):
        self.anchor_x = x0
        self.basis = []
        self.directions = []
        self.galerkin_matrix = np.zeros((0, 0))
        self.galerkin_rhs = np.zeros(0)
        self.proposal = r0
        self._x = x0
        self._r = r0
        self._anchor_r = r0
        self._anchor_norm = norm2(r0)

    @property
    def size(self):
        return len(self.basis)


def rm_init(x0, r0, restart_cap=DEFAULT_RESTART_CAP):
    """Create an empty search space anchored at ``(x0, r0)``."""
    return SearchSpace(x0, r0, restart_cap=restart_cap)


def rm_update(space, a, z):
    """Fold correction ``z`` into the space and return the new minimizer.

    Parameters
    ----------
    space : SearchSpace
    a : SparseMatrixCsr
        The level operator; all updates of one space must use the same
        symmetric positive definite operator.
    z : array_like
        Candidate correction.

    Returns
    -------
    (x, r)
        Residual 2-norm minimizer over every accepted direction and its
        residual.  ``space.proposal`` then holds the energy-norm
        (Galerkin) residual over the same directions, the input for the
        next correction.  A direction breaks down when the anchor
        residual is already zero, when Gram-Schmidt leaves no more than
        ``BREAKDOWN_TOLERANCE`` of its operator image, when a heavily
        cancelled direction no longer satisfies ``A z = w`` to that
        share, or when its step would raise the residual; the previous
        minimizer is then returned unchanged, ``space.proposal`` becomes
        that minimizer's residual and ``space.breakdown_count`` is
        incremented.  A full space restarts from the current minimizer
        before ``z`` is folded in.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != space.anchor_x.shape:
        raise ValueError("correction length does not match the space")
    if not np.isfinite(z).all():
        raise ValueError("correction contains NaN or Inf")
    if space._anchor_norm == 0.0:
        space.breakdown_count += 1
        return space._x, space._r
    if space.size >= space.restart_cap:
        # Restart from the current minimizer so the basis stays small.
        space._set_anchor(space._x, space._r)
    if not _fold(space, a, z):
        space.breakdown_count += 1
        space.proposal = space._r
    return space._x, space._r


def _fold(space, a, z):
    """Orthonormalize ``z``, take the minimizing step and renew the proposal.

    Returns True when the direction joined the basis, and False when its
    image vanished, lies numerically in the span of the basis, drifted
    from its image, or gives a step that would raise the residual.
    """
    w = spmv(a, z)
    image_norm = norm2(w)
    if image_norm == 0.0:
        return False
    z = z.copy()

    # modified Gram-Schmidt against the accepted basis, paired on (w, z)
    for w_i, z_i in zip(space.basis, space.directions):
        beta = float(np.dot(w_i, w))
        w -= beta * w_i
        z -= beta * z_i
    remaining = norm2(w)
    cancelled = remaining < REORTHOGONALIZE_THRESHOLD * image_norm and space.size
    if cancelled:
        # heavy cancellation: one more pass restores orthogonality
        for w_i, z_i in zip(space.basis, space.directions):
            beta = float(np.dot(w_i, w))
            w -= beta * w_i
            z -= beta * z_i
        remaining = norm2(w)
    if remaining <= BREAKDOWN_TOLERANCE * image_norm:
        return False
    # Cancellation magnifies the stored pairs' mismatch by image/remaining;
    # a pair that inherited too much of it would pass it on to every later
    # one, so check it against an explicit product.
    if cancelled and norm2(spmv(a, z) - w) > BREAKDOWN_TOLERANCE * remaining:
        return False

    scale = 1.0 / remaining
    w *= scale
    z *= scale

    # optimal share of the current residual along the new basis vector
    coeff = float(np.dot(w, space._r))
    x = space._x + coeff * z
    r = space._r - coeff * w
    if norm2(r) > norm2(space._r):
        return False
    space.basis.append(w)
    space.directions.append(z)
    space._x = x
    space._r = r
    _propose(space, z, w)
    return True


def _propose(space, z, w):
    """Extend ``H`` and ``g`` by the new pair and set the Galerkin proposal."""
    k = space.size - 1
    column = np.array([np.dot(z_i, w) for z_i in space.directions])
    h = np.empty((k + 1, k + 1))
    h[:k, :k] = space.galerkin_matrix
    h[:, k] = column
    h[k, :] = column
    space.galerkin_matrix = h
    space.galerkin_rhs = np.append(space.galerkin_rhs, np.dot(z, space._anchor_r))
    y = np.linalg.solve(h, space.galerkin_rhs)
    r = space._anchor_r.copy()
    for y_i, w_i in zip(y, space.basis):
        r -= y_i * w_i
    space.proposal = r
