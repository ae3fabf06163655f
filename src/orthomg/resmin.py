"""Residual orthonormalization and minimization shared by every cycle.

Corrections produced by smoothers and coarse-grid solves are not applied
directly.  Each candidate direction ``z`` is mapped through the
operator, orthonormalized against the image vectors accepted so far,
and folded into the iterate with the coefficient that minimizes the
residual norm over the span of all accepted directions.  The residual
norm is therefore non-increasing no matter how poor an individual
correction is, which is what lets the task-parallel cycles tolerate
stale coarse corrections.
"""

import numpy as np

from .sparse import norm2, spmv

__all__ = ["SearchSpace", "rm_init", "rm_update"]

# Directions whose operator image nearly vanishes after projection carry
# no new information; they are discarded rather than normalized.
BREAKDOWN_TOLERANCE = 1e-13

# A second orthogonalization pass is run when cancellation removed most
# of the vector's mass in the first one.
REORTHOGONALIZE_THRESHOLD = 0.1

# A step that would raise the residual is rounding noise on a useless
# direction while the stored pairs are consistent, that is while the
# explicit image A z of the orthonormalized direction matches its basis
# vector w.  Consistent pairs give |A z - w| of about 3e-16; pairs that
# drifted apart after repeated heavy cancellation gave 2.6e-6 to 2.0 on
# the realtime task-parallel cycle.
DRIFT_TOLERANCE = 1e-8

DEFAULT_RESTART_CAP = 200


class SearchSpace:
    """Orthonormalized search directions anchored at an initial guess.

    ``basis[i]`` is the operator image of ``directions[i]`` after
    modified Gram-Schmidt and normalization, so the basis stays
    orthonormal.  The iterate and its residual advance together as an
    exact pair: ``x`` gains ``coeff * direction`` while ``r`` loses
    ``coeff * (A @ direction)``.  ``breakdown_count`` counts rejected
    directions and ``reanchor_count`` the restarts forced by drift of the
    stored pairs; neither is reset by a restart.
    """

    __slots__ = (
        "anchor_x",
        "basis",
        "directions",
        "breakdown_count",
        "reanchor_count",
        "restart_cap",
        "_x",
        "_r",
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
        self.reanchor_count = 0
        self._set_anchor(x0, r0)

    def _set_anchor(self, x0, r0):
        self.anchor_x = x0
        self.basis = []
        self.directions = []
        self._x = x0
        self._r = r0
        self._anchor_norm = norm2(r0)

    @property
    def size(self):
        return len(self.basis)

    def current_solution(self):
        """Current minimizer and its residual (the anchors before any update)."""
        return self._x, self._r


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
        operator.
    z : array_like
        Candidate correction.

    Returns
    -------
    (x, r)
        Residual-norm minimizer over every accepted direction and its
        residual.  If the direction breaks down (its operator image
        lies in the span of the existing basis, or the anchor residual
        is already zero) the previous minimizer is returned unchanged
        and ``space.breakdown_count`` is incremented.  If the stored
        pairs have drifted so far that the minimizing step would raise
        the residual, the space restarts from the current minimizer and
        folds ``z`` in again, counted in ``space.reanchor_count``.
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
        # Re-anchor at the current minimizer so the basis stays small.
        space._set_anchor(space._x, space._r)
    accepted = _fold(space, a, z)
    if accepted is None:
        # The stored pairs (w_i, A z_i) have drifted apart.  Rejecting the
        # direction would leave (x, r) as they are, and the next sweeps
        # would propose the same directions again, so restart from the
        # current minimizer and fold ``z`` in once more.
        space.reanchor_count += 1
        space._set_anchor(space._x, space._r)
        accepted = _fold(space, a, z)
    if not accepted:
        space.breakdown_count += 1
    return space._x, space._r


def _fold(space, a, z):
    """Orthonormalize ``z`` against the basis and take the minimizing step.

    Returns True when the direction joined the basis, False when its image
    vanished, lies in the span of the basis, or gives a step that would
    raise the residual by rounding noise, and None when that step would
    raise it because the stored pairs have drifted.
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
    if remaining < REORTHOGONALIZE_THRESHOLD * image_norm and space.size:
        # heavy cancellation: one more pass removes the drift
        for w_i, z_i in zip(space.basis, space.directions):
            beta = float(np.dot(w_i, w))
            w -= beta * w_i
            z -= beta * z_i
        remaining = norm2(w)
    if remaining <= BREAKDOWN_TOLERANCE * image_norm:
        return False

    scale = 1.0 / remaining
    w *= scale
    z *= scale

    # Optimal share of the current residual along the new basis vector.
    # The residual is advanced with an explicit product A z rather than
    # with w: after heavy cancellation w and A z agree only to a few
    # digits, and using w here would let the stored residual drift away
    # from the true residual of the iterate.
    coeff = float(np.dot(w, space._r))
    x = space._x + coeff * z
    image = spmv(a, z)
    r = space._r - coeff * image
    if norm2(r) > norm2(space._r):
        drifted = space.size > 0 and norm2(image - w) > DRIFT_TOLERANCE
        return None if drifted else False
    space.basis.append(w)
    space.directions.append(z)
    space._x = x
    space._r = r
    return True
