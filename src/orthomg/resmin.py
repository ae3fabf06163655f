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

The basis ``W`` and the directions ``Z`` are stored as row panels of a
few vectors each (see ``PANEL_ROWS``), and an update works on whole
panels instead of looping over basis vectors.  Gram-Schmidt is
classical within a panel, ``beta = W_p w``, ``w -= W_p^T beta`` and
``z -= Z_p^T beta``, and modified from one panel to the next; it runs a
second time when it cancelled most of ``w``.  The new column of
``H = Z^T W`` takes one product ``Z_p w`` per panel and the proposal one
product ``W_p^T y`` per panel.  The count of products per update
therefore depends on the number of panels, not on the number of basis
vectors, and the updates of ``w``, ``z`` and the proposal accumulate in
place through BLAS ``dgemv``, without an n-vector temporary.
"""

import numpy as np
from scipy.linalg.blas import dgemv

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

# Rows of one panel of the basis or of the directions.  Gram-Schmidt is
# classical within a panel, and classical Gram-Schmidt lets the loss of
# orthogonality compound: after 200 smoother corrections of the 128^2 disc
# operator the basis is 1.8e-12 from orthonormal with panels of 4 rows,
# 8.1e-13 with 8 and 3.0e-11 with 16 (3.1e-13 vector by vector), and after
# 60 corrections of the 64^2 one 4.4e-7 in a single panel.  The last panel
# is half empty on average, and its unused rows can be resident memory,
# so fewer rows also waste less.
PANEL_ROWS = 4

# Bytes of one panel at most, which takes precedence over PANEL_ROWS for
# long vectors.  A panel this small stays in a typical L2 cache between
# the product that reads it and the update that re-reads it, and it fits
# the holes freed vectors leave in the heap: on the 256^2 disc problem the
# peak resident memory of a solve was 0.7 MiB below that of one array per
# vector with 1 MiB panels, and 0.6 MiB above it with 2 MiB panels.
PANEL_BYTES = 1 << 20


class SearchSpace:
    """Orthonormalized search directions anchored at an initial guess.

    ``basis[i]`` is the operator image of ``directions[i]`` after
    Gram-Schmidt and normalization, so the basis stays orthonormal.  The
    iterate and its residual advance together: ``x`` gains
    ``coeff * directions[i]`` while ``r`` loses ``coeff * basis[i]``.
    Every accepted direction kept more than ``BREAKDOWN_TOLERANCE`` of its
    image, so ``A @ directions[i]`` matches ``basis[i]`` to rounding and
    ``r`` stays the residual of ``x`` up to rounding.  ``breakdown_count``
    counts rejected directions and is not reset by a restart.

    Both are held in row panels (``PANEL_ROWS``, ``PANEL_BYTES``), added
    one at a time as the basis grows and kept by a restart, which
    overwrites their rows; ``basis`` and ``directions`` return copies of
    the rows in use as ``(size, n)`` arrays.

    ``galerkin_matrix`` is ``H = Z^T W`` (``H[i, j] = directions[i] .
    basis[j]``, symmetric) and ``galerkin_rhs`` is ``g = Z^T r_anchor``;
    ``proposal`` is the Galerkin residual ``r_anchor - W H^{-1} g``.
    After a breakdown ``proposal`` is the 2-norm residual instead, so a
    rejected direction is not proposed again.  A restart drops ``H`` and
    ``g`` with the basis.
    """

    __slots__ = (
        "anchor_x",
        "galerkin_matrix",
        "galerkin_rhs",
        "_proposal",
        "_y",
        "breakdown_count",
        "restart_cap",
        "_size",
        "_panel_rows",
        "_w_panels",
        "_z_panels",
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
        row_bytes = x0.itemsize * max(1, x0.shape[0])
        self._panel_rows = min(self.restart_cap, PANEL_ROWS, max(1, PANEL_BYTES // row_bytes))
        self._w_panels = []
        self._z_panels = []
        self._set_anchor(x0, r0)

    def _set_anchor(self, x0, r0):
        self.anchor_x = x0
        self._size = 0
        self.galerkin_matrix = np.zeros((0, 0))
        self.galerkin_rhs = np.zeros(0)
        self._proposal = r0
        self._y = None
        self._x = x0
        self._r = r0
        self._anchor_r = r0
        self._anchor_norm = norm2(r0)

    @property
    def size(self):
        return self._size

    @property
    def proposal(self):
        """The residual the next correction is computed from.

        After an accepted direction it is the Galerkin residual
        ``r_anchor - W^T y``, one product per panel, formed when it is
        first read.  Some updates are never followed by a read: the last
        one of a level loop, and one that folds in a correction computed
        before the previous update.
        """
        if self._proposal is None:
            # built in the output of the first panel's product
            (rows, w_block, _), *rest = self._blocks()
            r = dgemv(-1.0, w_block.T, self._y[rows], 1.0, self._anchor_r)
            for rows, w_block, _ in rest:
                dgemv(-1.0, w_block.T, self._y[rows], 1.0, r, overwrite_y=True)
            self._proposal = r
        return self._proposal

    @property
    def minimizer(self):
        """``(x, r)``: the residual 2-norm minimizer over the accepted
        directions and its residual, as ``rm_update`` last returned them."""
        return self._x, self._r

    @property
    def basis(self):
        """Copy of the basis vectors in use, one per row."""
        return np.concatenate([self._no_rows()] + [w for _, w, _ in self._blocks()])

    @property
    def directions(self):
        """Copy of the directions in use, one per row."""
        return np.concatenate([self._no_rows()] + [z for _, _, z in self._blocks()])

    def _no_rows(self):
        return np.empty((0, self.anchor_x.shape[0]))

    def _blocks(self):
        """``(indices, W, Z)`` for each panel in use: its slice of basis
        indices and views of its rows in use."""
        p = self._panel_rows
        for start, w, z in zip(range(0, self._size, p), self._w_panels, self._z_panels):
            rows = min(p, self._size - start)
            yield slice(start, start + rows), w[:rows], z[:rows]

    def _free_rows(self):
        """Views of the first unused basis and direction rows.

        A new panel pair is allocated when every row is in use; a restart
        keeps the panels and overwrites them from the first row.
        """
        panel, row = divmod(self._size, self._panel_rows)
        if panel == len(self._w_panels):
            shape = (self._panel_rows, self.anchor_x.shape[0])
            self._w_panels.append(np.empty(shape))
            self._z_panels.append(np.empty(shape))
        return self._w_panels[panel][row], self._z_panels[panel][row]


def rm_init(x0, r0, restart_cap=DEFAULT_RESTART_CAP):
    """Create an empty search space anchored at ``(x0, r0)``."""
    return SearchSpace(x0, r0, restart_cap=restart_cap)


def rm_update(space, a, z):
    """Fold correction ``z`` into the space and return the new minimizer.

    Parameters
    ----------
    space : SearchSpace
    a : scipy.sparse.csr_matrix
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
    # The old proposal is released before the update allocates anything.
    space._proposal = None
    if not _fold(space, a, z):
        space.breakdown_count += 1
        space._proposal = space._r
    return space._x, space._r


def _fold(space, a, z):
    """Orthonormalize ``z``, take the minimizing step and extend ``H`` and ``g``.

    The candidate pair is built in the first free rows of the panels and
    joins the basis only when the size grows over it.  Returns True when
    the direction joined the basis, and False when its image vanished,
    lies numerically in the span of the basis, drifted from its image, or
    gives a step that would raise the residual.
    """
    w, z_new = space._free_rows()
    w[:] = spmv(a, z)
    image_norm = norm2(w)
    if image_norm == 0.0:
        return False

    z_new[:] = z
    blocks = list(space._blocks())
    _orthogonalize(blocks, w, z_new)
    remaining = norm2(w)
    cancelled = remaining < REORTHOGONALIZE_THRESHOLD * image_norm and space.size
    if cancelled:
        _orthogonalize(blocks, w, z_new)
        remaining = norm2(w)
    if remaining <= BREAKDOWN_TOLERANCE * image_norm:
        return False
    # Cancellation magnifies the stored pairs' mismatch by image/remaining;
    # a pair that inherited too much of it would pass it on to every later
    # one, so check it against an explicit product.
    if cancelled and norm2(spmv(a, z_new) - w) > BREAKDOWN_TOLERANCE * remaining:
        return False

    scale = 1.0 / remaining
    w *= scale
    z_new *= scale

    # optimal share of the current residual along the new basis vector;
    # each update is formed in its own output, without a temporary
    coeff = float(np.dot(w, space._r))
    r = np.multiply(w, -coeff)
    r += space._r
    if norm2(r) > norm2(space._r):
        return False
    space._r = r
    x = np.multiply(z_new, coeff)
    x += space._x
    space._x = x
    space._size += 1
    _extend_galerkin(space, z_new, w)
    return True


def _orthogonalize(blocks, w, z):
    """One classical Gram-Schmidt pass of ``w``, panel after panel.

    ``z`` takes the same coefficients, product by product: updating it
    once with the sum of both passes' coefficients decorrelates its
    rounding from that of ``w`` and lets the pair drift apart.  Both are
    contiguous panel rows, so ``dgemv`` updates them in place.
    """
    for _, w_block, z_block in blocks:
        beta = w_block @ w
        dgemv(-1.0, w_block.T, beta, 1.0, w, overwrite_y=True)
        dgemv(-1.0, z_block.T, beta, 1.0, z, overwrite_y=True)


def _extend_galerkin(space, z, w):
    """Extend ``H`` and ``g`` by the new pair and solve for the proposal's
    coefficients ``y = H^{-1} g``."""
    column = np.concatenate([z_block @ w for _, _, z_block in space._blocks()])
    k = space.size - 1
    h = np.empty((k + 1, k + 1))
    h[:k, :k] = space.galerkin_matrix
    h[:, k] = column
    h[k, :] = column
    space.galerkin_matrix = h
    space.galerkin_rhs = np.append(space.galerkin_rhs, np.dot(z, space._anchor_r))
    space._y = np.linalg.solve(h, space.galerkin_rhs)
