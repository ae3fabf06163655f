"""Residual orthonormalization and minimization shared by every cycle.

Corrections produced by smoothers and coarse-grid solves are not applied
directly.  The operator image of each candidate direction is
orthonormalized against the images accepted so far, and the residual
takes the step that minimizes its norm over the span of all accepted
directions.  The residual norm is therefore non-increasing no matter how
poor an individual correction is, which is what lets the task-parallel
cycles tolerate stale coarse corrections.

The minimizer is kept in flexible-GMRES form (Saad, SIAM J. Sci. Comput.
14, 1993): the directions ``D`` are stored as given, scaled to a unit
image, and Gram-Schmidt runs on the images alone.  It leaves the
orthonormal basis ``W`` and the upper-triangular ``R`` with ``A D = W R``.
The residual takes one step ``alpha_k`` along each new ``w_k``, and the
iterate ``x0 + D R^{-1} alpha`` is formed only when it is read.

The same directions carry a second residual.  ``SearchSpace.proposal``
is the energy-norm (Galerkin) residual over their span, the one flexible
CG would reach (Notay, SIAM J. Sci. Comput. 22, 2000); cycles hand it to
the next smoother sweep or coarse solve.  The reported residual stays
the 2-norm minimizer's, so histories and stopping tests keep their
meaning.

``W`` and ``D`` share panels of a few rows, one ``(2, rows, n)`` array
each (see ``PANEL_ROWS``), and an update works on whole panels instead of
basis vectors.  Gram-Schmidt is classical within a panel and modified
from one panel to the next: one product ``W_p [w, d]`` gives
``beta = W_p w`` and the new column of ``W^T D``, then ``w -= W_p^T
beta``; a second pass runs when the first cancelled most of ``w``.  As
``A`` is symmetric, ``D^T A D`` gains the column ``R^T W^T d``, and the
proposal ``r_anchor - W (R y)`` takes one product per panel, accumulated
in place through BLAS ``dgemv``.
"""

import numpy as np
from scipy.linalg.blas import dgemv, dtrsm, dtrsv
from scipy.linalg.lapack import dgesv

from .sparse import norm2, spmv

__all__ = ["SearchSpace", "rm_init", "rm_update"]

# A direction is rejected when Gram-Schmidt leaves less than this share
# of its operator image, about the square root of machine epsilon.
# Normalizing a smaller remainder amplifies rounding so far that the
# factorization A D = W R no longer holds to rounding through R^{-1}, and
# the carried residual drifts away from the true one.
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

# Bytes of the basis rows of one panel at most, which takes precedence
# over PANEL_ROWS for long vectors; its direction rows take as many again.
# Basis rows this few stay in a typical L2 cache between the product that
# reads them and the update that re-reads them.
PANEL_BYTES = 1 << 20


class SearchSpace:
    """Accepted search directions anchored at an initial guess.

    Each accepted correction ``d_k`` is stored scaled to a unit operator
    image, and ``r_factor`` holds the upper-triangular ``R`` with
    ``A D = W R``.  Every accepted direction kept more than
    ``BREAKDOWN_TOLERANCE`` of its image, so every diagonal entry of ``R``
    exceeds it and the residual stays the residual of the iterate
    ``x0 + D R^{-1} alpha`` up to rounding.  ``breakdown_count`` counts
    rejected directions and is not reset by a restart.  The panels are
    added one at a time as the basis grows and kept by a restart, which
    overwrites their rows; ``basis`` returns a copy of ``W`` and
    ``directions`` the directions ``D R^{-1}`` whose images are ``W``.

    ``galerkin_matrix`` is ``H = D^T A D`` (symmetric), ``galerkin_rhs``
    is ``g = D^T r_anchor``, and ``proposal`` is the Galerkin residual
    ``r_anchor - A D H^{-1} g``.  After a breakdown ``proposal`` is the
    2-norm residual instead, so a rejected direction is not proposed
    again.  A restart drops ``R``, ``H`` and ``g`` with the basis.
    """

    __slots__ = ("anchor_x", "r_factor", "galerkin_matrix", "galerkin_rhs", "_alpha",
                 "_proposal", "_y", "breakdown_count", "restart_cap", "_size", "_panel_rows",
                 "_panels", "_x", "_r", "_r_norm", "_anchor_r", "_anchor_norm")

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
        self._panels = []
        self._set_anchor(x0, r0)

    def _set_anchor(self, x0, r0):
        self.anchor_x = x0
        self._size = 0
        self.r_factor = np.zeros((0, 0))
        self.galerkin_matrix = np.zeros((0, 0))
        self.galerkin_rhs = np.zeros(0)
        self._alpha = np.zeros(0)
        self._proposal = r0
        self._y = None
        self._x = x0
        self._r = r0
        self._anchor_r = r0
        self._anchor_norm = self._r_norm = norm2(r0)

    @property
    def size(self):
        return self._size

    @property
    def proposal(self):
        """The residual the next correction is computed from.

        After an accepted direction it is the Galerkin residual
        ``r_anchor - W (R y)``, ``y = H^{-1} g``, formed on first read:
        the last update of a level loop, and one that folds in a
        correction computed before the previous update, are never read.
        """
        if self._proposal is None:
            self._proposal = self._combine(self._anchor_r, 0, -1.0, self._y)
        return self._proposal

    @property
    def residual(self):
        """The residual of the 2-norm minimizer, as ``rm_update`` last returned it."""
        return self._r

    @property
    def residual_norm(self):
        """``norm2(residual)``, as the update that formed the residual computed it."""
        return self._r_norm

    @property
    def minimizer(self):
        """``(x, r)``: the residual 2-norm minimizer and its residual; ``x``
        is formed on the first read after an accepted direction."""
        if self._x is None:
            self._x = self._combine(self.anchor_x, 1, 1.0, dtrsv(self.r_factor, self._alpha))
        return self._x, self._r

    @property
    def basis(self):
        """Copy of the basis vectors in use, one per row."""
        return self._rows(0)

    @property
    def directions(self):
        """The directions ``D R^{-1}`` whose images are the basis, one per row."""
        return dtrsm(1.0, self.r_factor, self._rows(1), trans_a=1)

    def _rows(self, which):
        empty = np.empty((0, self.anchor_x.shape[0]))
        return np.concatenate([empty] + [p[which] for _, p in self._blocks()])

    def _blocks(self):
        """``(indices, panel)`` for each panel in use: its slice of basis
        indices and a ``(2, rows, n)`` view of its rows in use."""
        p = self._panel_rows
        for start, panel in zip(range(0, self._size, p), self._panels):
            rows = min(p, self._size - start)
            yield slice(start, start + rows), panel[:, :rows]

    def _combine(self, start, which, sign, coefficients):
        """``start + sign * V^T coefficients``, where ``V`` is the basis
        (``which`` 0) or the directions (1) in use, built in the output of
        the first panel's product."""
        (rows, panel), *rest = self._blocks()
        out = dgemv(sign, panel[which].T, coefficients[rows], 1.0, start)
        for rows, panel in rest:
            dgemv(sign, panel[which].T, coefficients[rows], 1.0, out, overwrite_y=True)
        return out

    def _free_pair(self):
        """``(2, n)`` view of the first unused basis and direction rows, in
        a new panel when every row is in use (a restart keeps the panels)."""
        panel, row = divmod(self._size, self._panel_rows)
        if panel == len(self._panels):
            self._panels.append(np.empty((2, self._panel_rows, self.anchor_x.shape[0])))
        return self._panels[panel][:, row]


def rm_init(x0, r0, restart_cap=DEFAULT_RESTART_CAP):
    """Create an empty search space anchored at ``(x0, r0)``."""
    return SearchSpace(x0, r0, restart_cap=restart_cap)


def rm_update(space, a, z):
    """Fold correction ``z`` into the space and return the new residual.

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
    r : ndarray
        Residual of the 2-norm minimizer over every accepted direction;
        the minimizer itself is formed when ``space.minimizer`` is read.
        ``space.proposal`` then holds the energy-norm (Galerkin) residual
        over the same directions, the input for the next correction.  A
        direction breaks down when the anchor residual is already zero,
        when Gram-Schmidt leaves no more than ``BREAKDOWN_TOLERANCE`` of
        its operator image, when a heavily cancelled direction no longer
        matches its image to that share, or when its step would raise the
        residual; the previous residual is then returned unchanged,
        ``space.proposal`` becomes that residual and
        ``space.breakdown_count`` is incremented.  A full space restarts
        from the current minimizer before ``z`` is folded in.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != space.anchor_x.shape:
        raise ValueError("correction length does not match the space")
    if not np.isfinite(z).all():
        raise ValueError("correction contains NaN or Inf")
    if space._anchor_norm == 0.0:
        space.breakdown_count += 1
        return space._r
    if space.size >= space.restart_cap:
        space._set_anchor(*space.minimizer)
    # The old proposal is released before the update allocates anything.
    space._proposal = None
    if not _fold(space, a, z):
        space.breakdown_count += 1
        space._proposal = space._r
    return space._r


def _fold(space, a, z):
    """Orthonormalize the image of ``z`` and take the minimizing step.

    The candidate pair is built in the first free rows of a panel.  Returns
    True when it joined the basis, and False when its image vanished, lies
    numerically in the span of the basis, drifted from it, or the step
    would raise the residual.
    """
    w, d = pair = space._free_pair()
    image = spmv(a, z)
    image_norm = norm2(image)
    if image_norm == 0.0:
        return False
    # a unit image makes R's diagonal the share of it Gram-Schmidt leaves
    np.multiply(image, 1.0 / image_norm, out=w)
    np.multiply(z, 1.0 / image_norm, out=d)

    k = space.size
    column = np.zeros((2, k + 1))  # the new columns of R and of W^T D
    blocks = list(space._blocks())
    _orthogonalize(blocks, pair, column)
    remaining = norm2(w)
    cancelled = remaining < REORTHOGONALIZE_THRESHOLD and k
    if cancelled:
        _orthogonalize(blocks, pair[:1], column[:1])
        remaining = norm2(w)
    if remaining <= BREAKDOWN_TOLERANCE:
        return False
    # Cancellation magnifies the rounding of A D = W R through R^{-1}, and
    # the iterate would inherit it: check the cancelled direction
    # d - D R^{-1} beta against an explicit product.
    if cancelled:
        step = dtrsv(space.r_factor, column[0, :k])
        if norm2(spmv(a, space._combine(d, 1, -1.0, step)) - w) > BREAKDOWN_TOLERANCE * remaining:
            return False

    w *= 1.0 / remaining
    # optimal share of the residual along the new basis vector
    alpha = float(np.dot(w, space._r))
    r = np.multiply(w, -alpha)
    r += space._r
    r_norm = norm2(r)
    if r_norm > space._r_norm:
        return False
    space._r, space._r_norm = r, r_norm
    space._x = None
    column[:, k] = remaining, np.dot(w, d)
    _extend(space, column, alpha, d)
    return True


def _orthogonalize(blocks, vectors, column):
    """One classical Gram-Schmidt pass of ``w = vectors[0]``, panel after
    panel: one product adds ``W_p v`` to ``column`` for each row ``v`` of
    ``vectors``, read in place from the panel, then ``dgemv`` updates ``w``."""
    w = vectors[0]
    for rows, panel in blocks:
        product = vectors @ panel[0].T
        dgemv(-1.0, panel[0].T, product[0], 1.0, w, overwrite_y=True)
        column[:, rows] += product


def _extend(space, column, alpha, d):
    """Grow ``R``, ``alpha``, ``H`` and ``g`` by the new direction and solve
    for the proposal's basis coefficients ``R H^{-1} g``."""
    k = space.size
    space._size += 1
    r_factor = np.zeros((k + 1, k + 1))
    r_factor[:k, :k] = space.r_factor
    r_factor[:, k] = column[0]
    # D^T A d = R^T W^T d, since A is symmetric
    galerkin = r_factor.T @ column[1]
    h = np.empty((k + 1, k + 1))
    h[:k, :k] = space.galerkin_matrix
    h[:, k] = galerkin
    h[k, :] = galerkin
    space.r_factor = r_factor
    space.galerkin_matrix = h
    space._alpha = np.concatenate((space._alpha, [alpha]))
    space.galerkin_rhs = np.concatenate((space.galerkin_rhs, [np.dot(d, space._anchor_r)]))
    y, info = dgesv(h, space.galerkin_rhs)[2:]
    if info:
        raise np.linalg.LinAlgError("singular Galerkin matrix")
    space._y = r_factor @ y
