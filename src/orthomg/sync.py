"""Synchronous multigrid cycles and the one level loop every cycle shares.

Every variant, task-parallel included, runs :func:`level_loop`: it owns
the initial residual and search space, the history records, the
level-local convergence test and the outer cap, and it hands each cycle
to a body that only folds corrections in.  Three bodies live here.  The
multiplicative body smooths, folds in a coarse correction, and smooths
again, minimizing after each step.  The additive body computes the
smoother and coarse corrections from the same cycle-start residual and
folds them in back to back, which is the ordering the task-parallel
engine reproduces when its scheduler is pinned to one sweep per cycle.
A single-level hierarchy takes the direct body on either ordering.

Intermediate levels do not iterate to the outer tolerance: each level
stops after a fixed residual-reduction factor or a small iteration cap,
and the coarsest level is always solved directly.
"""

import csv
import io
import weakref
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg

from .errors import SingularMatrixError
from .resmin import rm_init, rm_update
from .sparse import norm2, spmv

__all__ = [
    "LevelRule",
    "ConvergenceCriteria",
    "LevelSmoother",
    "CycleConfig",
    "HistoryRecord",
    "ConvergenceHistory",
    "SolveResult",
    "level_converged",
    "coarsest_solve",
    "orthomg_solve_multiplicative",
    "orthomg_solve_additive",
    "VARIANT_ADDITIVE_SYNC",
    "VARIANT_MULTIPLICATIVE_SYNC",
    "VARIANT_ADDITIVE_TASK_PARALLEL",
    "VARIANT_HYBRID",
    "SOLVER_VARIANTS",
]

VARIANT_ADDITIVE_SYNC = "additive_sync"
VARIANT_MULTIPLICATIVE_SYNC = "multiplicative_sync"
VARIANT_ADDITIVE_TASK_PARALLEL = "additive_task_parallel"
VARIANT_HYBRID = "hybrid"
SOLVER_VARIANTS = (
    VARIANT_ADDITIVE_SYNC,
    VARIANT_MULTIPLICATIVE_SYNC,
    VARIANT_ADDITIVE_TASK_PARALLEL,
    VARIANT_HYBRID,
)

KIND_INITIAL = "initial"
KIND_SMOOTHER = "smoother"
KIND_COARSE = "coarse"
KIND_FINAL = "final"


@dataclass(frozen=True)
class LevelRule:
    """Stop a level after a residual reduction factor or an iteration cap."""

    reduction_factor: float | None
    max_iterations: int

    def __post_init__(self):
        if self.reduction_factor is not None and not 0.0 < self.reduction_factor <= 1.0:
            raise ValueError("reduction_factor must lie in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class ConvergenceCriteria:
    """Per-level convergence rules.

    The finest level runs to ``eps_rel`` relative to the initial
    residual, with ``eps_abs`` as an absolute floor.  Levels below it
    follow their :class:`LevelRule`; any level deeper than the explicit
    rules takes a single iteration per visit.  The coarsest level is
    solved directly and never consults these rules.
    """

    eps_rel: float = 1e-8
    eps_abs: float = 1e-8
    level_rules: tuple = (
        (1, LevelRule(0.1, 20)),
        (2, LevelRule(0.5, 2)),
    )
    deep_rule: LevelRule = LevelRule(None, 1)

    def __post_init__(self):
        if self.eps_rel <= 0.0 or self.eps_abs < 0.0:
            raise ValueError("tolerances must be positive")
        for level, rule in self.level_rules:
            if level < 1 or not isinstance(rule, LevelRule):
                raise ValueError("level rules apply to intermediate levels only")

    def rule_for(self, level):
        if level < 1:
            raise ValueError("the finest level is governed by eps_rel/eps_abs")
        for lvl, rule in self.level_rules:
            if lvl == level:
                return rule
        return self.deep_rule


def level_converged(level, r_norm, r0_norm, iterations_done, criteria):
    """Level-local convergence test.

    Level 0 compares against the user tolerance; intermediate levels
    stop on their reduction factor or iteration cap, whichever comes
    first.
    """
    if level == 0:
        return r_norm <= criteria.eps_rel * r0_norm or r_norm <= criteria.eps_abs
    rule = criteria.rule_for(level)
    if rule.reduction_factor is not None and r_norm <= rule.reduction_factor * r0_norm:
        return True
    return iterations_done >= rule.max_iterations


@dataclass(eq=False)
class LevelSmoother:
    """One level's smoother, optionally bound to a thread pool."""

    smoother: object
    executor: object = None

    def apply(self, a, r):
        return self.smoother.apply(a, r, executor=self.executor)

    def with_executor(self, executor, workers):
        """Bind ``executor``, the smoother split into one chunk per worker."""
        return replace(self, smoother=self.smoother.split(workers), executor=executor)


@dataclass(eq=False)
class CycleConfig:
    """Everything a solve needs besides the hierarchy and the vectors."""

    variant: str
    criteria: ConvergenceCriteria
    smoothers: list
    max_outer_iterations: int = 100
    history_enabled: bool = True

    def __post_init__(self):
        if self.variant not in SOLVER_VARIANTS:
            raise ValueError(
                f"unknown solver variant {self.variant!r}; expected one of {SOLVER_VARIANTS}"
            )
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


@dataclass(frozen=True)
class HistoryRecord:
    step: int
    residual: float
    kind: str


class ConvergenceHistory:
    """Residual norm after every finest-level minimization step."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.records = []

    def append(self, kind, residual):
        if self.enabled:
            self.records.append(HistoryRecord(len(self.records), float(residual), kind))

    def residuals(self):
        return np.array([rec.residual for rec in self.records])

    def kinds(self):
        return [rec.kind for rec in self.records]

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_csv(self, target):
        """Write ``step,residual,type`` rows to a path or file object."""
        if hasattr(target, "write"):
            self._write(target)
        else:
            with open(target, "w", newline="") as handle:
                self._write(handle)

    def _write(self, handle):
        writer = csv.writer(handle)
        writer.writerow(["step", "residual", "type"])
        for rec in self.records:
            writer.writerow([rec.step, repr(rec.residual), rec.kind])

    def to_csv_text(self):
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()


@dataclass(eq=False)
class SolveResult:
    """Best iterate of a solve plus its convergence status."""

    x: np.ndarray
    r: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    history: ConvergenceHistory


# Direct factorizations of coarsest-level operators, keyed by matrix
# identity so repeated solves against one hierarchy factorize once.
_coarse_factor_cache = weakref.WeakKeyDictionary()


def _coarse_factor(a):
    factor = _coarse_factor_cache.get(a)
    if factor is None:
        try:
            factor = scipy.sparse.linalg.splu(a._scipy.tocsc())
        except RuntimeError as exc:
            raise SingularMatrixError(f"coarsest-level matrix is singular: {exc}") from None
        _coarse_factor_cache[a] = factor
    return factor


def coarsest_solve(a, r):
    """Direct sparse solve on the coarsest level (factorization cached)."""
    if a.n_rows != a.n_cols:
        raise ValueError("coarsest solve requires a square matrix")
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (a.n_rows,):
        raise ValueError("residual length does not match the coarsest matrix")
    return _coarse_factor(a).solve(r)


def _check_solve_inputs(hierarchy, b, x0, cfg):
    b = np.asarray(b, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    n = hierarchy.finest.n_dofs
    if b.shape != (n,) or x0.shape != (n,):
        raise ValueError(f"b and x0 must have length {n}")
    if len(cfg.smoothers) < hierarchy.n_levels - 1 and hierarchy.n_levels > 1:
        raise ValueError("cycle config must provide a smoother for every level above the coarsest")
    return b, x0


def level_loop(hierarchy, level, b, x0, cfg, body, history=None):
    """Iterate one cycle ``body`` on ``level`` until its criteria pass.

    This is the outer loop of every variant.  ``body(space, r, record)``
    runs one cycle from residual ``r``: it folds each correction into
    ``space`` with ``rm_update``, hands every new residual to
    ``record(kind, r)``, and returns the last ``(x, r)``.  Only the entry
    level passes a ``history``; the finest level also stops at
    ``cfg.max_outer_iterations``.
    """
    a = hierarchy.levels[level].matrix

    def record(kind, r):
        if history is not None:
            history.append(kind, norm2(r))

    r0 = b - spmv(a, x0)
    space = rm_init(x0, r0)
    x, r = x0, r0
    r0_norm = r_norm = norm2(r0)
    record(KIND_INITIAL, r0)
    iterations = 0
    while not level_converged(level, r_norm, r0_norm, iterations, cfg.criteria):
        if level == 0 and iterations >= cfg.max_outer_iterations:
            break
        x, r = body(space, r, record)
        r_norm = norm2(r)
        iterations += 1
    record(KIND_FINAL, r)
    converged = level_converged(level, r_norm, r0_norm, iterations, cfg.criteria)
    return SolveResult(x, r, r_norm, converged, iterations, history)


def direct_body(a):
    """Single-level cycle: a direct solve, minimized like any correction."""

    def body(space, r, record):
        x, r = rm_update(space, a, coarsest_solve(a, r))
        record(KIND_COARSE, r)
        return x, r

    return body


def multiplicative_body(a, smoother, coarse):
    """Smooth, fold in the coarse correction, smooth again."""

    def body(space, r, record):
        x, r = rm_update(space, a, smoother.apply(a, r))
        record(KIND_SMOOTHER, r)
        x, r = rm_update(space, a, coarse(r))
        record(KIND_COARSE, r)
        x, r = rm_update(space, a, smoother.apply(a, r))
        record(KIND_SMOOTHER, r)
        return x, r

    return body


def additive_body(a, smoother, coarse):
    """Smoother and coarse corrections from one cycle-start residual."""

    def body(space, r, record):
        z_smooth = smoother.apply(a, r)
        z_coarse = coarse(r)
        x, r = rm_update(space, a, z_smooth)
        record(KIND_SMOOTHER, r)
        x, r = rm_update(space, a, z_coarse)
        record(KIND_COARSE, r)
        return x, r

    return body


def solve_level(hierarchy, level, b, x0, cfg, cycle, history=None, coarse=None):
    """Run ``cycle`` (a body factory above) on ``level``, recursing below it.

    ``coarse(r)`` replaces the restrict, solve, prolong step of ``level``
    when given; the next level is otherwise solved by the same cycle, or
    directly when it is the coarsest.
    """
    a = hierarchy.levels[level].matrix
    if hierarchy.n_levels == 1:
        return level_loop(hierarchy, level, b, x0, cfg, direct_body(a), history)
    if coarse is None:
        lvl = hierarchy.levels[level]
        below = hierarchy.levels[level + 1]

        def coarse(r):
            coarse_residual = spmv(lvl.restriction, r)
            if below.index == hierarchy.n_levels - 1:
                coarse_x = coarsest_solve(below.matrix, coarse_residual)
            else:
                coarse_x = solve_level(hierarchy, below.index, coarse_residual,
                                       np.zeros(below.n_dofs), cfg, cycle).x
            return spmv(lvl.prolongation, coarse_x)

    body = cycle(a, cfg.smoothers[level], coarse)
    return level_loop(hierarchy, level, b, x0, cfg, body, history)


def orthomg_solve_multiplicative(hierarchy, b, x0, cfg):
    """Solve ``A x = b`` with the synchronous multiplicative cycle.

    Returns a :class:`SolveResult`; ``converged`` is False when the
    outer iteration cap was reached first, with the best iterate still
    reported.
    """
    b, x0 = _check_solve_inputs(hierarchy, b, x0, cfg)
    history = ConvergenceHistory(cfg.history_enabled)
    return solve_level(hierarchy, 0, b, x0, cfg, multiplicative_body, history)


def orthomg_solve_additive(hierarchy, b, x0, cfg):
    """Solve ``A x = b`` with the synchronous additive cycle.

    Smoother and coarse corrections of one iteration are computed from
    the same cycle-start residual and minimized back to back, smoother
    first; the recursion applies the same ordering on every level.
    """
    b, x0 = _check_solve_inputs(hierarchy, b, x0, cfg)
    history = ConvergenceHistory(cfg.history_enabled)
    return solve_level(hierarchy, 0, b, x0, cfg, additive_body, history)
