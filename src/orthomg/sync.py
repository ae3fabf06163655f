"""Synchronous multigrid cycles and the one level loop every cycle shares.

Every variant, task-parallel included, runs :func:`level_loop`: it owns
the initial residual and search space, the history records, the
level-local convergence test and the outer cap, and it hands each cycle
to a body that only folds corrections in.  A body computes each
correction from the search space's proposal, the energy-norm residual
over the directions folded in so far, and reports the residual of the
2-norm minimizer that ``rm_update`` returns.  Three bodies live here.
The multiplicative body smooths, folds in a coarse correction, and
smooths again, minimizing after each step.  The additive body computes the
smoother and coarse corrections from the same cycle-start residual and
folds them in back to back, which is the ordering the task-parallel
engine reproduces when its scheduler is pinned to one sweep per cycle.
A single-level hierarchy takes the direct body on either ordering.

Intermediate levels do not iterate to the outer tolerance: each level
stops after a fixed residual-reduction factor or a small iteration cap,
and the coarsest level is always solved directly.
"""

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
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
        if not (0.0 < self.eps_rel < np.inf and 0.0 <= self.eps_abs < np.inf):
            raise ValueError("eps_rel must be positive, eps_abs non-negative, both finite")
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


@dataclass(eq=False)
class CycleConfig:
    """Everything a solve needs besides the hierarchy and the vectors."""

    variant: str
    criteria: ConvergenceCriteria
    smoothers: list
    max_outer_iterations: int = 100

    def __post_init__(self):
        if self.variant not in SOLVER_VARIANTS:
            raise ValueError(
                f"unknown solver variant {self.variant!r}; expected one of {SOLVER_VARIANTS}"
            )
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


def _usable_cpus():
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _bound_smoothers(cfg, workers_per_level):
    """``cfg`` with a thread pool bound to every smoother of two or more workers.

    ``workers_per_level`` holds one count per level, finest first.  A pool
    starts no more threads than the process may run on at once: extra
    threads only contend for the same cores, and a bound apply then runs
    slower than a serial one.  The smoother keeps the chunks it was set
    up with, so every result is the same with or without a pool.
    """
    usable = _usable_cpus()
    with ExitStack() as stack:
        bound = list(cfg.smoothers)
        for level, (smoother, workers) in enumerate(zip(bound, workers_per_level)):
            if smoother is not None and workers >= 2:
                pool = stack.enter_context(ThreadPoolExecutor(
                    max_workers=min(workers, usable),
                    thread_name_prefix=f"smoother-l{level}"))
                bound[level] = replace(smoother, executor=pool)
        yield replace(cfg, smoothers=bound)


@dataclass(frozen=True)
class HistoryRecord:
    step: int
    residual: float
    kind: str


class ConvergenceHistory:
    """Residual norm after every finest-level minimization step."""

    def __init__(self):
        self.records = []

    def append(self, kind, residual):
        self.records.append(HistoryRecord(len(self.records), float(residual), kind))

    def residuals(self):
        return np.array([rec.residual for rec in self.records])

    def kinds(self):
        return [rec.kind for rec in self.records]

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(eq=False)
class SolveResult:
    """Best iterate of a solve plus its convergence status.

    ``breakdowns`` counts the corrections the solved level's residual
    minimizer rejected (``SearchSpace.breakdown_count``).
    """

    x: np.ndarray
    r: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    history: ConvergenceHistory
    breakdowns: int


# Direct factorizations of coarsest-level operators, keyed by ``id`` of the
# matrix so repeated solves against one hierarchy factorize once (scipy
# matrices are unhashable); an entry is dropped when its matrix dies.
_coarse_factor_cache = {}

# Every operator the hierarchy builds is bitwise symmetric: a minimum-degree
# ordering of A + A^T with diagonal pivots, SuperLU's symmetric mode, keeps
# less fill than the default column ordering (W2's 1024-unknown level: about
# 23,000 against 37,000 factor entries).
_COARSE_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})


def _coarse_factor(a):
    factor = _coarse_factor_cache.get(id(a))
    if factor is None:
        try:
            factor = scipy.sparse.linalg.splu(a.tocsc(), **_COARSE_SPLU_OPTIONS)
        except RuntimeError as exc:
            raise SingularMatrixError(f"coarsest-level matrix is singular: {exc}") from None
        if _coarse_factor_cache.setdefault(id(a), factor) is factor:
            weakref.finalize(a, _coarse_factor_cache.pop, id(a), None)
    return factor


def coarsest_solve(a, r):
    """Direct sparse solve on the coarsest level (factorization cached)."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("coarsest solve requires a square matrix")
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (a.shape[0],):
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

    This is the outer loop of every variant.  ``body(space, record)``
    runs one cycle: it computes each correction from ``space.proposal``,
    the energy-norm residual over the directions so far, folds it into
    ``space`` with ``rm_update`` and hands each residual ``rm_update``
    returns to ``record(kind, r)``.  The loop keeps no iterate of its
    own: after each cycle it reads ``space.residual``, and the iterate is
    formed once, from ``space.minimizer``, when the level is left.  A
    zero ``x0`` takes ``b`` as its residual without a product.  Only the
    entry level passes a ``history``; the finest level also stops at
    ``cfg.max_outer_iterations``.
    """
    a = hierarchy.levels[level].matrix

    def record(kind, r):
        if history is not None:
            history.append(kind, norm2(r))

    # every coarse visit starts from zero, and so do most callers: no product
    r0 = b - spmv(a, x0) if x0.any() else b.copy()
    space = rm_init(x0, r0)
    r0_norm = r_norm = norm2(r0)
    record(KIND_INITIAL, r0)
    iterations = 0
    while not level_converged(level, r_norm, r0_norm, iterations, cfg.criteria):
        if level == 0 and iterations >= cfg.max_outer_iterations:
            break
        body(space, record)
        r_norm = norm2(space.residual)
        iterations += 1
    x, r = space.minimizer
    record(KIND_FINAL, r)
    converged = level_converged(level, r_norm, r0_norm, iterations, cfg.criteria)
    return SolveResult(x, r, r_norm, converged, iterations, history, space.breakdown_count)


def direct_body(a):
    """Single-level cycle: a direct solve, minimized like any correction."""

    def body(space, record):
        record(KIND_COARSE, rm_update(space, a, coarsest_solve(a, space.proposal)))

    return body


def multiplicative_body(a, smoother, coarse):
    """Smooth, fold in the coarse correction, smooth again."""

    def body(space, record):
        record(KIND_SMOOTHER, rm_update(space, a, smoother.apply(a, space.proposal)))
        record(KIND_COARSE, rm_update(space, a, coarse(space.proposal)))
        record(KIND_SMOOTHER, rm_update(space, a, smoother.apply(a, space.proposal)))

    return body


def additive_body(a, smoother, coarse):
    """Smoother and coarse corrections from one cycle-start residual."""

    def body(space, record):
        z_smooth = smoother.apply(a, space.proposal)
        z_coarse = coarse(space.proposal)
        record(KIND_SMOOTHER, rm_update(space, a, z_smooth))
        record(KIND_COARSE, rm_update(space, a, z_coarse))

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
    history = ConvergenceHistory()
    return solve_level(hierarchy, 0, b, x0, cfg, multiplicative_body, history)


def orthomg_solve_additive(hierarchy, b, x0, cfg):
    """Solve ``A x = b`` with the synchronous additive cycle.

    Smoother and coarse corrections of one iteration are computed from
    the same cycle-start residual and minimized back to back, smoother
    first; the recursion applies the same ordering on every level.
    """
    b, x0 = _check_solve_inputs(hierarchy, b, x0, cfg)
    history = ConvergenceHistory()
    return solve_level(hierarchy, 0, b, x0, cfg, additive_body, history)
