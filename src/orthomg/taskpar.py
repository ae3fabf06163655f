"""Semi-asynchronous task-parallel cycles: one coarse task per cycle.

Every level boundary separates a smoother side (fine) from a coarse side
that owns all deeper levels.  Each cycle submits one coarse task, which
restricts the cycle-start proposal residual (``SearchSpace.proposal``),
solves the next level, and prolongs the correction; its result is a
``concurrent.futures.Future``.  The smoother side keeps sweeping from
the latest proposal and minimizing until it stops and waits for that
future, then folds the correction in.

Each level runs the shared loop of :func:`orthomg.sync.level_loop`
with a task-parallel body: submit the cycle-start proposal, sweep, fold
in the correction.  An engine starts one coarse-side worker thread per
boundary and serves any number of solves of its top level, so the
hybrid cycle keeps one engine for a whole solve.

A deterministic scheduler mode pins the number of smoother sweeps per
cycle, which makes runs bitwise reproducible and each correction exactly
that many sweeps late; at one sweep per cycle it reduces the protocol to
the synchronous additive cycle.
"""

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .errors import ExchangeTimeoutError, WorkerError
# perfbench/tracing.py rebinds rm_init, rm_update, spmv and coarsest_solve
# where this module looks them up, so all four stay module names here.
from .resmin import rm_init, rm_update  # noqa: F401
from .sparse import spmv
from .sync import (
    KIND_COARSE,
    KIND_SMOOTHER,
    ConvergenceHistory,
    _bound_smoothers,
    _check_solve_inputs,
    coarsest_solve,
    level_loop,
    multiplicative_body,
    orthomg_solve_additive,
    solve_level,
)

__all__ = [
    "MSG_SMOOTHER_DONE",
    "MSG_COARSE_DONE",
    "MSG_COARSE_CORRECTION",
    "MSG_UPDATED_RESIDUAL",
    "MSG_TERMINATE",
    "MESSAGE_KINDS",
    "SchedulerMode",
    "TraceRow",
    "MessageTrace",
    "assign_groups",
    "async_solve",
    "hybrid_solve",
]

MSG_SMOOTHER_DONE = "smoother_done"
MSG_COARSE_DONE = "coarse_done"
MSG_COARSE_CORRECTION = "coarse_correction"
MSG_UPDATED_RESIDUAL = "updated_residual"
MSG_TERMINATE = "terminate"

ROLE_SMOOTHER = "smoother"
ROLE_COARSE = "coarse"

TRACE_RESTRICT = "restrict"
TRACE_PROLONG = "prolong"

MESSAGE_KINDS = frozenset(
    {MSG_SMOOTHER_DONE, MSG_COARSE_DONE, MSG_COARSE_CORRECTION,
     MSG_UPDATED_RESIDUAL, MSG_TERMINATE}
)

# How long leaving an engine waits for each coarse worker to stop; a worker
# still running a stalled task is a daemon thread and is left behind.
JOIN_SECONDS = 5.0


@dataclass(frozen=True)
class SchedulerMode:
    """Realtime polling or a pinned number of smoother sweeps per cycle."""

    kind: str = "realtime"
    sweeps_per_cycle: int = 1

    def __post_init__(self):
        # each message opens with the setting's key in a config's scheduler section
        if self.kind not in ("realtime", "deterministic"):
            raise ValueError(f"mode must be 'realtime' or 'deterministic', got {self.kind!r}")
        if self.sweeps_per_cycle < 1:
            raise ValueError("sweeps_per_cycle must be at least 1")
        if self.kind == "realtime" and self.sweeps_per_cycle != 1:
            raise ValueError("sweeps_per_cycle applies to mode = deterministic only")

    @classmethod
    def realtime(cls):
        return cls("realtime")

    @classmethod
    def deterministic(cls, sweeps_per_cycle=1):
        return cls("deterministic", sweeps_per_cycle)


def assign_groups(hierarchy, total_workers, coarsest_workers=1):
    """Pool sizes of the smoother levels, finest first, from ``total_workers``.

    ``coarsest_workers`` are withheld; the rest are apportioned to the
    smoother levels proportionally to their unknown counts by largest
    remainder, with at least one worker per level.  Finer levels win
    remainder ties; when the minimum-one rule overshoots, the largest
    allocations shrink first (coarser levels losing ties), down to one
    worker per level.  A level of one worker binds no pool and sweeps on
    the thread that runs its loop.  The coarse side of every level
    boundary runs on a thread of its own whatever the count, so the
    counts size the smoother pools only.
    """
    if total_workers < 1:
        raise ValueError("total_workers must be at least 1")
    if coarsest_workers < 1:
        raise ValueError("coarsest_workers must be at least 1")
    if hierarchy.n_levels == 1:
        return ()
    remaining = total_workers - coarsest_workers
    dofs = np.array([lvl.n_dofs for lvl in hierarchy.levels[:-1]], dtype=np.float64)
    quota = remaining * dofs / dofs.sum()
    shares = np.maximum(1, np.floor(quota).astype(np.int64))
    shortfall = remaining - int(shares.sum())
    if shortfall > 0:
        remainders = quota - np.floor(quota)
        order = sorted(range(len(shares)), key=lambda i: (-remainders[i], i))
        for i in order[:shortfall]:
            shares[i] += 1
    while shares.sum() > remaining and shares.max() > 1:
        victim = max(range(len(shares)), key=lambda i: (shares[i], i))
        shares[victim] -= 1
    return tuple(int(s) for s in shares)


@dataclass(frozen=True)
class TraceRow:
    seconds: float  # since the trace was created, monotonic
    level: int
    role: str
    kind: str
    cycle_index: int


class MessageTrace:
    """Thread-safe log of messages and transfer-operator applications."""

    def __init__(self):
        self.rows = []
        self._lock = threading.Lock()
        self._start = time.perf_counter()

    def record(self, level, role, kind, cycle_index):
        # Stamped under the lock, so rows stay in timestamp order.
        with self._lock:
            self.rows.append(TraceRow(time.perf_counter() - self._start,
                                      level, role, kind, cycle_index))

    def rows_of_kind(self, *kinds):
        return [row for row in self.rows if row.kind in kinds]


class _Worker:
    """A daemon thread that runs submitted calls in order, each into a future.

    Daemon, so a coarse task that never returns cannot hold up interpreter
    exit, unlike the joined workers of a ``ThreadPoolExecutor``.
    """

    def __init__(self, name):
        self._calls = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)
        self.thread.start()

    def submit(self, fn, *args):
        future = Future()
        self._calls.put((future, fn, args))
        return future

    def stop(self):
        self._calls.put(None)

    def _run(self):
        while (call := self._calls.get()) is not None:
            future, fn, args = call
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - raised again by whoever waits
                future.set_exception(exc)


class _AsyncEngine:
    """Coarse-side workers below ``top_level``, started once for any number of solves.

    Each boundary from ``top_level`` down gets one worker thread, which
    runs that boundary's coarse corrections, one task per cycle.
    ``run_level(top_level, ...)`` runs the top level's loop on the calling
    thread; leaving the ``with`` block stops the workers.
    """

    def __init__(self, hierarchy, cfg, sched, *, top_level=0, trace=None,
                 watchdog_seconds=60.0):
        if watchdog_seconds <= 0.0:
            raise ValueError("watchdog_seconds must be positive")
        self.hierarchy = hierarchy
        self.cfg = cfg
        self.sched = sched
        self.top_level = top_level
        self.trace = trace
        self.watchdog = watchdog_seconds
        boundaries = range(top_level, hierarchy.n_levels - 1)
        self.cycles = {k: -1 for k in boundaries}  # last cycle started, -1 before any
        self.workers = {k: _Worker(f"coarse-l{k + 1}") for k in boundaries}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # After a normal solve every worker is idle; after a failure one may
        # still run a stalled task, which must not hold the error back.
        for boundary, worker in self.workers.items():
            self._trace(boundary, ROLE_SMOOTHER, MSG_TERMINATE, self.cycles[boundary])
            worker.stop()
        for worker in self.workers.values():
            worker.thread.join(timeout=JOIN_SECONDS)

    def _trace(self, level, role, kind, cycle_index):
        if self.trace is not None:
            self.trace.record(level, role, kind, cycle_index)

    def _correct(self, boundary, r, cycle):
        """Coarse task: restrict ``r``, solve the next level, prolong the correction."""
        fine = self.hierarchy.levels[boundary]
        coarse = self.hierarchy.levels[boundary + 1]
        coarse_residual = spmv(fine.restriction, r)
        self._trace(boundary, ROLE_COARSE, TRACE_RESTRICT, cycle)
        if coarse.index == self.hierarchy.n_levels - 1:
            coarse_x = coarsest_solve(coarse.matrix, coarse_residual)
        else:
            coarse_x = self.run_level(coarse.index, coarse_residual,
                                      np.zeros(coarse.n_dofs)).x
        correction = spmv(fine.prolongation, coarse_x)
        self._trace(boundary, ROLE_COARSE, TRACE_PROLONG, cycle)
        self._trace(boundary, ROLE_COARSE, MSG_COARSE_DONE, cycle)
        self._trace(boundary, ROLE_COARSE, MSG_COARSE_CORRECTION, cycle)
        return correction

    def _wait(self, boundary, future):
        """The correction ``future`` holds, or the reason it did not come."""
        try:
            cause = future.exception(timeout=self.watchdog)
        except FutureTimeoutError:
            raise ExchangeTimeoutError(
                f"no coarse correction crossed level boundary {boundary} within "
                f"{self.watchdog:.1f}s"
            ) from None
        if cause is not None:
            raise WorkerError(boundary + 1, ROLE_COARSE, cause)
        return future.result()

    def run_level(self, level, b, x0, history=None):
        """The shared level loop with the task-parallel body at ``level``."""
        a = self.hierarchy.levels[level].matrix
        smoother = self.cfg.smoothers[level]
        sched = self.sched
        worker = self.workers[level]

        def body(space, record):
            self.cycles[level] += 1
            cycle = self.cycles[level]
            self._trace(level, ROLE_SMOOTHER, MSG_UPDATED_RESIDUAL, cycle)
            future = worker.submit(self._correct, level, space.proposal, cycle)
            sweeps = 0
            while True:
                record(KIND_SMOOTHER, rm_update(space, a, smoother.apply(a, space.proposal)))
                sweeps += 1
                if sweeps == 1:
                    self._trace(level, ROLE_SMOOTHER, MSG_SMOOTHER_DONE, cycle)
                if sched.kind == "deterministic":
                    if sweeps >= sched.sweeps_per_cycle:
                        break
                elif future.done():
                    break
            record(KIND_COARSE, rm_update(space, a, self._wait(level, future)))

        return level_loop(self.hierarchy, level, b, x0, self.cfg, body, history)


def async_solve(hierarchy, b, x0, cfg, smoother_workers, sched, *, trace=None,
                watchdog_seconds=60.0):
    """Solve ``A x = b`` with the semi-asynchronous additive cycle.

    Parameters
    ----------
    hierarchy : GridHierarchy
    b, x0 : ndarray
    cfg : CycleConfig
        Criteria, smoothers, and the outer iteration cap.
    smoother_workers : tuple of int
        Pool size of each smoother level, finest first, as
        :func:`assign_groups` gives it: a level of two or more workers
        sweeps its subdomains on a thread pool of that size; a level of
        one binds no pool.  The coarse side of each level boundary
        runs on a worker thread of its own whatever these counts.
    sched : SchedulerMode
    trace : MessageTrace, optional
        Receives one row per protocol event and per transfer application.
    watchdog_seconds : float, optional
        Deadlock guard on every wait for a coarse correction.

    Returns
    -------
    SolveResult
        ``iterations`` counts finest-level cycles.
    """
    b, x0 = _check_solve_inputs(hierarchy, b, x0, cfg)
    if hierarchy.n_levels == 1:
        return orthomg_solve_additive(hierarchy, b, x0, cfg)
    with _bound_smoothers(cfg, smoother_workers) as bound, \
            _AsyncEngine(hierarchy, bound, sched, trace=trace,
                         watchdog_seconds=watchdog_seconds) as engine:
        return engine.run_level(0, b, x0, ConvergenceHistory())


def hybrid_solve(hierarchy, b, x0, cfg, smoother_workers, sched=None, *, trace=None,
                 watchdog_seconds=60.0):
    """Multiplicative cycle on the finest level, asynchronous below it.

    The finest level pre-smooths, folds in a coarse correction, and
    post-smooths exactly like the synchronous multiplicative cycle, but
    each coarse correction is a solve of the next level by one
    task-parallel engine, started once for the whole solve.  With a
    two-level hierarchy the coarse call is a direct solve and the run
    coincides with the synchronous multiplicative cycle; a one-level
    hierarchy is solved directly.
    """
    b, x0 = _check_solve_inputs(hierarchy, b, x0, cfg)
    if sched is None:
        sched = SchedulerMode.realtime()
    history = ConvergenceHistory()
    with _bound_smoothers(cfg, smoother_workers) as bound, ExitStack() as stack:
        coarse = None  # one or two levels: solve_level's direct coarsest solve
        if hierarchy.n_levels > 2:
            engine = stack.enter_context(_AsyncEngine(
                hierarchy, bound, sched, top_level=1, trace=trace,
                watchdog_seconds=watchdog_seconds))
            finest = hierarchy.levels[0]

            def coarse(r):
                sub = engine.run_level(1, spmv(finest.restriction, r),
                                       np.zeros(hierarchy.levels[1].n_dofs))
                return spmv(finest.prolongation, sub.x)

        return solve_level(hierarchy, 0, b, x0, bound, multiplicative_body, history,
                           coarse=coarse)
