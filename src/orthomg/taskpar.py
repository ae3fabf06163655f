"""Semi-asynchronous task-parallel cycles over message-passing worker groups.

Every level boundary separates a smoother group (fine side) from a
coarse group that owns all deeper levels.  Within one cycle the smoother
side keeps sweeping and minimizing while the coarse side restricts the
cycle-start residual, solves its level, and prolongs the correction
exactly once; the two sides meet at a single exchange per cycle.  The
groups run as in-process threads connected by ordered point-to-point
queues, and every payload changes hands only through a message, so a
distributed transport could replace the queues without touching the
cycle logic.

Each level runs the shared loop of :func:`orthomg.sync.level_loop`
with a task-parallel body: send the cycle-start residual across the
boundary, sweep until the correction arrives, fold it in.  An engine
starts its servant threads once and serves any number of solves of its
top level, so the hybrid cycle keeps one engine for a whole solve.

A deterministic scheduler mode pins the number of smoother sweeps per
cycle, which makes runs bitwise reproducible and, at one sweep per
cycle, reduces the protocol to the synchronous additive cycle.
"""

import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace

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
    "ExchangeMessage",
    "SchedulerMode",
    "GroupAssignment",
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
_MSG_ERROR = "error"

ROLE_SMOOTHER = "smoother"
ROLE_COARSE = "coarse"

TRACE_RESTRICT = "restrict"
TRACE_PROLONG = "prolong"

MESSAGE_KINDS = frozenset(
    {MSG_SMOOTHER_DONE, MSG_COARSE_DONE, MSG_COARSE_CORRECTION,
     MSG_UPDATED_RESIDUAL, MSG_TERMINATE}
)


@dataclass(frozen=True)
class ExchangeMessage:
    """One message crossing a level boundary; payloads transfer ownership."""

    kind: str
    cycle_index: int
    payload: object = None


@dataclass(frozen=True)
class SchedulerMode:
    """Realtime polling or a pinned number of smoother sweeps per cycle."""

    kind: str = "realtime"
    sweeps_per_cycle: int = 1

    def __post_init__(self):
        if self.kind not in ("realtime", "deterministic"):
            raise ValueError(f"unknown scheduler mode {self.kind!r}")
        if self.sweeps_per_cycle < 1:
            raise ValueError("sweeps_per_cycle must be at least 1")

    @classmethod
    def realtime(cls):
        return cls("realtime")

    @classmethod
    def deterministic(cls, sweeps_per_cycle=1):
        return cls("deterministic", sweeps_per_cycle)


@dataclass(frozen=True)
class GroupAssignment:
    """Worker counts per smoother level plus the coarsest-level group."""

    smoother_workers: tuple
    coarsest_workers: int

    def __post_init__(self):
        if self.coarsest_workers < 1:
            raise ValueError("coarsest group needs at least one worker")
        if any(w < 1 for w in self.smoother_workers):
            raise ValueError("every smoother level needs at least one worker")

    @property
    def total_workers(self):
        return sum(self.smoother_workers) + self.coarsest_workers

    def coarse_group_size(self, level):
        """Workers owned by the coarse side of the boundary at ``level``."""
        return sum(self.smoother_workers[level + 1:]) + self.coarsest_workers


def assign_groups(hierarchy, total_workers, coarsest_workers=1):
    """Split ``total_workers`` across the hierarchy's levels.

    The coarsest group is fixed at ``coarsest_workers``; the rest are
    apportioned to the smoother levels proportionally to their unknown
    counts by largest remainder, with at least one worker per level.
    Finer levels win remainder ties; when the minimum-one rule
    overshoots, the largest allocations shrink first (coarser levels
    losing ties).
    """
    if coarsest_workers < 1:
        raise ValueError("coarsest_workers must be at least 1")
    n_levels = hierarchy.n_levels
    if n_levels == 1:
        return GroupAssignment((), total_workers)
    minimum = (n_levels - 1) + coarsest_workers
    if total_workers < minimum:
        raise ValueError(
            f"{n_levels} levels require at least {minimum} workers "
            f"(got {total_workers})"
        )
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
    while shares.sum() > remaining:
        candidates = [i for i in range(len(shares)) if shares[i] > 1]
        victim = max(candidates, key=lambda i: (shares[i], i))
        shares[victim] -= 1
    return GroupAssignment(tuple(int(s) for s in shares), coarsest_workers)


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
        row = TraceRow(time.perf_counter() - self._start, level, role, kind, cycle_index)
        with self._lock:
            self.rows.append(row)

    def rows_of_kind(self, *kinds):
        return [row for row in self.rows if row.kind in kinds]

    def to_csv(self, target):
        if not hasattr(target, "write"):
            with open(target, "w", newline="") as handle:
                return self.to_csv(handle)
        target.write("seconds,level,role,kind,cycle_index\n")
        for row in self.rows:
            target.write(
                f"{row.seconds!r},{row.level},{row.role},{row.kind},{row.cycle_index}\n"
            )


class _Channel:
    """Ordered point-to-point queues across one level boundary."""

    def __init__(self, boundary_level, mode):
        self.boundary_level = boundary_level
        self.mode = mode  # how the coarse side solves: "direct" | "async" | "sync"
        self.down = queue.Queue()  # smoother side -> coarse side
        self.up = queue.Queue()  # coarse side -> smoother side
        self.cycles_started = -1  # index of the last cycle started, -1 before any

    def next_cycle(self):
        self.cycles_started += 1
        return self.cycles_started


class _AsyncEngine:
    """Servant threads below ``top_level``, started once for any number of solves.

    Each boundary from ``top_level`` down gets a channel and a servant
    thread that answers every residual with a coarse correction; the chain
    ends at the first coarse side that solves directly or synchronously.
    ``solve`` runs the top level's loop on the calling thread; leaving the
    ``with`` block stops the servants.
    """

    def __init__(self, hierarchy, cfg, assignment, sched, *, top_level=0, trace=None,
                 watchdog_seconds=60.0, coarse_delay_seconds=0.0):
        if watchdog_seconds <= 0.0:
            raise ValueError("watchdog_seconds must be positive")
        self.hierarchy = hierarchy
        self.cfg = cfg
        self.sched = sched
        self.top_level = top_level
        self.trace = trace
        self.watchdog = watchdog_seconds
        self.coarse_delay = coarse_delay_seconds
        self.in_flight_since = None  # perf_counter() of the running solve
        self.channels = []
        coarsest = hierarchy.n_levels - 1
        for level in range(top_level, coarsest):
            if level + 1 == coarsest:
                mode = "direct"
            elif assignment.coarse_group_size(level) >= 2:
                mode = "async"
            else:
                mode = "sync"
            self.channels.append(_Channel(level, mode))
            if mode != "async":
                break
        children = self.channels[1:] + [None]
        self.threads = [
            threading.Thread(target=self._serve, args=(channel, child),
                             name=f"coarse-l{channel.boundary_level + 1}", daemon=True)
            for channel, child in zip(self.channels, children)
        ]
        for thread in self.threads:
            thread.start()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            # Unblock every servant before the exception propagates.
            for channel in self.channels:
                channel.down.put(ExchangeMessage(MSG_TERMINATE, -1, None))
            for thread in self.threads:
                thread.join(timeout=5.0)
            return
        top = self.channels[0]
        self._send(top, "down", ROLE_SMOOTHER, MSG_TERMINATE, None, top.cycles_started)
        for thread in self.threads:
            thread.join(timeout=self.watchdog)
            if thread.is_alive():
                raise ExchangeTimeoutError(f"worker {thread.name} did not shut down")

    # -- coarse side -----------------------------------------------------

    def _serve(self, channel, child):
        """Servant thread: answer each residual on ``channel`` until terminated."""
        try:
            while True:
                msg = self._receive(channel.down, channel.boundary_level)
                if msg.kind == MSG_TERMINATE:
                    break
                if msg.kind == MSG_UPDATED_RESIDUAL:
                    self._correct(channel, child, msg)
                elif msg.kind != MSG_SMOOTHER_DONE:
                    raise RuntimeError(f"unexpected message kind {msg.kind!r}")
        except BaseException as exc:  # noqa: BLE001 - must surface on the driving thread
            level = channel.boundary_level + 1
            channel.up.put(ExchangeMessage(_MSG_ERROR, -1, (level, exc)))
        finally:
            if child is not None:
                self._send(child, "down", ROLE_SMOOTHER, MSG_TERMINATE, None,
                           child.cycles_started)

    def _correct(self, channel, child, msg):
        """Restrict the residual, solve the next level, send back the prolongation."""
        boundary = channel.boundary_level
        if self.coarse_delay > 0.0 and boundary == self.top_level:
            time.sleep(self.coarse_delay)
        fine = self.hierarchy.levels[boundary]
        coarse = self.hierarchy.levels[boundary + 1]
        coarse_residual = spmv(fine.restriction, msg.payload)
        self._trace(boundary, ROLE_COARSE, TRACE_RESTRICT, msg.cycle_index)
        zeros = np.zeros(coarse.n_dofs)
        if channel.mode == "direct":
            coarse_x = coarsest_solve(coarse.matrix, coarse_residual)
        elif channel.mode == "sync":
            coarse_x = solve_level(self.hierarchy, coarse.index, coarse_residual, zeros,
                                   self.cfg, multiplicative_body).x
        else:
            coarse_x = self.run_level(coarse.index, coarse_residual, zeros, child).x
        correction = spmv(fine.prolongation, coarse_x)
        self._trace(boundary, ROLE_COARSE, TRACE_PROLONG, msg.cycle_index)
        self._send(channel, "up", ROLE_COARSE, MSG_COARSE_DONE, None, msg.cycle_index)
        self._send(channel, "up", ROLE_COARSE, MSG_COARSE_CORRECTION, correction,
                   msg.cycle_index)

    # -- messaging ---------------------------------------------------

    def _trace(self, level, role, kind, cycle_index):
        if self.trace is not None:
            self.trace.record(level, role, kind, cycle_index)

    def _send(self, channel, direction, role, kind, payload, cycle_index):
        self._trace(channel.boundary_level, role, kind, cycle_index)
        target = channel.down if direction == "down" else channel.up
        target.put(ExchangeMessage(kind, cycle_index, payload))

    def _receive(self, q, boundary_level):
        """Next message on ``q``; the watchdog counts only while a solve runs.

        A servant waiting for work between two solves of a persistent
        engine is idle, not stalled.
        """
        waiting_since = time.perf_counter()
        while True:
            try:
                msg = q.get(timeout=self.watchdog)
                break
            except queue.Empty:
                since = self.in_flight_since
                if since is not None and (
                    time.perf_counter() - max(since, waiting_since) >= self.watchdog
                ):
                    raise ExchangeTimeoutError(
                        f"no message crossed level boundary {boundary_level} within "
                        f"{self.watchdog:.1f}s"
                    ) from None
        if msg.kind == _MSG_ERROR:
            level, cause = msg.payload
            raise WorkerError(level, ROLE_COARSE, cause)
        return msg

    def _receive_correction(self, channel, cycle_index):
        for expected in (MSG_COARSE_DONE, MSG_COARSE_CORRECTION):
            msg = self._receive(channel.up, channel.boundary_level)
            if msg.kind != expected or msg.cycle_index != cycle_index:
                raise RuntimeError(
                    f"protocol violation at boundary {channel.boundary_level}: "
                    f"expected {expected} for cycle {cycle_index}, "
                    f"got {msg.kind} for cycle {msg.cycle_index}"
                )
        return msg.payload

    # -- fine side -------------------------------------------------------

    def run_level(self, level, b, x0, channel, history=None):
        """The shared level loop with the task-parallel body over ``channel``."""
        a = self.hierarchy.levels[level].matrix
        smoother = self.cfg.smoothers[level]
        sched = self.sched

        def body(space, r, record):
            cycle = channel.next_cycle()
            self._send(channel, "down", ROLE_SMOOTHER, MSG_UPDATED_RESIDUAL, r, cycle)
            sweeps = 0
            while True:
                x, r = rm_update(space, a, smoother.apply(a, r))
                record(KIND_SMOOTHER, r)
                sweeps += 1
                if sweeps == 1:
                    self._send(channel, "down", ROLE_SMOOTHER, MSG_SMOOTHER_DONE,
                               None, cycle)
                if sched.kind == "deterministic":
                    if sweeps >= sched.sweeps_per_cycle:
                        break
                elif not channel.up.empty():
                    break
            x, r = rm_update(space, a, self._receive_correction(channel, cycle))
            record(KIND_COARSE, r)
            return x, r

        return level_loop(self.hierarchy, level, b, x0, self.cfg, body, history)

    def solve(self, b, x0, history=None):
        """Solve the top level against the running servants."""
        self.in_flight_since = time.perf_counter()
        try:
            return self.run_level(self.top_level, b, x0, self.channels[0], history)
        finally:
            self.in_flight_since = None


@contextmanager
def _bound_smoothers(cfg, assignment):
    """``cfg`` with a thread pool bound to every smoother of two or more workers."""
    with ExitStack() as stack:
        bound = list(cfg.smoothers)
        for level, (smoother, workers) in enumerate(zip(bound, assignment.smoother_workers)):
            if smoother is not None and workers >= 2:
                pool = stack.enter_context(ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix=f"smoother-l{level}"))
                bound[level] = smoother.with_executor(pool, workers)
        yield replace(cfg, smoothers=bound)


def async_solve(hierarchy, b, x0, cfg, assignment, sched, *, trace=None,
                watchdog_seconds=60.0, coarse_delay_seconds=0.0):
    """Solve ``A x = b`` with the semi-asynchronous additive cycle.

    Parameters
    ----------
    hierarchy : GridHierarchy
    b, x0 : ndarray
    cfg : CycleConfig
        Criteria, smoothers, and the outer iteration cap.
    assignment : GroupAssignment
        Worker counts; a boundary whose coarse side owns at least two
        workers runs the next level asynchronously as well, otherwise
        that side degrades to the synchronous cycle.
    sched : SchedulerMode
    trace : MessageTrace, optional
        Receives one row per message and per transfer application.
    watchdog_seconds : float, optional
        Deadlock guard on every blocking receive.
    coarse_delay_seconds : float, optional
        Test hook: sleep injected before each top-boundary coarse solve.

    Returns
    -------
    SolveResult
        ``iterations`` counts finest-level cycles.
    """
    b, x0 = _check_solve_inputs(hierarchy, b, x0, cfg)
    if hierarchy.n_levels == 1:
        return orthomg_solve_additive(hierarchy, b, x0, cfg)
    with _bound_smoothers(cfg, assignment) as bound, \
            _AsyncEngine(hierarchy, bound, assignment, sched, trace=trace,
                         watchdog_seconds=watchdog_seconds,
                         coarse_delay_seconds=coarse_delay_seconds) as engine:
        return engine.solve(b, x0, ConvergenceHistory(cfg.history_enabled))


def hybrid_solve(hierarchy, b, x0, cfg, assignment, sched=None, *, trace=None,
                 watchdog_seconds=60.0):
    """Multiplicative cycle on the finest level, asynchronous below it.

    The finest level pre-smooths, folds in a coarse correction, and
    post-smooths exactly like the synchronous multiplicative cycle, but
    each coarse correction is a solve of the next level by one
    task-parallel engine, started once for the whole solve.  With a
    two-level hierarchy the coarse call is a direct solve and the run
    coincides with the synchronous multiplicative cycle.
    """
    if hierarchy.n_levels < 2:
        raise ValueError("the hybrid cycle needs at least two levels")
    b, x0 = _check_solve_inputs(hierarchy, b, x0, cfg)
    if sched is None:
        sched = SchedulerMode.realtime()
    history = ConvergenceHistory(cfg.history_enabled)
    with _bound_smoothers(cfg, assignment) as bound, ExitStack() as stack:
        coarse = None  # two levels: the synchronous direct coarse solve
        if hierarchy.n_levels > 2:
            engine = stack.enter_context(_AsyncEngine(
                hierarchy, bound, assignment, sched, top_level=1, trace=trace,
                watchdog_seconds=watchdog_seconds))
            finest = hierarchy.levels[0]

            def coarse(r):
                sub = engine.solve(spmv(finest.restriction, r),
                                   np.zeros(hierarchy.levels[1].n_dofs))
                return spmv(finest.prolongation, sub.x)

        return solve_level(hierarchy, 0, b, x0, bound, multiplicative_body, history,
                           coarse=coarse)
