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

A deterministic scheduler mode pins the number of smoother sweeps per
cycle, which makes runs bitwise reproducible and, at one sweep per
cycle, reduces the protocol to the synchronous additive cycle.
"""

import itertools
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import ExchangeTimeoutError, WorkerError
from .resmin import rm_init, rm_update
from .sparse import norm2, spmv
from .sync import (
    KIND_COARSE,
    KIND_FINAL,
    KIND_INITIAL,
    KIND_SMOOTHER,
    ConvergenceHistory,
    SolveResult,
    _check_solve_inputs,
    _solve_level_multiplicative,
    coarsest_solve,
    level_converged,
    orthomg_solve_additive,
)

__all__ = [
    "MSG_SMOOTHER_DONE",
    "MSG_COARSE_DONE",
    "MSG_COARSE_CORRECTION",
    "MSG_UPDATED_RESIDUAL",
    "MSG_TERMINATE",
    "MESSAGE_KINDS",
    "PLACEMENT_COARSE_GROUP",
    "PLACEMENT_BOTH_GROUPS",
    "ExchangeMessage",
    "SchedulerMode",
    "GroupAssignment",
    "TraceRow",
    "MessageTrace",
    "assign_groups",
    "intergrid_placement",
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

PLACEMENT_COARSE_GROUP = "coarse_group"
PLACEMENT_BOTH_GROUPS = "both_groups"

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


def intergrid_placement(level, option=PLACEMENT_COARSE_GROUP):
    """Roles that execute the transfer operators at boundary ``level``.

    The default places restriction and prolongation on the coarse
    group, which also receives the fine residual and returns the
    prolonged correction.  The both-groups fallback attributes the
    transfers to both sides; the numerical path is identical.
    """
    if level < 0:
        raise ValueError("boundary level must be non-negative")
    if option == PLACEMENT_COARSE_GROUP:
        return (ROLE_COARSE,)
    if option == PLACEMENT_BOTH_GROUPS:
        return (ROLE_COARSE, ROLE_SMOOTHER)
    raise ValueError(f"unknown placement option {option!r}")


@dataclass(frozen=True)
class TraceRow:
    wall_time: float
    level: int
    role: str
    kind: str
    cycle_index: int


class MessageTrace:
    """Thread-safe log of messages and transfer-operator applications."""

    def __init__(self):
        self.rows = []
        self._lock = threading.Lock()

    def record(self, level, role, kind, cycle_index):
        row = TraceRow(time.time(), level, role, kind, cycle_index)
        with self._lock:
            self.rows.append(row)

    def rows_of_kind(self, *kinds):
        return [row for row in self.rows if row.kind in kinds]

    def to_csv(self, target):
        if hasattr(target, "write"):
            self._write(target)
        else:
            with open(target, "w", newline="") as handle:
                self._write(handle)

    def _write(self, handle):
        handle.write("wall_time,level,role,kind,cycle_index\n")
        for row in self.rows:
            handle.write(
                f"{row.wall_time!r},{row.level},{row.role},{row.kind},{row.cycle_index}\n"
            )


class _Channel:
    """Ordered point-to-point queues across one level boundary."""

    def __init__(self, boundary_level):
        self.boundary_level = boundary_level
        self.down = queue.Queue()  # smoother side -> coarse side
        self.up = queue.Queue()  # coarse side -> smoother side
        self._counter = itertools.count()
        self.cycles_started = 0

    def next_cycle(self):
        self.cycles_started = next(self._counter)
        return self.cycles_started


class _Servant:
    """Thread serving the coarse side of one boundary."""

    def __init__(self, engine, level, mode, channel, child_channel):
        self.engine = engine
        self.level = level  # level this servant solves
        self.mode = mode  # "direct" | "async" | "sync"
        self.channel = channel  # boundary (level - 1) <-> level
        self.child_channel = child_channel  # boundary level <-> level + 1, if any
        self.thread = threading.Thread(
            target=self._run, name=f"coarse-l{level}", daemon=True
        )

    def _run(self):
        engine = self.engine
        try:
            while True:
                msg = engine._receive(self.channel.down, self.channel.boundary_level)
                if msg.kind == MSG_TERMINATE:
                    break
                if msg.kind == MSG_SMOOTHER_DONE:
                    continue
                if msg.kind == MSG_UPDATED_RESIDUAL:
                    self._handle(msg)
                    continue
                raise RuntimeError(f"unexpected message kind {msg.kind!r}")
        except BaseException as exc:  # noqa: BLE001 - must surface in the driver
            self.channel.up.put(ExchangeMessage(_MSG_ERROR, -1, (self.level, exc)))
        finally:
            if self.child_channel is not None:
                engine._send(
                    self.child_channel, "down", ROLE_SMOOTHER, MSG_TERMINATE,
                    None, self.child_channel.cycles_started,
                )

    def _handle(self, msg):
        engine = self.engine
        boundary = self.channel.boundary_level
        if engine.coarse_delay > 0.0 and boundary == engine.top_level:
            time.sleep(engine.coarse_delay)
        fine = engine.hierarchy.levels[boundary]
        coarse_residual = spmv(fine.restriction, msg.payload)
        engine._trace_transfer(boundary, TRACE_RESTRICT, msg.cycle_index)
        zeros = np.zeros(engine.hierarchy.levels[self.level].n_dofs)
        if self.mode == "direct":
            coarse_x = coarsest_solve(engine.hierarchy.levels[self.level].matrix,
                                      coarse_residual)
        elif self.mode == "sync":
            sub = _solve_level_multiplicative(
                engine.hierarchy, self.level, coarse_residual, zeros, engine.cfg
            )
            coarse_x = sub.x
        else:
            coarse_x, _, _, _, _ = engine._level_loop(
                self.level, coarse_residual, zeros, self.child_channel,
                record_history=False,
            )
        correction = spmv(fine.prolongation, coarse_x)
        engine._trace_transfer(boundary, TRACE_PROLONG, msg.cycle_index)
        engine._send(self.channel, "up", ROLE_COARSE, MSG_COARSE_DONE,
                     None, msg.cycle_index)
        engine._send(self.channel, "up", ROLE_COARSE, MSG_COARSE_CORRECTION,
                     correction, msg.cycle_index)


class _AsyncEngine:
    """Builds the servant chain and drives the finest level in-thread."""

    def __init__(self, hierarchy, cfg, assignment, sched, *, top_level=0,
                 smoothers=None, placement=PLACEMENT_COARSE_GROUP, trace=None,
                 watchdog_seconds=60.0, coarse_delay_seconds=0.0):
        if watchdog_seconds <= 0.0:
            raise ValueError("watchdog_seconds must be positive")
        self.hierarchy = hierarchy
        self.cfg = cfg
        self.assignment = assignment
        self.sched = sched
        self.top_level = top_level
        self.smoothers = cfg.smoothers if smoothers is None else smoothers
        self.placement = placement
        self.trace = trace
        self.watchdog = watchdog_seconds
        self.coarse_delay = coarse_delay_seconds
        self.coarsest_index = hierarchy.n_levels - 1
        self.history = ConvergenceHistory(cfg.history_enabled)
        self.channels = []
        self.servants = []
        self._build_chain()

    def _build_chain(self):
        level = self.top_level
        while level < self.coarsest_index:
            serve_level = level + 1
            if serve_level == self.coarsest_index:
                mode = "direct"
            elif self.assignment.coarse_group_size(level) >= 2:
                mode = "async"
            else:
                mode = "sync"
            channel = _Channel(level)
            self.channels.append(channel)
            self.servants.append(
                _Servant(self, serve_level, mode, channel, child_channel=None)
            )
            if len(self.servants) >= 2:
                self.servants[-2].child_channel = channel
            if mode != "async":
                break
            level = serve_level

    # -- messaging ---------------------------------------------------

    def _send(self, channel, direction, role, kind, payload, cycle_index):
        if self.trace is not None:
            self.trace.record(channel.boundary_level, role, kind, cycle_index)
        target = channel.down if direction == "down" else channel.up
        target.put(ExchangeMessage(kind, cycle_index, payload))

    def _receive(self, q, boundary_level):
        try:
            msg = q.get(timeout=self.watchdog)
        except queue.Empty:
            raise ExchangeTimeoutError(
                f"no message crossed level boundary {boundary_level} within "
                f"{self.watchdog:.1f}s"
            ) from None
        if msg.kind == _MSG_ERROR:
            level, cause = msg.payload
            raise WorkerError(level, ROLE_COARSE, cause)
        return msg

    def _trace_transfer(self, boundary_level, op, cycle_index):
        if self.trace is None:
            return
        for role in intergrid_placement(boundary_level, self.placement):
            self.trace.record(boundary_level, role, op, cycle_index)

    def _receive_correction(self, channel, cycle_index):
        msg = self._receive(channel.up, channel.boundary_level)
        if msg.kind != MSG_COARSE_DONE or msg.cycle_index != cycle_index:
            raise RuntimeError(
                f"protocol violation at boundary {channel.boundary_level}: "
                f"expected {MSG_COARSE_DONE} for cycle {cycle_index}, "
                f"got {msg.kind} for cycle {msg.cycle_index}"
            )
        msg = self._receive(channel.up, channel.boundary_level)
        if msg.kind != MSG_COARSE_CORRECTION or msg.cycle_index != cycle_index:
            raise RuntimeError(
                f"protocol violation at boundary {channel.boundary_level}: "
                f"expected {MSG_COARSE_CORRECTION} for cycle {cycle_index}, "
                f"got {msg.kind} for cycle {msg.cycle_index}"
            )
        return msg.payload

    # -- cycle loop ----------------------------------------------------

    def _level_loop(self, level, b, x0, channel, record_history):
        """Run the smoother-side loop of one level until its criteria pass."""
        a = self.hierarchy.levels[level].matrix
        cfg = self.cfg
        smoother = self.smoothers[level]
        deterministic = self.sched.kind == "deterministic"
        r0 = b - spmv(a, x0)
        space = rm_init(x0, r0)
        x, r = x0, r0
        r0_norm = norm2(r0)
        r_norm = r0_norm
        if record_history:
            self.history.append(KIND_INITIAL, r0_norm)
        cycles = 0
        while not level_converged(level, r_norm, r0_norm, cycles, cfg.criteria):
            if level == 0 and cycles >= cfg.max_outer_iterations:
                break
            cycle = channel.next_cycle()
            self._send(channel, "down", ROLE_SMOOTHER, MSG_UPDATED_RESIDUAL, r, cycle)
            correction = None
            sweeps = 0
            while correction is None:
                z = smoother.apply(a, r)
                x, r = rm_update(space, a, z)
                if record_history:
                    self.history.append(KIND_SMOOTHER, norm2(r))
                sweeps += 1
                if sweeps == 1:
                    self._send(channel, "down", ROLE_SMOOTHER, MSG_SMOOTHER_DONE,
                               None, cycle)
                if deterministic:
                    if sweeps >= self.sched.sweeps_per_cycle:
                        correction = self._receive_correction(channel, cycle)
                elif not channel.up.empty():
                    correction = self._receive_correction(channel, cycle)
            x, r = rm_update(space, a, correction)
            if record_history:
                self.history.append(KIND_COARSE, norm2(r))
            r_norm = norm2(r)
            cycles += 1
        converged = level_converged(level, r_norm, r0_norm, cycles, cfg.criteria)
        return x, r, r_norm, cycles, converged

    # -- public driver -------------------------------------------------

    def solve(self, b, x0):
        for servant in self.servants:
            servant.thread.start()
        top_channel = self.channels[0]
        try:
            x, r, r_norm, cycles, converged = self._level_loop(
                self.top_level, b, x0, top_channel, record_history=True
            )
            self._send(top_channel, "down", ROLE_SMOOTHER, MSG_TERMINATE, None,
                       top_channel.cycles_started)
        except BaseException:
            # Unblock every servant before propagating.
            for channel in self.channels:
                channel.down.put(ExchangeMessage(MSG_TERMINATE, -1, None))
            for servant in self.servants:
                servant.thread.join(timeout=5.0)
            raise
        for servant in self.servants:
            servant.thread.join(timeout=self.watchdog)
            if servant.thread.is_alive():
                raise ExchangeTimeoutError(
                    f"worker at level {servant.level} did not shut down"
                )
        self.history.append(KIND_FINAL, r_norm)
        return SolveResult(x, r, r_norm, converged, cycles, self.history)


@contextmanager
def _bound_smoothers(cfg, assignment, n_levels):
    """Attach per-level thread pools to the smoothers as assigned."""
    with ExitStack() as stack:
        bound = list(cfg.smoothers)
        for level in range(min(len(bound), max(n_levels - 1, 0))):
            if bound[level] is None:
                continue
            workers = 1
            if level < len(assignment.smoother_workers):
                workers = assignment.smoother_workers[level]
            if workers >= 2:
                pool = stack.enter_context(
                    ThreadPoolExecutor(
                        max_workers=workers, thread_name_prefix=f"smoother-l{level}"
                    )
                )
                bound[level] = bound[level].with_executor(pool, workers)
        yield bound


def async_solve(hierarchy, b, x0, cfg, assignment, sched, *,
                placement=PLACEMENT_COARSE_GROUP, trace=None,
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
    placement : str, optional
        Which roles the transfer operators are attributed to.
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
    with _bound_smoothers(cfg, assignment, hierarchy.n_levels) as smoothers:
        engine = _AsyncEngine(
            hierarchy, cfg, assignment, sched, smoothers=smoothers,
            placement=placement, trace=trace, watchdog_seconds=watchdog_seconds,
            coarse_delay_seconds=coarse_delay_seconds,
        )
        return engine.solve(b, x0)


def hybrid_solve(hierarchy, b, x0, cfg, assignment, sched=None, *,
                 placement=PLACEMENT_COARSE_GROUP, trace=None,
                 watchdog_seconds=60.0):
    """Multiplicative cycle on the finest level, asynchronous below it.

    The finest level pre-smooths, folds in a coarse correction, and
    post-smooths exactly like the synchronous multiplicative cycle, but
    each coarse correction is produced by the task-parallel engine
    running on the levels beneath.  With a two-level hierarchy the
    coarse call is a direct solve and the run coincides with the
    synchronous multiplicative cycle.
    """
    if hierarchy.n_levels < 2:
        raise ValueError("the hybrid cycle needs at least two levels")
    b, x0 = _check_solve_inputs(hierarchy, b, x0, cfg)
    if sched is None:
        sched = SchedulerMode.realtime()
    history = ConvergenceHistory(cfg.history_enabled)
    with _bound_smoothers(cfg, assignment, hierarchy.n_levels) as smoothers:
        bound_cfg = replace(cfg, smoothers=smoothers)
        if hierarchy.n_levels == 2:
            return _solve_level_multiplicative(hierarchy, 0, b, x0, bound_cfg, history)

        finest = hierarchy.levels[0]

        def coarse_override(residual):
            coarse_residual = spmv(finest.restriction, residual)
            engine = _AsyncEngine(
                hierarchy, bound_cfg, assignment, sched, top_level=1,
                smoothers=smoothers, placement=placement, trace=trace,
                watchdog_seconds=watchdog_seconds,
            )
            sub = engine.solve(coarse_residual,
                               np.zeros(hierarchy.levels[1].n_dofs))
            return spmv(finest.prolongation, sub.x)

        return _solve_level_multiplicative(
            hierarchy, 0, b, x0, bound_cfg, history, coarse_override=coarse_override
        )
