"""Spans around calls into orthomg's layers, recorded from outside the library.

The library is not changed.  Each of its modules binds the names it calls at
import time (``from .resmin import rm_update``), so wrapping
``orthomg.resmin.rm_update`` alone would record nothing: ``instrumented``
rebinds every name where it is looked up, plus ``LevelSmoother.apply`` on
the class, and restores all of them on exit.  Spans stay in memory and are
written when the run ends.  Levels are resolved by matrix identity against
``hierarchy.levels[k]``; search spaces, which carry no matrix, by length.
"""

import csv
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields

import orthomg.config as om_config
import orthomg.resmin as om_resmin
import orthomg.smoothers as om_smoothers
import orthomg.sync as om_sync
import orthomg.taskpar as om_taskpar
from orthomg import MESSAGE_KINDS, MSG_TERMINATE, MSG_UPDATED_RESIDUAL, LevelSmoother

# Per-level metrics cover l0 and l1, the smoothed levels every workload
# has; an unsuffixed twin sums over all levels, deeper ones included
# (schwarz_mult_2d256 smooths five).
REPORTED_LEVELS = 2

SMOOTHER_APPLY = "smoothers.apply"
SMOOTHER_SETUP = "smoothers.setup"
RM_UPDATE = "resmin.rm_update"
RM_INIT = "resmin.rm_init"
SPMV = "sparse.spmv"
TRANSFER = "sparse.transfer"
COARSEST = "sync.coarsest_solve"
SOLVE = "solve"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None  # enclosing span on the same thread
    name: str
    level: int | None
    site: str  # module the callee was looked up in
    op: str  # operator, restrict or prolong for products; empty otherwise
    thread: int
    start: float
    end: float

    @property
    def seconds(self):
        return self.end - self.start


@dataclass(frozen=True)
class Update:
    """What one rm_update call did to its search space."""

    level: int | None
    basis_size: int  # after the call
    restart: bool  # the space re-anchored before folding in the direction
    accepted: bool  # no breakdown: the direction joined the basis


class Tracer:
    """In-memory span log plus the search-space facts rm_update leaves behind."""

    def __init__(self):
        self.spans = []
        self.updates = []  # one Update per rm_update call
        self._ids = itertools.count()
        self._local = threading.local()
        self._matrices = {}
        self._sizes = {}

    def attach(self, hierarchy):
        """Resolve levels against ``hierarchy``; valid while it is alive."""
        self._matrices = {}
        for lvl in hierarchy.levels:
            self._matrices[id(lvl.matrix)] = ("operator", lvl.index)
            if lvl.restriction is not None:
                self._matrices[id(lvl.restriction)] = ("restrict", lvl.index)
                self._matrices[id(lvl.prolongation)] = ("prolong", lvl.index)
        self._sizes = {lvl.n_dofs: lvl.index for lvl in hierarchy.levels}

    def call(self, fn, args, name, level=None, site="", op=""):
        """Run ``fn(*args)`` inside a span; returns what it returns."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, level, site, op,
                                   threading.get_ident(), start, end))

    def where(self, matrix):
        return self._matrices.get(id(matrix), ("other", None))

    def write_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f.name for f in fields(Span)])
            writer.writerows(astuple(span) for span in self.spans)

    # -- wrappers ------------------------------------------------------

    def _spmv(self, fn, site):
        def spmv(a, x):
            op, level = self.where(a)
            name = TRANSFER if op in ("restrict", "prolong") else SPMV
            return self.call(fn, (a, x), name, level, site, op)
        return spmv

    def _rm_update(self, fn, site):
        def rm_update(space, a, z):
            _, level = self.where(a)
            restart = space.size >= space.restart_cap
            breakdowns = space.breakdown_count
            out = self.call(fn, (space, a, z), RM_UPDATE, level, site)
            accepted = space.breakdown_count == breakdowns
            self.updates.append(Update(level, space.size, restart, accepted))
            return out
        return rm_update

    def _rm_init(self, fn, site):
        def rm_init(x0, r0, *args, **kwargs):
            level = self._sizes.get(len(x0))
            return self.call(lambda: fn(x0, r0, *args, **kwargs), (), RM_INIT, level, site)
        return rm_init

    def _coarsest(self, fn, site):
        def coarsest_solve(a, r):
            return self.call(fn, (a, r), COARSEST, self.where(a)[1], site)
        return coarsest_solve

    def _smoother_setup(self, fn):
        def setup(a, *args, **kwargs):
            return self.call(lambda: fn(a, *args, **kwargs), (), SMOOTHER_SETUP,
                             self.where(a)[1], "config")
        return setup

    def _apply(self, fn):
        def apply(smoother, a, r):
            return self.call(fn, (smoother, a, r), SMOOTHER_APPLY, self.where(a)[1], "sync")
        return apply


@contextmanager
def instrumented(tracer):
    """Rebind orthomg's internal call sites to ``tracer``'s wrappers."""
    patches = [(om_config, name, tracer._smoother_setup(getattr(om_config, name)))
               for name in ("schwarz_setup", "bj_setup")]
    patches.append((LevelSmoother, "apply", tracer._apply(LevelSmoother.apply)))
    for module in (om_sync, om_taskpar, om_resmin, om_smoothers):
        site = module.__name__.rsplit(".", 1)[-1]
        patches.append((module, "spmv", tracer._spmv(module.spmv, site)))
        if module in (om_sync, om_taskpar):
            patches += [
                (module, "rm_update", tracer._rm_update(module.rm_update, site)),
                (module, "rm_init", tracer._rm_init(module.rm_init, site)),
                (module, "coarsest_solve", tracer._coarsest(module.coarsest_solve, site)),
            ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.seconds
    return {span.id: span.seconds - children[span.id] for span in spans}


def _exchange_wait(main_spans):
    """Driving thread's gap before each engine-loop coarse update.

    In a task-parallel level loop the coarse correction is the rm_update that
    follows another rm_update with no smoother apply between them; the gap
    is the blocking receive of the exchange.
    """
    wait = 0.0
    previous = {}
    for span in main_spans:
        if span.name not in (SMOOTHER_APPLY, RM_UPDATE):
            continue
        before = previous.get(span.level)
        if (span.name == RM_UPDATE and span.site == "taskpar"
                and before is not None and before.name == RM_UPDATE):
            wait += span.start - before.end
        previous[span.level] = span
    return wait


def _coarse_calls(main_spans):
    """Driving-thread time from each taskpar restriction to its prolongation.

    Only ``hybrid_solve`` transfers through ``taskpar`` on the driving thread:
    the span covers one coarse call, task-parallel engine start to stop.
    """
    total, opened = 0.0, None
    for span in main_spans:
        if span.name != TRANSFER or span.site != "taskpar":
            continue
        if span.op == "restrict":
            opened = span
        elif span.op == "prolong" and opened is not None:
            total += span.end - opened.start
            opened = None
    return total


def factor_mib(smoothers):
    """Computed size of every stored local factor or tile inverse."""
    nbytes = 0
    for bound in smoothers:
        if bound is None:
            continue
        sm = bound.smoother
        for lu in getattr(sm, "local_factors", ()):
            nbytes += lu.factors.values.nbytes + lu.pivots.nbytes
        for inverse in getattr(sm, "block_inverses", ()):
            nbytes += inverse.values.nbytes
    return nbytes / 2**20


def layer_metrics(tracer, setup, result, trace_rows):
    """Per-layer metrics of one traced set-up plus solve: ``name -> (value, unit)``.

    The unit says what a metric is: ``s`` a time (in the solve, self time
    summed over threads), ``count`` an exact count, ``MiB`` a size computed
    from array sizes, ``ratio`` and ``sweeps/cycle`` quotients of counts.
    ``trace.unattributed_s`` is the driving thread's solve time that no
    span covers, exchange waits included.
    """
    root = next(s for s in reversed(tracer.spans) if s.name == SOLVE)
    own = self_times(tracer.spans)
    in_solve = [s for s in tracer.spans if s.start >= root.start and s is not root]
    busy, calls = defaultdict(float), Counter()
    for span in in_solve:
        busy[span.name, span.level] += own[span.id]
        calls[span.name, span.level] += 1

    def total(table, name):
        return sum(v for (n, _), v in table.items() if n == name)

    main = sorted((s for s in in_solve if s.thread == root.thread), key=lambda s: s.start)
    messages = [row for row in trace_rows if row.kind in MESSAGE_KINDS]
    cycles = Counter(row.level for row in messages if row.kind == MSG_UPDATED_RESIDUAL)
    stops = [row.level for row in messages if row.kind == MSG_TERMINATE]
    updates = tracer.updates
    setup_l0 = sum(own[s.id] for s in tracer.spans if s.name == SMOOTHER_SETUP and s.level == 0)

    m = {
        "problem.hierarchy_s": (setup.phases["problem.hierarchy_s"], "s"),
        "problem.assemble_s": (setup.phases["problem.assemble_s"], "s"),
        "smoothers.setup_s": (setup.phases["smoothers.setup_s"], "s"),
        "smoothers.setup_s.l0": (setup_l0, "s"),
        "smoothers.factor_mb": (factor_mib(setup.smoothers), "MiB"),
    }
    for prefix, name in (("smoothers.apply", SMOOTHER_APPLY), ("resmin.rm_update", RM_UPDATE)):
        m[f"{prefix}_s"] = (total(busy, name), "s")
        m[f"{prefix}_calls"] = (total(calls, name), "count")
        for k in range(REPORTED_LEVELS):
            m[f"{prefix}_s.l{k}"] = (busy[name, k], "s")
            m[f"{prefix}_calls.l{k}"] = (calls[name, k], "count")
    m["resmin.basis_max.l0"] = (
        max((u.basis_size for u in updates if u.level == 0), default=0), "count")
    m["resmin.accepted_ratio"] = (
        sum(u.accepted for u in updates) / len(updates) if updates else 0.0, "ratio")
    m["resmin.restarts"] = (sum(u.restart for u in updates), "count")
    m["sparse.spmv_s"] = (total(busy, SPMV), "s")
    m["sparse.spmv_calls"] = (total(calls, SPMV), "count")
    m["sparse.transfer_s"] = (total(busy, TRANSFER), "s")
    m["sparse.transfer_calls"] = (total(calls, TRANSFER), "count")
    m["sync.coarsest_factor_s"] = (setup.phases["sync.coarsest_factor_s"], "s")
    m["sync.coarsest_solve_s"] = (total(busy, COARSEST), "s")
    m["sync.coarsest_solve_calls"] = (total(calls, COARSEST), "count")
    m["sync.outer_iterations"] = (result.iterations, "count")
    m["sync.level_visits"] = (total(calls, RM_INIT), "count")
    for k in range(REPORTED_LEVELS):
        m[f"sync.level_visits.l{k}"] = (calls[RM_INIT, k], "count")
    m["taskpar.exchange_wait_s"] = (_exchange_wait(main), "s")
    for k in range(REPORTED_LEVELS):
        sweeps = calls[SMOOTHER_APPLY, k] / cycles[k] if cycles[k] else 0.0
        m[f"taskpar.sweeps_per_cycle.l{k}"] = (sweeps, "sweeps/cycle")
    m["taskpar.messages"] = (len(messages), "count")
    m["taskpar.coarse_call_s"] = (_coarse_calls(main), "s")
    m["taskpar.engine_starts"] = (stops.count(min(stops)) if stops else 0, "count")
    m["trace.solve_s"] = (root.seconds, "s")
    m["trace.unattributed_s"] = (own[root.id], "s")
    return m


def solver_threads(tracer):
    """Distinct threads that ran traced library code (idents may be reused)."""
    return len({span.thread for span in tracer.spans})
