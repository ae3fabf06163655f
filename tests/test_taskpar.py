"""Task-parallel engine tests: worker groups, message protocol, equivalence."""

import io
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import orthomg as om
import orthomg.taskpar as taskpar
from helpers import benchmark_setup, cycle_config


def history_records(res):
    return list(zip(res.history.kinds(), res.history.residuals()))


def coarse_threads():
    return [t for t in threading.enumerate() if t.name.startswith("coarse-l")]


def two_level():
    _, h, b, smoothers = benchmark_setup(cells=16, l_min=64)
    assert h.n_levels == 2
    return h, b, smoothers


def three_level():
    _, h, b, smoothers = benchmark_setup(cells=32, l_min=64)
    assert h.n_levels == 3
    return h, b, smoothers


# ---------------------------------------------------------------------------
# scheduler modes and worker assignment


def test_scheduler_mode_factories_and_validation():
    assert om.SchedulerMode.realtime().kind == "realtime"
    det = om.SchedulerMode.deterministic(3)
    assert det.kind == "deterministic"
    assert det.sweeps_per_cycle == 3
    with pytest.raises(ValueError, match="unknown scheduler mode"):
        om.SchedulerMode("eager")
    with pytest.raises(ValueError, match="at least 1"):
        om.SchedulerMode.deterministic(0)


def test_group_assignment_validation_and_sizes():
    ga = om.GroupAssignment((3, 2, 1), 2)
    assert ga.total_workers == 8
    with pytest.raises(ValueError, match="coarsest group"):
        om.GroupAssignment((1,), 0)
    with pytest.raises(ValueError, match="every smoother level"):
        om.GroupAssignment((1, 0), 1)


def test_assign_groups_is_proportional_to_unknowns():
    _, h, _, _ = benchmark_setup(cells=64, l_min=64)
    assert [lvl.n_dofs for lvl in h.levels] == [4096, 1024, 256, 64]
    assert om.assign_groups(h, 8).smoother_workers == (5, 1, 1)
    assert om.assign_groups(h, 16).smoother_workers == (11, 3, 1)
    assert om.assign_groups(h, 6, coarsest_workers=2).smoother_workers == (2, 1, 1)


def test_assign_groups_minimum_gives_one_worker_per_level():
    _, h, _, _ = benchmark_setup(cells=64, l_min=64)
    ga = om.assign_groups(h, 4)
    assert ga.smoother_workers == (1, 1, 1)
    assert ga.coarsest_workers == 1


def test_assign_groups_conserves_workers():
    _, h, _, _ = benchmark_setup(cells=64, l_min=64)
    for total in range(4, 40):
        ga = om.assign_groups(h, total)
        assert ga.total_workers == total
        assert all(w >= 1 for w in ga.smoother_workers)
        assert len(ga.smoother_workers) == h.n_levels - 1


def test_assign_groups_rejects_too_few_workers():
    _, h, _, _ = benchmark_setup(cells=64, l_min=64)
    with pytest.raises(ValueError, match=r"4 levels require at least 4 workers \(got 3\)"):
        om.assign_groups(h, 3)
    with pytest.raises(ValueError, match="coarsest_workers"):
        om.assign_groups(h, 8, coarsest_workers=0)


def test_assign_groups_single_level_keeps_everything():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    h = om.build_hierarchy(spec, l_min=10_000)
    ga = om.assign_groups(h, 7)
    assert ga.smoother_workers == ()
    assert ga.coarsest_workers == 7


# ---------------------------------------------------------------------------
# message trace


def test_message_trace_records_and_filters():
    trace = om.MessageTrace()
    trace.record(0, "smoother", om.MSG_UPDATED_RESIDUAL, 0)
    trace.record(0, "coarse", om.MSG_COARSE_DONE, 0)
    trace.record(1, "coarse", "restrict", 0)
    assert len(trace.rows) == 3
    assert [r.kind for r in trace.rows_of_kind(om.MSG_COARSE_DONE)] == ["coarse_done"]
    picked = trace.rows_of_kind(om.MSG_UPDATED_RESIDUAL, "restrict")
    assert [(r.level, r.kind) for r in picked] == [(0, "updated_residual"), (1, "restrict")]


def test_message_trace_csv_roundtrip():
    trace = om.MessageTrace()
    trace.record(0, "smoother", om.MSG_SMOOTHER_DONE, 4)
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "seconds,level,role,kind,cycle_index"
    seconds, level, role, kind, cycle = lines[1].split(",")
    assert float(seconds) == trace.rows[0].seconds
    assert (int(level), role, kind, int(cycle)) == (0, "smoother", "smoother_done", 4)


# ---------------------------------------------------------------------------
# deterministic mode: equivalence with the synchronous additive cycle


def test_deterministic_single_sweep_matches_additive_sync_two_levels():
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_sync", smoothers)
    x0 = np.zeros(h.finest.n_dofs)
    ref = om.orthomg_solve_additive(h, b, x0, cfg)
    res = om.async_solve(h, b, x0, cfg, om.assign_groups(h, 2),
                         om.SchedulerMode.deterministic(1))
    assert res.converged
    assert res.iterations == ref.iterations
    assert history_records(res) == history_records(ref)
    assert np.array_equal(res.x, ref.x)


def test_deterministic_single_sweep_matches_additive_sync_three_levels():
    # both boundaries run asynchronously, the lower one solving directly;
    # one sweep per cycle still reproduces the additive recursion exactly
    h, b, smoothers = three_level()
    cfg = cycle_config("additive_sync", smoothers)
    x0 = np.zeros(h.finest.n_dofs)
    ref = om.orthomg_solve_additive(h, b, x0, cfg)
    res = om.async_solve(h, b, x0, cfg, om.assign_groups(h, 3),
                         om.SchedulerMode.deterministic(1))
    assert history_records(res) == history_records(ref)
    assert np.array_equal(res.x, ref.x)


def test_deterministic_runs_are_reproducible():
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    x0 = np.zeros(h.finest.n_dofs)
    ga = om.assign_groups(h, 2)
    first = om.async_solve(h, b, x0, cfg, ga, om.SchedulerMode.deterministic(2))
    second = om.async_solve(h, b, x0, cfg, ga, om.SchedulerMode.deterministic(2))
    assert np.array_equal(first.x, second.x)
    assert history_records(first) == history_records(second)


def test_deterministic_pins_sweeps_per_cycle():
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    res = om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                         om.assign_groups(h, 2), om.SchedulerMode.deterministic(3))
    assert res.converged
    kinds = res.history.kinds()
    assert kinds[0] == "initial" and kinds[-1] == "final"
    body = kinds[1:-1]
    assert len(body) == 4 * res.iterations
    for i in range(res.iterations):
        assert body[4 * i: 4 * i + 4] == ["smoother", "smoother", "smoother", "coarse"]


# ---------------------------------------------------------------------------
# realtime mode and the message protocol


def test_realtime_converges_and_respects_protocol():
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    trace = om.MessageTrace()
    res = om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                         om.assign_groups(h, 2), om.SchedulerMode.realtime(),
                         trace=trace)
    assert res.converged
    assert res.residual_norm <= 1e-8 * om.norm2(b)
    allowed = set(om.MESSAGE_KINDS) | {"restrict", "prolong"}
    assert {row.kind for row in trace.rows} <= allowed

    started = [r.cycle_index for r in trace.rows_of_kind(om.MSG_UPDATED_RESIDUAL)]
    assert started == list(range(res.iterations))
    # every started cycle is answered exactly once, and the reply pair
    # arrives in order
    for kind in (om.MSG_SMOOTHER_DONE, om.MSG_COARSE_DONE, om.MSG_COARSE_CORRECTION):
        assert [r.cycle_index for r in trace.rows_of_kind(kind)] == started
    for cycle in started:
        rows = [r.kind for r in trace.rows if r.cycle_index == cycle
                and r.kind in (om.MSG_COARSE_DONE, om.MSG_COARSE_CORRECTION)]
        assert rows == ["coarse_done", "coarse_correction"]
    assert trace.rows[-1].kind == "terminate"


def test_realtime_takes_at_least_one_sweep_per_cycle():
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    res = om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                         om.assign_groups(h, 2), om.SchedulerMode.realtime())
    kinds = res.history.kinds()
    coarse_steps = [i for i, k in enumerate(kinds) if k == "coarse"]
    assert len(coarse_steps) == res.iterations
    previous = 0
    for step in coarse_steps:
        assert kinds[previous + 1: step].count("smoother") >= 1
        previous = step
    residuals = res.history.residuals()
    assert np.all(np.diff(residuals) <= 1e-12 * residuals[0])


def test_realtime_survives_a_slow_coarse_side():
    # stale corrections still help; the run converges with the coarse
    # solve artificially delayed
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    res = om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                         om.assign_groups(h, 2), om.SchedulerMode.realtime(),
                         coarse_delay_seconds=0.003)
    assert res.converged
    assert res.residual_norm <= 1e-8 * om.norm2(b)


# ---------------------------------------------------------------------------
# edge cases and shutdown


def test_zero_rhs_terminates_cleanly():
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    res = om.async_solve(h, np.zeros_like(b), np.zeros(h.finest.n_dofs), cfg,
                         om.assign_groups(h, 2), om.SchedulerMode.realtime())
    assert res.converged
    assert res.iterations == 0
    assert res.history.kinds() == ["initial", "final"]
    assert coarse_threads() == []


def test_single_level_falls_back_to_direct_solve():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    h = om.build_hierarchy(spec, l_min=10_000)
    _, b = om.assemble_poisson(spec)
    res = om.async_solve(h, b, np.zeros(h.finest.n_dofs),
                         cycle_config("additive_task_parallel", (None,)),
                         om.assign_groups(h, 5), om.SchedulerMode.realtime())
    assert res.converged
    assert res.iterations == 1
    assert res.history.kinds() == ["initial", "coarse", "final"]


def test_async_solve_validates_inputs():
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    ga = om.assign_groups(h, 2)
    with pytest.raises(ValueError, match="watchdog_seconds"):
        om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg, ga,
                       om.SchedulerMode.realtime(), watchdog_seconds=0.0)
    with pytest.raises(ValueError, match="length"):
        om.async_solve(h, b[:-1], np.zeros(h.finest.n_dofs), cfg, ga,
                       om.SchedulerMode.realtime())


# ---------------------------------------------------------------------------
# failure propagation


class _ExplodingSmoother:
    def apply(self, a, r):
        raise RuntimeError("kaboom")

    def with_executor(self, pool):
        return self


def test_worker_failure_surfaces_with_level_and_cause():
    h, b, smoothers = three_level()
    broken = (smoothers[0], _ExplodingSmoother(), None)
    cfg = cycle_config("additive_task_parallel", broken)
    with pytest.raises(om.WorkerError) as excinfo:
        om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                       om.assign_groups(h, 3), om.SchedulerMode.deterministic(1))
    err = excinfo.value
    assert err.level == 1
    assert err.role == "coarse"
    assert isinstance(err.cause, RuntimeError)
    assert "kaboom" in str(err)
    assert coarse_threads() == []


def test_watchdog_breaks_a_stalled_exchange():
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    with pytest.raises(om.ExchangeTimeoutError, match="level boundary 0"):
        om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                       om.assign_groups(h, 2), om.SchedulerMode.deterministic(1),
                       watchdog_seconds=0.05, coarse_delay_seconds=0.5)
    assert coarse_threads() == []


def test_stalled_coarse_task_raises_within_watchdog_and_join_bound(monkeypatch):
    # the coarse task outlives the join bound; the error must not wait for it
    monkeypatch.setattr(taskpar, "JOIN_SECONDS", 0.2)
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    started = time.perf_counter()
    with pytest.raises(om.ExchangeTimeoutError, match="level boundary 0"):
        om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                       om.assign_groups(h, 2), om.SchedulerMode.deterministic(1),
                       watchdog_seconds=0.05, coarse_delay_seconds=1.0)
    elapsed = time.perf_counter() - started
    # 0.25 s of slack for the one sweep and thread start-up on a loaded host
    assert elapsed < 0.05 + 0.2 + 0.25
    for thread in coarse_threads():
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def test_stalled_coarse_task_does_not_block_interpreter_exit():
    script = (
        "import sys, numpy as np, orthomg as om\n"
        "from helpers import benchmark_setup, cycle_config\n"
        "om.taskpar.JOIN_SECONDS = 0.1\n"
        "_, h, b, sm = benchmark_setup(cells=16, l_min=64)\n"
        "try:\n"
        "    om.async_solve(h, b, np.zeros(h.finest.n_dofs),\n"
        "                   cycle_config('additive_task_parallel', sm),\n"
        "                   om.assign_groups(h, 2), om.SchedulerMode.deterministic(1),\n"
        "                   watchdog_seconds=0.05, coarse_delay_seconds=60.0)\n"
        "except om.ExchangeTimeoutError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    path = [str(p) for p in (Path(taskpar.__file__).parents[1], Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=30)
    assert done.returncode == 0


# ---------------------------------------------------------------------------
# hybrid cycle


def test_hybrid_two_levels_matches_multiplicative_sync():
    h, b, smoothers = two_level()
    cfg = cycle_config("multiplicative_sync", smoothers)
    x0 = np.zeros(h.finest.n_dofs)
    ref = om.orthomg_solve_multiplicative(h, b, x0, cfg)
    res = om.hybrid_solve(h, b, x0, cfg, om.assign_groups(h, 2))
    assert res.converged
    assert history_records(res) == history_records(ref)
    assert np.array_equal(res.x, ref.x)


def test_hybrid_three_levels_converges():
    h, b, smoothers = three_level()
    cfg = cycle_config("hybrid", smoothers)
    res = om.hybrid_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                          om.assign_groups(h, 3), om.SchedulerMode.deterministic(1))
    assert res.converged
    assert res.residual_norm <= 1e-8 * om.norm2(b)
    # reported residual is the true residual of the reported iterate
    assert om.norm2(b - om.spmv(h.finest.matrix, res.x)) == pytest.approx(
        res.residual_norm, abs=1e-9 * om.norm2(b)
    )


def test_hybrid_keeps_one_engine_for_the_whole_solve():
    _, h, b, smoothers = benchmark_setup(cells=64, l_min=64)
    assert h.n_levels == 4
    cfg = cycle_config("hybrid", smoothers)
    trace = om.MessageTrace()
    res = om.hybrid_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                          om.assign_groups(h, 4), om.SchedulerMode.deterministic(1),
                          trace=trace)
    assert res.converged
    assert res.iterations >= 2
    stops = [row.level for row in trace.rows_of_kind(om.MSG_TERMINATE)]
    # one stop for the top boundary of the engine and one for the
    # asynchronous boundary beneath it, however many finest iterations ran
    assert sorted(stops) == [1, 2]
    started = [r.cycle_index for r in trace.rows_of_kind(om.MSG_UPDATED_RESIDUAL)
               if r.level == 1]
    assert started == list(range(len(started)))
    assert len(started) > res.iterations
    assert coarse_threads() == []


def test_back_to_back_deterministic_hybrid_solves_match():
    _, h, b, smoothers = benchmark_setup(cells=64, l_min=64)
    cfg = cycle_config("hybrid", smoothers)
    x0 = np.zeros(h.finest.n_dofs)
    ga = om.assign_groups(h, 4)
    first = om.hybrid_solve(h, b, x0, cfg, ga, om.SchedulerMode.deterministic(2))
    second = om.hybrid_solve(h, b, x0, cfg, ga, om.SchedulerMode.deterministic(2))
    assert history_records(first) == history_records(second)
    assert np.array_equal(first.x, second.x)


def test_persistent_engine_protocol_under_thread_switching():
    # more threads than cores and a short switch interval: every coarse
    # call of the one engine is answered once, in order, and it stops once
    _, h, b, smoothers = benchmark_setup(cells=64, l_min=64)
    cfg = cycle_config("hybrid", smoothers)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        trace = om.MessageTrace()
        res = om.hybrid_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                              om.assign_groups(h, 6), om.SchedulerMode.realtime(),
                              trace=trace, watchdog_seconds=30.0)
    finally:
        sys.setswitchinterval(previous)
    assert res.converged
    for level in (1, 2):
        rows = [r for r in trace.rows if r.level == level]
        started = [r.cycle_index for r in rows if r.kind == om.MSG_UPDATED_RESIDUAL]
        assert started == list(range(len(started)))
        for kind in (om.MSG_COARSE_DONE, om.MSG_COARSE_CORRECTION):
            assert [r.cycle_index for r in rows if r.kind == kind] == started
        assert [r.kind for r in rows].count(om.MSG_TERMINATE) == 1
    assert coarse_threads() == []


class _SlowSmoother:
    """Finest-level smoother that takes longer than the watchdog."""

    def __init__(self, inner, seconds):
        self.inner = inner
        self.seconds = seconds

    def apply(self, a, r):
        time.sleep(self.seconds)
        return self.inner.apply(a, r)


def test_hybrid_engine_idles_through_a_slow_finest_step():
    # the coarse workers idle between coarse calls longer than
    # watchdog_seconds; only a wait for a correction may time out
    h, b, smoothers = three_level()
    slow = (_SlowSmoother(smoothers[0], 0.25),) + smoothers[1:]
    cfg = cycle_config("hybrid", slow, criteria=om.ConvergenceCriteria(eps_rel=1e-4))
    res = om.hybrid_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                          om.assign_groups(h, 3), om.SchedulerMode.deterministic(1),
                          watchdog_seconds=0.2)
    assert res.converged
    assert res.iterations >= 2
    assert coarse_threads() == []


def test_hybrid_needs_two_levels():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    h = om.build_hierarchy(spec, l_min=10_000)
    _, b = om.assemble_poisson(spec)
    with pytest.raises(ValueError, match="at least two levels"):
        om.hybrid_solve(h, b, np.zeros(h.finest.n_dofs),
                        cycle_config("hybrid", (None,)),
                        om.assign_groups(h, 1))
