"""Task-parallel engine tests: worker groups, message protocol, equivalence."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import orthomg as om
import orthomg.cli as cli
import orthomg.config as om_config
import orthomg.resmin as resmin
import orthomg.smoothers as smoothers_mod
import orthomg.sync as sync
import orthomg.taskpar as taskpar
from helpers import benchmark_setup, cycle_config, kernel, load_perfbench, slow_coarsest_solve


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
    with pytest.raises(ValueError, match="mode must be 'realtime' or 'deterministic'"):
        om.SchedulerMode("eager")
    with pytest.raises(ValueError, match="at least 1"):
        om.SchedulerMode.deterministic(0)
    with pytest.raises(ValueError, match="deterministic only"):
        om.SchedulerMode("realtime", 2)


def test_assign_groups_is_proportional_to_unknowns():
    _, h, _, _ = benchmark_setup(cells=64, l_min=64)
    assert [lvl.n_dofs for lvl in h.levels] == [4096, 1024, 256, 64]
    assert om.assign_groups(h, 8) == (5, 1, 1)
    assert om.assign_groups(h, 16) == (11, 3, 1)
    assert om.assign_groups(h, 6, coarsest_workers=2) == (2, 1, 1)


# Smoother pool sizes, finest level first, as the workers left after
# coarsest_workers grow from one per smoother level to 39.
SPLITS = {
    "64^2": """
        1.1.1 2.1.1 3.1.1 4.1.1 5.1.1 6.1.1 7.1.1 7.2.1 8.2.1 9.2.1 10.2.1
        10.2.2 11.3.1 12.3.1 13.3.1 13.3.2 14.3.2 15.3.2 16.4.1 17.4.1 18.4.1
        18.5.1 19.5.1 20.5.1 21.5.1 21.5.2 22.6.1 23.6.1 24.6.1 24.6.2 25.6.2
        26.6.2 27.7.1 27.7.2 28.7.2 29.7.2 30.7.2""",
    "schwarz_mult_2d256": """
        1.1.1.1.1 2.1.1.1.1 3.1.1.1.1 4.1.1.1.1 5.1.1.1.1 6.1.1.1.1 6.2.1.1.1
        7.2.1.1.1 8.2.1.1.1 9.2.1.1.1 10.2.1.1.1 10.3.1.1.1 11.3.1.1.1
        12.3.1.1.1 13.3.1.1.1 14.3.1.1.1 15.3.1.1.1 15.4.1.1.1 16.4.1.1.1
        17.4.1.1.1 18.4.1.1.1 19.4.1.1.1 19.5.1.1.1 20.5.1.1.1 21.5.1.1.1
        22.5.1.1.1 23.5.1.1.1 23.6.1.1.1 24.6.1.1.1 25.6.1.1.1 26.6.1.1.1
        27.6.1.1.1 27.7.1.1.1 28.7.1.1.1 29.7.1.1.1""",
    "bj_taskpar_2d128": """
        1.1 2.1 3.1 4.1 5.1 6.1 6.2 7.2 8.2 9.2 10.2 10.3 11.3 12.3 13.3 14.3
        14.4 15.4 16.4 17.4 18.4 18.5 19.5 20.5 21.5 22.5 22.6 23.6 24.6 25.6
        26.6 26.7 27.7 28.7 29.7 30.7 30.8 31.8""",
    "schwarz_hybrid_3d32": """
        1.1 2.1 3.1 4.1 5.1 6.1 7.1 8.1 9.1 10.1 11.1 12.1 12.2 13.2 14.2 15.2
        16.2 17.2 18.2 19.2 20.2 20.3 21.3 22.3 23.3 24.3 25.3 26.3 27.3 28.3
        28.4 29.4 30.4 31.4 32.4 33.4 34.4 35.4""",
}


def split_hierarchy(name):
    """The 64^2 four-level hierarchy, or a benchmark workload's."""
    if name == "64^2":
        return benchmark_setup(cells=64, l_min=64)[1]
    cfg = load_perfbench("workloads").WORKLOADS[name].run_config()
    return om.build_hierarchy(om.build_problem_spec(cfg), l_min=cfg.l_min)


@pytest.mark.parametrize("name", list(SPLITS))
def test_assign_groups_keeps_its_splits(name):
    # every total from one worker per smoother level plus coarsest_workers
    # up to 40, on the 64^2 four-level hierarchy and the benchmark's
    h = split_hierarchy(name)
    splits = [tuple(map(int, split.split("."))) for split in SPLITS[name].split()]
    smoother_levels = h.n_levels - 1
    for coarsest in (1, 2):
        for total in range(smoother_levels + coarsest, 41):
            expected = splits[total - coarsest - smoother_levels]
            assert om.assign_groups(h, total, coarsest) == expected, (total, coarsest)


@pytest.mark.parametrize("name", ["bj_taskpar_2d128", "schwarz_hybrid_3d32"])
def test_benchmark_workloads_give_every_smoother_level_one_worker(name):
    cfg = load_perfbench("workloads").WORKLOADS[name].run_config()
    h = split_hierarchy(name)
    assert om.assign_groups(h, cfg.workers, cfg.coarsest_workers) == (1, 1)


def test_assign_groups_minimum_gives_one_worker_per_level():
    # at and below one worker per smoother level plus coarsest_workers,
    # no level binds a pool
    _, h, _, _ = benchmark_setup(cells=64, l_min=64)
    for total in (1, 2, 3, 4):
        assert om.assign_groups(h, total) == (1, 1, 1)
    for total in (1, 4, 5):
        assert om.assign_groups(h, total, coarsest_workers=2) == (1, 1, 1)


def test_assign_groups_conserves_workers():
    _, h, _, _ = benchmark_setup(cells=64, l_min=64)
    for total in range(4, 40):
        split = om.assign_groups(h, total)
        assert sum(split) + 1 == total
        assert all(w >= 1 for w in split)
        assert len(split) == h.n_levels - 1


def test_assign_groups_rejects_too_few_workers():
    _, h, _, _ = benchmark_setup(cells=64, l_min=64)
    with pytest.raises(ValueError, match="total_workers"):
        om.assign_groups(h, 0)
    with pytest.raises(ValueError, match="coarsest_workers"):
        om.assign_groups(h, 8, coarsest_workers=0)


def test_assign_groups_single_level_keeps_everything():
    # a single level is solved directly on the calling thread: no pools
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    h = om.build_hierarchy(spec, l_min=10_000)
    assert om.assign_groups(h, 7) == ()


def test_task_parallel_solves_run_on_one_worker():
    # four levels on one worker: no smoother level binds a pool, and each
    # boundary's coarse side runs on a worker thread of its own
    _, h, b, smoothers = benchmark_setup(cells=64, l_min=64)
    assert h.n_levels == 4
    one = om.assign_groups(h, 1)
    x0 = np.zeros(h.finest.n_dofs)
    ref = om.orthomg_solve_additive(h, b, x0, cycle_config("additive_sync", smoothers))
    res = om.async_solve(h, b, x0, cycle_config("additive_task_parallel", smoothers), one,
                         om.SchedulerMode.deterministic(1))
    assert history_records(res) == history_records(ref)
    assert np.array_equal(res.x, ref.x)
    cfg = cycle_config("hybrid", smoothers)
    hybrid = om.hybrid_solve(h, b, x0, cfg, one, om.SchedulerMode.deterministic(1))
    pooled = om.hybrid_solve(h, b, x0, cfg, om.assign_groups(h, 8),
                             om.SchedulerMode.deterministic(1))
    assert hybrid.converged
    assert history_records(hybrid) == history_records(pooled)
    assert np.array_equal(hybrid.x, pooled.x)
    assert coarse_threads() == []


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


def test_message_trace_csv_roundtrip(tmp_path):
    trace = om.MessageTrace()
    trace.record(0, "smoother", om.MSG_SMOOTHER_DONE, 4)
    path = tmp_path / "trace.csv"
    cli.write_trace(path, trace)
    text = path.read_bytes().decode()
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0] == "seconds,level,role,kind,cycle_index"
    assert lines[2:] == [""]
    seconds, level, role, kind, cycle = lines[1].split(",")
    assert float(seconds) == trace.rows[0].seconds
    assert (int(level), role, kind, int(cycle)) == (0, "smoother", "smoother_done", 4)


def test_message_trace_rows_keep_timestamp_order_across_threads():
    # four threads recording at once, switched as often as the interpreter
    # allows: each row is stamped under the lock, so no later row is older
    trace = om.MessageTrace()

    def record_many(level):
        for cycle in range(2000):
            trace.record(level, "smoother", om.MSG_SMOOTHER_DONE, cycle)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=record_many, args=(level,)) for level in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    seconds = [row.seconds for row in trace.rows]
    assert len(seconds) == 8000
    assert seconds == sorted(seconds)


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


@pytest.mark.parametrize("smoother", ["schwarz", "block_jacobi"])
def test_deterministic_single_sweep_matches_additive_sync_at_128(smoother):
    # the hierarchy of the bj_taskpar_2d128 benchmark workload (128^2,
    # l_min 1024, three levels) with the library's default smoothers
    cfg = om.parse_config("problem.cells_per_axis = 128\nhierarchy.l_min = 1024\n"
                          f"smoother.kind = {smoother}\n")
    prepared = cli.prepare_problem(cfg)
    h = prepared.hierarchy
    assert h.n_levels == 3
    cycle = cycle_config("additive_sync", tuple(prepared.smoothers),
                         criteria=om.build_criteria(cfg))
    b = np.random.default_rng(1).standard_normal(h.finest.n_dofs)
    x0 = np.zeros_like(b)
    ref = om.orthomg_solve_additive(h, b, x0, cycle)
    res = om.async_solve(h, b, x0, cycle, om.assign_groups(h, 3),
                         om.SchedulerMode.deterministic(1))
    assert ref.converged and len(ref.history.residuals()) > 20
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


def test_pooled_levels_solve_with_their_set_up_factors(monkeypatch):
    # a level of two or more workers gets a thread pool, not new chunks:
    # no sparse-kernel block is factorized again in the solve
    h, b, smoothers = three_level()
    assert kernel(smoothers[0].smoother) == "sparse"
    cfg = cycle_config("additive_sync", smoothers)
    x0 = np.zeros(h.finest.n_dofs)
    ga = om.assign_groups(h, 4)
    assert ga[0] >= 2
    calls = []
    splu = smoothers_mod.splu

    def counting_splu(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(smoothers_mod, "splu", counting_splu)
    res = om.async_solve(h, b, x0, cfg, ga, om.SchedulerMode.deterministic(1))
    assert calls == []
    assert history_records(res) == history_records(om.orthomg_solve_additive(h, b, x0, cfg))
    three_level()  # the counter does see set-up factorize
    assert calls


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


@pytest.mark.parametrize("sweeps,bound", [(1, 34), (2, 22)])
def test_deterministic_late_coarse_corrections_still_pay(sweeps, bound):
    # Each coarse correction is computed from the residual at the start of
    # its cycle and folded in ``sweeps`` smoother steps later.  On the 128^2
    # disc with 64 Schwarz subdomains the finest level takes 32 cycles at
    # one sweep and 21 at two; with every coarse correction zeroed it takes
    # 48 and 24, what the smoother alone needs.  The realtime companion is
    # acceptance criterion 6.
    _, h, b, smoothers = benchmark_setup(cells=128, l_min=64, n_subdomains=64)
    cfg = cycle_config("additive_task_parallel", smoothers)
    res = om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg, om.assign_groups(h, h.n_levels),
                         om.SchedulerMode.deterministic(sweeps))
    assert res.converged
    assert res.iterations <= bound, res.iterations


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


@pytest.mark.parametrize("smoother", ["schwarz", "block_jacobi"])
def test_realtime_protocol_holds_at_128(smoother):
    # the hierarchy of the bj_taskpar_2d128 benchmark workload (128^2,
    # l_min 1024, three levels) under the realtime scheduler.  On each level
    # boundary every cycle sends each message once, so each kind's cycle
    # indices run 0, 1, 2, ... without a gap or a repeat, across all visits
    # of the coarse level; the trace then closes with one terminate per
    # boundary and nothing after it
    cfg = om.parse_config("problem.cells_per_axis = 128\nhierarchy.l_min = 1024\n"
                          f"smoother.kind = {smoother}\n")
    prepared = cli.prepare_problem(cfg)
    h = prepared.hierarchy
    assert h.n_levels == 3
    cycle = cycle_config("additive_task_parallel", tuple(prepared.smoothers),
                         criteria=om.build_criteria(cfg))
    b = np.random.default_rng(1).standard_normal(h.finest.n_dofs)
    trace = om.MessageTrace()
    res = om.async_solve(h, b, np.zeros_like(b), cycle, om.assign_groups(h, 3),
                         om.SchedulerMode.realtime(), trace=trace)
    assert res.converged
    per_cycle = (om.MSG_UPDATED_RESIDUAL, om.MSG_SMOOTHER_DONE, "restrict", "prolong",
                 om.MSG_COARSE_DONE, om.MSG_COARSE_CORRECTION)
    runs = []
    for boundary in range(h.n_levels - 1):
        rows = [row for row in trace.rows if row.level == boundary]
        cycles = len([row for row in rows if row.kind == om.MSG_UPDATED_RESIDUAL])
        for kind in per_cycle:
            indices = [row.cycle_index for row in rows if row.kind == kind]
            assert indices == list(range(cycles)), (boundary, kind, indices)
        runs.append(cycles)
    assert runs[0] == res.iterations and runs[1] > runs[0], runs
    kinds = [row.kind for row in trace.rows]
    closing = kinds.index(om.MSG_TERMINATE)
    assert kinds[closing:] == [om.MSG_TERMINATE] * (h.n_levels - 1)
    assert sorted((row.level, row.cycle_index) for row in trace.rows[closing:]) == [
        (boundary, cycles - 1) for boundary, cycles in enumerate(runs)]


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


def test_realtime_survives_a_slow_coarse_side(monkeypatch):
    # stale corrections still help; the run converges with the coarse
    # solve artificially delayed
    monkeypatch.setattr(taskpar, "coarsest_solve", slow_coarsest_solve(0.003))
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    res = om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                         om.assign_groups(h, 2), om.SchedulerMode.realtime())
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


def test_watchdog_breaks_a_stalled_exchange(monkeypatch):
    monkeypatch.setattr(taskpar, "coarsest_solve", slow_coarsest_solve(0.5))
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    with pytest.raises(om.ExchangeTimeoutError, match="level boundary 0"):
        om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                       om.assign_groups(h, 2), om.SchedulerMode.deterministic(1),
                       watchdog_seconds=0.05)
    assert coarse_threads() == []


def test_stalled_coarse_task_raises_within_watchdog_and_join_bound(monkeypatch):
    # the coarse task outlives the join bound; the error must not wait for it
    monkeypatch.setattr(taskpar, "JOIN_SECONDS", 0.2)
    monkeypatch.setattr(taskpar, "coarsest_solve", slow_coarsest_solve(1.0))
    h, b, smoothers = two_level()
    cfg = cycle_config("additive_task_parallel", smoothers)
    started = time.perf_counter()
    with pytest.raises(om.ExchangeTimeoutError, match="level boundary 0"):
        om.async_solve(h, b, np.zeros(h.finest.n_dofs), cfg,
                       om.assign_groups(h, 2), om.SchedulerMode.deterministic(1),
                       watchdog_seconds=0.05)
    elapsed = time.perf_counter() - started
    # 0.25 s of slack for the one sweep and thread start-up on a loaded host
    assert elapsed < 0.05 + 0.2 + 0.25
    for thread in coarse_threads():
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def test_stalled_coarse_task_does_not_block_interpreter_exit():
    script = (
        "import sys, numpy as np, orthomg as om\n"
        "from helpers import benchmark_setup, cycle_config, slow_coarsest_solve\n"
        "om.taskpar.JOIN_SECONDS = 0.1\n"
        "om.taskpar.coarsest_solve = slow_coarsest_solve(60.0)\n"
        "_, h, b, sm = benchmark_setup(cells=16, l_min=64)\n"
        "try:\n"
        "    om.async_solve(h, b, np.zeros(h.finest.n_dofs),\n"
        "                   cycle_config('additive_task_parallel', sm),\n"
        "                   om.assign_groups(h, 2), om.SchedulerMode.deterministic(1),\n"
        "                   watchdog_seconds=0.05)\n"
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


def test_hybrid_call_sites_match_the_perfbench_tracer():
    # perfbench/tracing.py rebinds names where taskpar looks them up and
    # tells the hybrid's coarse calls and exchanges apart by the site
    tracing = load_perfbench("tracing")
    h, b, smoothers = three_level()
    owners = (om_config, sync, taskpar, resmin, smoothers_mod, om.LevelSmoother)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert taskpar.spmv is not before[2]["spmv"]
        tracer.attach(h)
        res = om.hybrid_solve(h, b, np.zeros(h.finest.n_dofs), cycle_config("hybrid", smoothers),
                              om.assign_groups(h, 3), om.SchedulerMode.deterministic(1))
    assert [dict(vars(owner)) for owner in owners] == before
    assert res.converged
    driving = [span for span in tracer.spans if span.thread == threading.get_ident()]
    transfers = [span.op for span in driving
                 if span.name == tracing.TRANSFER and span.site == "taskpar"]
    assert transfers == ["restrict", "prolong"] * res.iterations
    exchanges = [span.level for span in driving
                 if span.name == tracing.RM_UPDATE and span.site == "taskpar"]
    assert exchanges and set(exchanges) == {1}


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


def test_hybrid_solves_one_level_directly():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    h = om.build_hierarchy(spec, l_min=10_000)
    _, b = om.assemble_poisson(spec)
    assert h.n_levels == 1
    x0 = np.zeros(h.finest.n_dofs)
    res = om.hybrid_solve(h, b, x0, cycle_config("hybrid", (None,)), om.assign_groups(h, 1))
    ref = om.orthomg_solve_additive(h, b, x0, cycle_config("additive_sync", (None,)))
    assert res.converged
    assert res.iterations == 1
    assert np.array_equal(res.x, ref.x)
