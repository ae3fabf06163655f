"""Acceptance gate: nine end-to-end checks on the shipped solver.

Every test records exactly one ``criterion N: PASS/FAIL/SKIP`` verdict;
the conftest hook prints them as a summary section after the run, where
output capture cannot swallow them.  The scaling check (criterion 8)
measures wall time and only makes sense on a machine with at least eight
hardware threads; it is opted in by setting ``RUN_SCALING_ACCEPTANCE=1``.
"""

import functools
import itertools
import math
import os
import sys
import time

import numpy as np
import pytest

import orthomg as om
import orthomg.cli as cli
from helpers import benchmark_setup, cycle_config, random_spd


VERDICTS = []


def _announce(text):
    VERDICTS.append(text)
    print(text, flush=True)  # also lands in the captured-output section


def criterion(number, label):
    """Record one verdict line for the wrapped check, whatever happens."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                _announce(f"criterion {number}: SKIP - {label}: {exc}")
                raise
            except BaseException:
                _announce(f"criterion {number}: FAIL - {label}")
                raise
            suffix = f" ({detail})" if detail else ""
            _announce(f"criterion {number}: PASS - {label}{suffix}")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. the incremental minimizer is the least-squares minimizer


@criterion(1, "incremental updates match dense least squares")
def test_criterion_1_minimization_optimality():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 51))
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        r0 = b - om.spmv(a, x0)
        space = om.rm_init(x0, r0)
        images = []
        for _ in range(5):
            z = rng.standard_normal(n)
            images.append(om.spmv(a, z))
            x, r = om.rm_update(space, a, z)
            w = np.column_stack(images)
            coeffs, *_ = np.linalg.lstsq(w, r0, rcond=None)
            gap = np.linalg.norm(r - (r0 - w @ coeffs))
            worst = max(worst, gap / max(1.0, np.linalg.norm(r0)))
            # the returned pair must stay an exact residual/iterate pair
            drift = np.linalg.norm(r - (b - om.spmv(a, x)))
            worst = max(worst, drift / max(1.0, np.linalg.norm(b)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 1.0
    return f"worst relative gap {worst:.1e} in {elapsed * 1e3:.0f} ms"


# ---------------------------------------------------------------------------
# 2. every cycle variant converges monotonically on the benchmark


@criterion(2, "all variants converge monotonically on the n=64 benchmark")
def test_criterion_2_monotone_convergence(tmp_path):
    started = time.perf_counter()
    combos = list(
        itertools.product(
            ("additive_sync", "multiplicative_sync",
             "additive_task_parallel", "hybrid"),
            ("schwarz", "block_jacobi"),
        )
    )
    for variant, kind in combos:
        workdir = tmp_path / f"{variant}-{kind}"
        config = workdir.with_suffix(".cfg")
        config.write_text(
            "problem.cells_per_axis = 64\n"
            "hierarchy.l_min = 64\n"
            f"solver.variant = {variant}\n"
            f"smoother.kind = {kind}\n"
        )
        code = cli.main(
            ["solve", "--config", str(config), "--output", str(workdir)]
        )
        assert code == cli.EXIT_OK, f"{variant}/{kind} exited {code}"
        with open(workdir / "history.csv", newline="") as handle:
            rows = handle.read().splitlines()[1:]
        residuals = [float(row.split(",")[1]) for row in rows]
        diffs = np.diff(residuals)
        assert (diffs <= 0.0).all(), f"{variant}/{kind} residuals increased"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    return f"{len(combos)} runs in {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 3. overlapping Schwarz beats block-Jacobi and is mesh-robust


def _multiplicative_iterations(n, kind, extra=""):
    cfg = om.parse_config(
        f"problem.cells_per_axis = {n}\n"
        "hierarchy.l_min = 64\n"
        "solver.variant = multiplicative_sync\n"
        f"smoother.kind = {kind}\n" + extra
    )
    prepared = cli.prepare_problem(cfg)
    record, _, _ = cli.execute_run(cfg, prepared, "multiplicative_sync", 1)
    assert record["converged"]
    return record["iterations"]


@criterion(3, "Schwarz needs strictly fewer iterations than block-Jacobi "
              "and is mesh-robust")
def test_criterion_3_smoother_ordering():
    # The mesh-robustness sweep keeps the decomposition fixed in physical
    # space while the grid refines: four subdomains (one per quadrant) and
    # an overlap band 1/32 of the domain width wide.
    schwarz = {}
    for n in (32, 64, 128):
        schwarz[n] = _multiplicative_iterations(
            n, "schwarz",
            f"smoother.subdomain_cells = {n * n // 4}\n"
            f"smoother.overlap = {max(1, n // 32)}\n",
        )
    jacobi = {n: _multiplicative_iterations(n, "block_jacobi")
              for n in (64, 128)}
    for n in (64, 128):
        assert schwarz[n] < jacobi[n], (
            f"n={n}: schwarz {schwarz[n]} not below block-jacobi {jacobi[n]}"
        )
    spread = max(schwarz.values()) - min(schwarz.values())
    assert spread <= 3, f"schwarz iteration spread {spread} over {schwarz}"
    return (f"schwarz {schwarz[32]}/{schwarz[64]}/{schwarz[128]} vs "
            f"block-jacobi {jacobi[64]}/{jacobi[128]}, spread {spread}")


# ---------------------------------------------------------------------------
# 4. deterministic single-sweep scheduling reproduces the additive cycle


@criterion(4, "deterministic task-parallel histories match the additive cycle")
def test_criterion_4_sync_equivalence():
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    for trial in range(50):
        cells = int(rng.choice([8, 16, 32]))
        kwargs = {
            "cells": cells,
            "l_min": cells * cells // 4,  # exactly two levels
            "k_outer": float(10.0 ** rng.uniform(0.5, 3.5)),
        }
        if rng.random() < 0.5:
            kwargs.update(
                smoother="schwarz",
                n_subdomains=int(rng.choice([2, 4])),
                overlap=int(rng.choice([1, 2])),
                smoother_iterations=int(rng.choice([1, 2])),
            )
        else:
            kwargs.update(smoother="block_jacobi", tile=int(rng.choice([2, 4])))
        _, h, b, smoothers = benchmark_setup(**kwargs)
        assert h.n_levels == 2
        x0 = rng.standard_normal(h.finest.n_dofs)

        tasked = om.async_solve(
            h, b, x0, cycle_config("additive_task_parallel", smoothers),
            om.assign_groups(h, 2), om.SchedulerMode.deterministic(1),
        )
        synced = om.orthomg_solve_additive(
            h, b, x0, cycle_config("additive_sync", smoothers)
        )
        a_rec, s_rec = tasked.history.records, synced.history.records
        assert len(a_rec) == len(s_rec), f"trial {trial}: history lengths differ"
        for left, right in zip(a_rec, s_rec):
            assert left.kind == right.kind
            assert abs(left.residual - right.residual) <= 1e-12 * abs(right.residual)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    return f"50 paired runs in {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 5. message protocol invariants under randomized delays


@criterion(5, "exchange protocol invariants hold under randomized delays")
def test_criterion_5_protocol_invariants():
    rng = np.random.default_rng(505)
    per_cycle = ("updated_residual", "smoother_done",
                 "coarse_done", "coarse_correction")
    for trial in range(100):
        cells = int(rng.choice([8, 16]))
        _, h, b, smoothers = benchmark_setup(cells=cells, l_min=cells * cells // 4)
        trace = om.MessageTrace()
        res = om.async_solve(
            h, b, np.zeros(h.finest.n_dofs),
            cycle_config("additive_task_parallel", smoothers),
            om.assign_groups(h, 2), om.SchedulerMode.realtime(),
            trace=trace, watchdog_seconds=30.0,
            coarse_delay_seconds=float(rng.uniform(0.0, 0.004)),
        )
        assert res.converged
        cycles = res.iterations
        for kind in per_cycle:
            indices = [row.cycle_index for row in trace.rows_of_kind(kind)]
            assert indices == list(range(cycles)), (
                f"trial {trial}: {kind} seen for cycles {indices}, "
                f"expected one per cycle over {cycles}"
            )
        kinds = [row.kind for row in trace.rows]
        assert kinds[-1] == "terminate"
        assert "terminate" not in kinds[:-1] or all(
            k == "terminate" for k in kinds[kinds.index("terminate"):]
        ), f"trial {trial}: traffic recorded after termination"
    return "100 randomized realtime runs, no watchdog timeouts"


# ---------------------------------------------------------------------------
# 6. stale coarse corrections do not break convergence


@criterion(6, "convergence survives coarse results arriving 10x late")
def test_criterion_6_staleness_tolerance():
    _, h, b, smoothers = benchmark_setup(cells=64, l_min=64)
    defect = b.copy()
    started = time.perf_counter()
    reps = 20
    for _ in range(reps):
        smoothers[0].apply(h.finest.matrix, defect)
    sweep = (time.perf_counter() - started) / reps

    cfg = cycle_config("additive_task_parallel", smoothers)
    groups = om.assign_groups(h, h.n_levels)

    def run(delay):
        return om.async_solve(
            h, b, np.zeros(h.finest.n_dofs), cfg, groups,
            om.SchedulerMode.realtime(), coarse_delay_seconds=delay,
        )

    def sweeps(result):
        return result.history.kinds().count("smoother")

    prompt = run(0.0)
    stale = run(10.0 * sweep)
    assert prompt.converged and stale.converged
    # a late coarse side packs more sweeps into fewer cycles, so the work
    # bound counts finest-level smoother steps, not cycles
    assert sweeps(stale) <= 2 * sweeps(prompt), (
        f"smoother steps grew {sweeps(prompt)} -> {sweeps(stale)} "
        f"under a {10 * sweep * 1e3:.1f} ms delay"
    )
    return (f"sweep {sweep * 1e3:.1f} ms; smoother steps {sweeps(prompt)} -> "
            f"{sweeps(stale)}, cycles {prompt.iterations} -> {stale.iterations} "
            f"with 10x delay")


# ---------------------------------------------------------------------------
# 7. the grid hierarchy is exactly what the transfer operators imply


def _stencil_oracle(spec):
    n, d, h = spec.cells_per_axis, spec.dimension, spec.spacing

    def coeff(idx):
        x = [-spec.half_width + (i + 0.5) * h for i in idx]
        inside = math.hypot(*x) < spec.interface_radius
        return spec.k_inner if inside else spec.k_outer

    cells = list(itertools.product(range(n), repeat=d))
    index = {c: i for i, c in enumerate(cells)}
    a = np.zeros((n**d, n**d))
    for c in cells:
        i = index[c]
        for axis in range(d):
            for step in (-1, 1):
                nb = list(c)
                nb[axis] += step
                if 0 <= nb[axis] < n:
                    j = index[tuple(nb)]
                    k_face = (2.0 * coeff(c) * coeff(tuple(nb))
                              / (coeff(c) + coeff(tuple(nb))) / h**2)
                    a[i, j] -= k_face
                    a[i, i] += k_face
                else:
                    a[i, i] += 2.0 * coeff(c) / h**2
    return a


@criterion(7, "coarse operators, transfers, and assembly match dense oracles")
def test_criterion_7_hierarchy_consistency():
    checked = 0
    for dimension, cells in ((2, 4), (2, 8), (2, 16), (3, 4), (3, 8)):
        spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells)
        hierarchy = om.build_hierarchy(spec, l_min=4)
        for fine, coarse in zip(hierarchy.levels, hierarchy.levels[1:]):
            r = fine.restriction.to_dense()
            p = fine.prolongation.to_dense()
            oracle = r @ fine.matrix.to_dense() @ p
            gap = np.abs(coarse.matrix.to_dense() - oracle).max()
            assert gap <= 1e-12 * np.abs(oracle).max()
            assert np.array_equal(r @ p, np.eye(coarse.n_dofs))
            checked += 1
    for dimension, cells in ((2, 8), (3, 4)):
        spec = om.ProblemSpec(
            dimension=dimension, cells_per_axis=cells, k_inner=1.0, k_outer=1.0
        )
        a, _ = om.assemble_poisson(spec)
        assert np.array_equal(a.to_dense(), _stencil_oracle(spec))
    return f"{checked} coarse levels against dense triple products"


# ---------------------------------------------------------------------------
# 8. wall-time scaling with worker count (opt-in, needs real cores)


@criterion(8, "task-parallel wall time does not grow with more workers")
def test_criterion_8_worker_scaling():
    if os.environ.get("RUN_SCALING_ACCEPTANCE") != "1":
        pytest.skip("needs >= 8 hardware threads; set RUN_SCALING_ACCEPTANCE=1")
    _, h, b, smoothers = benchmark_setup(
        cells=256, l_min=16384, smoother="block_jacobi"
    )
    assert h.n_levels == 2
    cfg = cycle_config("additive_task_parallel", smoothers)
    x0 = np.zeros(h.finest.n_dofs)

    def mean_seconds(run, reps=3):
        times = []
        for _ in range(reps):
            started = time.perf_counter()
            result = run()
            times.append(time.perf_counter() - started)
            assert result.converged
        return sum(times) / len(times)

    means = {}
    for workers in (1, 2, 4):
        groups = om.GroupAssignment((workers,), 1)
        means[workers] = mean_seconds(
            lambda: om.async_solve(
                h, b, x0, cfg, groups, om.SchedulerMode.realtime()
            )
        )
    additive = mean_seconds(
        lambda: om.orthomg_solve_additive(
            h, b, x0, cycle_config("additive_sync", smoothers)
        )
    )
    assert means[1] >= means[2] >= means[4], f"wall times grew: {means}"
    assert means[4] <= additive, (
        f"{means[4]:.2f} s with 4 workers vs {additive:.2f} s additive"
    )
    return (f"means {means[1]:.2f}/{means[2]:.2f}/{means[4]:.2f} s "
            f"for 1/2/4 workers, additive {additive:.2f} s")


# ---------------------------------------------------------------------------
# 9. float32 local solves barely perturb the converged answer


@criterion(9, "float32 local solves leave solution and cost nearly unchanged")
def test_criterion_9_mixed_precision():
    def solve(precision):
        cfg = om.parse_config(
            "problem.cells_per_axis = 64\n"
            "hierarchy.l_min = 64\n"
            "solver.variant = multiplicative_sync\n"
            "smoother.kind = schwarz\n"
            f"smoother.precision = {precision}\n"
        )
        prepared = cli.prepare_problem(cfg)
        record, result, _ = cli.execute_run(
            cfg, prepared, "multiplicative_sync", 1
        )
        assert record["converged"]
        return record["iterations"], result.x

    iters64, x64 = solve("float64")
    iters32, x32 = solve("float32")
    drift = np.linalg.norm(x32 - x64) / np.linalg.norm(x64)
    assert drift <= 1e-6, f"solutions drifted by {drift:.2e}"
    assert iters32 <= iters64 + 2, f"iterations {iters64} -> {iters32}"
    return f"drift {drift:.1e}, iterations {iters64} -> {iters32}"
