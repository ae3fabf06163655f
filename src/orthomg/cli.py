"""Benchmark command line: single solves, variant comparisons, scaling sweeps.

Exit codes: 0 success, 1 unexpected error, 2 invalid configuration,
3 the solver finished without reaching its tolerance.
"""

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from csv import DictWriter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import (
    RunConfig,
    build_criteria,
    build_level_smoothers,
    build_problem_spec,
    config_digest,
    parse_config_file,
    validate_config,
)
from .problem import assemble_poisson, build_hierarchy
from .sparse import norm2, write_matrix_market, write_vector_market
from .sync import (
    VARIANT_ADDITIVE_SYNC,
    VARIANT_ADDITIVE_TASK_PARALLEL,
    VARIANT_HYBRID,
    VARIANT_MULTIPLICATIVE_SYNC,
    CycleConfig,
    orthomg_solve_additive,
    orthomg_solve_multiplicative,
)
from .taskpar import MessageTrace, SchedulerMode, assign_groups, async_solve, hybrid_solve

__all__ = ["main", "prepare_problem", "execute_run"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_CONFIG = 2
EXIT_NOT_CONVERGED = 3

_SYNC_SOLVERS = {
    VARIANT_ADDITIVE_SYNC: orthomg_solve_additive,
    VARIANT_MULTIPLICATIVE_SYNC: orthomg_solve_multiplicative,
}


@dataclass(eq=False)
class PreparedProblem:
    """Assembled benchmark reused across repetitions of one experiment."""

    spec: object
    hierarchy: object
    rhs: np.ndarray
    smoothers: list


def prepare_problem(cfg, cells_per_axis=None):
    spec = build_problem_spec(cfg, cells_per_axis)
    hierarchy = build_hierarchy(spec, cfg.l_min)
    _, rhs = assemble_poisson(spec)
    smoothers = build_level_smoothers(hierarchy, cfg, spec.dimension)
    return PreparedProblem(spec, hierarchy, rhs, smoothers)


def execute_run(cfg, prepared, variant, workers):
    """One timed solve.  Returns ``(record, result, trace)``.

    The timer wraps only the solver call; assembly, smoother setup, and
    thread-pool creation happen outside it.
    """
    hierarchy = prepared.hierarchy
    spec = prepared.spec
    notes = []
    cpu_count = os.cpu_count() or 1
    x0 = np.zeros(hierarchy.finest.n_dofs)
    task_parallel = variant in (VARIANT_ADDITIVE_TASK_PARALLEL, VARIANT_HYBRID)
    trace = MessageTrace() if (cfg.trace_enabled and task_parallel) else None
    if cfg.trace_enabled and not task_parallel:
        notes.append("message tracing applies to task-parallel variants only")
    cycle_cfg = CycleConfig(
        variant=variant,
        criteria=build_criteria(cfg),
        smoothers=tuple(prepared.smoothers),
        max_outer_iterations=cfg.solver.max_outer_iterations,
        history_enabled=cfg.history_enabled,
    )

    if task_parallel:
        minimum = 1
        if hierarchy.n_levels > 1:
            minimum = (hierarchy.n_levels - 1) + cfg.coarsest_workers
        used = max(workers, minimum)
        if used != workers:
            notes.append(
                f"workers raised from {workers} to {used},"
                f" the minimum for {hierarchy.n_levels} levels"
            )
        if used > cpu_count:
            notes.append(
                f"{used} workers exceed the machine's parallelism"
                f" ({cpu_count} available)"
            )
        assignment = assign_groups(hierarchy, used, cfg.coarsest_workers)
        sched = SchedulerMode(cfg.scheduler.mode, cfg.scheduler.sweeps_per_cycle)
        solve = async_solve if variant == VARIANT_ADDITIVE_TASK_PARALLEL else hybrid_solve
        start = time.perf_counter()
        result = solve(
            hierarchy, prepared.rhs, x0, cycle_cfg, assignment, sched,
            trace=trace, watchdog_seconds=cfg.watchdog_seconds,
        )
        seconds = time.perf_counter() - start
    else:
        used = workers
        if used > cpu_count:
            notes.append(
                f"{used} workers exceed the machine's parallelism"
                f" ({cpu_count} available)"
            )
        pool = None
        try:
            if used >= 2:
                pool = ThreadPoolExecutor(max_workers=used, thread_name_prefix="smoother")
                cycle_cfg = replace(
                    cycle_cfg,
                    smoothers=tuple(
                        s.with_executor(pool, used) if s is not None else None
                        for s in prepared.smoothers
                    ),
                )
            solve = _SYNC_SOLVERS[variant]
            start = time.perf_counter()
            result = solve(hierarchy, prepared.rhs, x0, cycle_cfg)
            seconds = time.perf_counter() - start
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

    initial_norm = norm2(prepared.rhs)
    record = {
        "variant": variant,
        "smoother": cfg.smoother.kind,
        "precision": cfg.smoother.precision,
        "dimension": spec.dimension,
        "cells_per_axis": spec.cells_per_axis,
        "dofs": hierarchy.finest.n_dofs,
        "levels": hierarchy.n_levels,
        "workers_requested": workers,
        "workers_used": used,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "residual_norm": float(result.residual_norm),
        "initial_residual_norm": float(initial_norm),
        "relative_residual": float(result.residual_norm / initial_norm)
        if initial_norm > 0.0
        else 0.0,
        "seconds": seconds,
        "notes": notes,
    }
    return record, result, trace


def _write_csv(path, rows, columns):
    with open(path, "w", newline="") as handle:
        writer = DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def _write_summary(outdir, payload):
    with open(Path(outdir) / "summary.json", "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_solve(cfg):
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    prepared = prepare_problem(cfg)
    record, result, trace = execute_run(cfg, prepared, cfg.solver.variant, cfg.workers)
    record["config_digest"] = config_digest(cfg)
    if cfg.history_enabled:
        result.history.to_csv(outdir / "history.csv")
    if trace is not None:
        trace.to_csv(outdir / "trace.csv")
    if cfg.export_matrix:
        write_matrix_market(prepared.hierarchy.finest.matrix, outdir / "system.mtx")
        write_vector_market(prepared.rhs, outdir / "rhs.mtx")
    _write_summary(outdir, {"command": "solve", **record})
    for note in record["notes"]:
        print(f"note: {note}")
    print(
        f"{record['variant']}: dofs={record['dofs']} levels={record['levels']}"
        f" iterations={record['iterations']} converged={record['converged']}"
        f" residual={record['residual_norm']:.3e} seconds={record['seconds']:.3f}"
    )
    return EXIT_OK if record["converged"] else EXIT_NOT_CONVERGED


_RUN_COLUMNS = [
    "variant", "cells_per_axis", "workers_requested", "workers_used",
    "repetition", "converged", "iterations", "residual_norm", "seconds", "note",
]


def _run_repetitions(cfg, prepared, variant, workers, repetitions, run_rows):
    """Execute ``repetitions`` solves, append raw rows, return the records."""
    records = []
    for rep in range(repetitions):
        try:
            record, _, _ = execute_run(cfg, prepared, variant, workers)
        except Exception as exc:  # a failing variant must not stop the sweep
            run_rows.append({
                "variant": variant,
                "cells_per_axis": prepared.spec.cells_per_axis,
                "workers_requested": workers,
                "workers_used": "",
                "repetition": rep,
                "converged": False,
                "iterations": "",
                "residual_norm": "",
                "seconds": "",
                "note": f"failed: {exc}",
            })
            continue
        records.append(record)
        run_rows.append({
            "variant": variant,
            "cells_per_axis": record["cells_per_axis"],
            "workers_requested": workers,
            "workers_used": record["workers_used"],
            "repetition": rep,
            "converged": record["converged"],
            "iterations": record["iterations"],
            "residual_norm": repr(record["residual_norm"]),
            "seconds": f"{record['seconds']:.6f}",
            "note": "; ".join(record["notes"]),
        })
    return records


def cmd_compare(cfg):
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    prepared = prepare_problem(cfg)
    run_rows = []
    table = []
    for variant in cfg.compare.variants:
        records = _run_repetitions(
            cfg, prepared, variant, cfg.workers, cfg.compare.repetitions, run_rows
        )
        converged = [rec for rec in records if rec["converged"]]
        row = {
            "variant": variant,
            "smoother": cfg.smoother.kind,
            "repetitions": cfg.compare.repetitions,
            "converged_runs": len(converged),
            "mean_iterations": "",
            "mean_seconds": "",
            "min_seconds": "",
            "max_seconds": "",
            "note": "" if records else "all repetitions failed",
        }
        if converged:
            secs = [rec["seconds"] for rec in converged]
            row["mean_iterations"] = f"{statistics.mean(rec['iterations'] for rec in converged):.2f}"
            row["mean_seconds"] = f"{statistics.mean(secs):.6f}"
            row["min_seconds"] = f"{min(secs):.6f}"
            row["max_seconds"] = f"{max(secs):.6f}"
            row["note"] = "; ".join(converged[0]["notes"])
        table.append(row)
        print(
            f"{variant}: converged {row['converged_runs']}/{cfg.compare.repetitions}"
            + (
                f", mean {row['mean_iterations']} iterations"
                f" in {row['mean_seconds']}s"
                if converged
                else ""
            )
        )
    _write_csv(outdir / "runs.csv", run_rows, _RUN_COLUMNS)
    _write_csv(
        outdir / "compare.csv",
        table,
        [
            "variant", "smoother", "repetitions", "converged_runs",
            "mean_iterations", "mean_seconds", "min_seconds", "max_seconds", "note",
        ],
    )
    _write_summary(outdir, {
        "command": "compare",
        "config_digest": config_digest(cfg),
        "dofs": prepared.hierarchy.finest.n_dofs,
        "levels": prepared.hierarchy.n_levels,
        "rows": table,
    })
    all_ok = all(row["converged_runs"] > 0 for row in table)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def cmd_scaling(cfg):
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    run_rows = []
    table = []
    for cells in cfg.scaling.sizes:
        prepared = prepare_problem(cfg, cells_per_axis=cells)
        for variant in cfg.scaling.variants:
            reference = None  # (workers, mean_seconds) at the first worker count
            for workers in cfg.scaling.workers:
                records = _run_repetitions(
                    cfg, prepared, variant, workers, cfg.compare.repetitions, run_rows
                )
                converged = [rec for rec in records if rec["converged"]]
                row = {
                    "variant": variant,
                    "cells_per_axis": cells,
                    "workers_requested": workers,
                    "workers_used": records[0]["workers_used"] if records else "",
                    "mean_seconds": "",
                    "ideal_seconds": "",
                    "speedup": "",
                    "mean_iterations": "",
                    "note": "" if records else "all repetitions failed",
                }
                if converged:
                    mean_secs = statistics.mean(rec["seconds"] for rec in converged)
                    if reference is None:
                        reference = (workers, mean_secs)
                    row["mean_seconds"] = f"{mean_secs:.6f}"
                    row["ideal_seconds"] = f"{reference[1] * reference[0] / workers:.6f}"
                    row["speedup"] = f"{reference[1] / mean_secs:.3f}"
                    row["mean_iterations"] = (
                        f"{statistics.mean(rec['iterations'] for rec in converged):.2f}"
                    )
                    row["note"] = "; ".join(converged[0]["notes"])
                table.append(row)
                print(
                    f"{variant} n={cells} workers={workers}:"
                    + (
                        f" mean {row['mean_seconds']}s"
                        f" (ideal {row['ideal_seconds']}s, speedup {row['speedup']})"
                        if converged
                        else " all repetitions failed"
                    )
                )
    _write_csv(outdir / "runs.csv", run_rows, _RUN_COLUMNS)
    _write_csv(
        outdir / "scaling.csv",
        table,
        [
            "variant", "cells_per_axis", "workers_requested", "workers_used",
            "mean_seconds", "ideal_seconds", "speedup", "mean_iterations", "note",
        ],
    )
    _write_summary(outdir, {
        "command": "scaling",
        "config_digest": config_digest(cfg),
        "rows": table,
    })
    all_ok = all(row["mean_seconds"] != "" for row in table)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def _load_config(args):
    if args.config is not None:
        cfg = parse_config_file(args.config)
    else:
        cfg = validate_config(RunConfig())
    if getattr(args, "workers", None) is not None:
        cfg.workers = args.workers
    env_workers = os.environ.get("ORTHOMG_WORKERS")
    if env_workers is not None:
        cfg.workers = int(env_workers)
    if cfg.workers < 1:
        raise ValueError("workers must be at least 1")
    if args.output is not None:
        cfg.output = args.output
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="orthomg",
        description="Benchmark driver for the orthonormalizing multigrid solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (
        ("solve", cmd_solve, "run one solve and write history + summary"),
        ("compare", cmd_compare, "time every configured variant on one problem"),
        ("scaling", cmd_scaling, "sweep worker counts and problem sizes"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", help="path to a 'key = value' config file")
        cmd.add_argument("--output", help="output directory (overrides the config)")
        cmd.add_argument(
            "--workers", type=int,
            help="worker count (ORTHOMG_WORKERS takes precedence)",
        )
        cmd.set_defaults(func=func)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
    except (OSError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        return args.func(cfg)
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
