"""Benchmark command line: single solves, variant comparisons, scaling sweeps.

Exit codes: 0 success, 1 unexpected error, 2 invalid configuration,
3 the solver finished without reaching its tolerance.
"""

import argparse
import json
import statistics
import sys
import time
import traceback
from csv import DictWriter
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np
import scipy.io

from .config import (
    RunConfig,
    build_criteria,
    build_level_smoothers,
    build_problem_spec,
    config_digest,
    parse_config_file,
    validate_config,
)
from .problem import build_hierarchy
from .sparse import norm2
from .sync import (
    VARIANT_ADDITIVE_SYNC,
    VARIANT_ADDITIVE_TASK_PARALLEL,
    VARIANT_HYBRID,
    CycleConfig,
    _bound_smoothers,
    _usable_cpus,
    orthomg_solve_additive,
    orthomg_solve_multiplicative,
)
from .taskpar import (
    MessageTrace,
    SchedulerMode,
    TraceRow,
    assign_groups,
    async_solve,
    hybrid_solve,
)

__all__ = ["main", "prepare_problem", "execute_run"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_CONFIG = 2
EXIT_NOT_CONVERGED = 3

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
    smoothers = build_level_smoothers(hierarchy, cfg, spec.dimension)
    return PreparedProblem(spec, hierarchy, spec.rhs(), smoothers)


def execute_run(cfg, prepared, variant, workers):
    """One timed solve.  Returns ``(record, result, trace)``.

    The timer wraps only the solver call; assembly, smoother setup, and
    the sync variants' thread pools happen outside it.  ``workers`` sizes
    each level's smoother pool for the sync variants; for the
    task-parallel ones :func:`assign_groups` splits it, less
    ``cfg.coarsest_workers``, into the smoother levels' pools, and the
    coarse side of every level boundary runs on a thread of its own.
    """
    hierarchy = prepared.hierarchy
    spec = prepared.spec
    notes = []
    task_parallel = variant in (VARIANT_ADDITIVE_TASK_PARALLEL, VARIANT_HYBRID)
    trace = MessageTrace() if (cfg.trace_enabled and task_parallel) else None
    if cfg.trace_enabled and not task_parallel:
        notes.append("message tracing applies to task-parallel variants only")
    usable = _usable_cpus()
    if workers > usable:
        notes.append(
            f"{workers} workers exceed the machine's parallelism"
            f" ({usable} available)"
        )
    cycle_cfg = CycleConfig(
        variant=variant,
        criteria=build_criteria(cfg),
        smoothers=tuple(prepared.smoothers),
        max_outer_iterations=cfg.solver.max_outer_iterations,
    )

    if task_parallel:
        solve = partial(
            async_solve if variant == VARIANT_ADDITIVE_TASK_PARALLEL else hybrid_solve,
            smoother_workers=assign_groups(hierarchy, workers, cfg.coarsest_workers),
            sched=SchedulerMode(cfg.scheduler.mode, cfg.scheduler.sweeps_per_cycle),
            trace=trace,
            watchdog_seconds=cfg.watchdog_seconds,
        )
        pool_workers = ()  # the solver binds its own pools
    else:
        solve = (orthomg_solve_additive if variant == VARIANT_ADDITIVE_SYNC
                 else orthomg_solve_multiplicative)
        pool_workers = (workers,) * hierarchy.n_levels
    x0 = np.zeros(hierarchy.finest.n_dofs)
    with _bound_smoothers(cycle_cfg, pool_workers) as bound:
        start = time.perf_counter()
        result = solve(hierarchy, prepared.rhs, x0, bound)
        seconds = time.perf_counter() - start

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
        "iterations": result.iterations,
        "breakdowns": result.breakdowns,
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


def _write_csv(path, rows, columns, lineterminator="\r\n"):
    with open(path, "w", newline="") as handle:
        writer = DictWriter(handle, fieldnames=columns, extrasaction="ignore",
                            lineterminator=lineterminator)
        writer.writeheader()
        writer.writerows(rows)


def _write_summary(outdir, payload):
    with open(Path(outdir) / "summary.json", "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_history(path, history):
    """``history.csv``: one ``step,residual,type`` row per record, CRLF line ends."""
    _write_csv(path,
               ({"step": rec.step, "residual": rec.residual, "type": rec.kind}
                for rec in history), ["step", "residual", "type"])


def write_trace(path, trace):
    """``trace.csv``: one row per :class:`TraceRow` of ``trace``, LF line ends."""
    _write_csv(path, map(asdict, trace.rows),
               [field.name for field in fields(TraceRow)], lineterminator="\n")


def export_system(outdir, matrix, rhs):
    """``system.mtx`` and ``rhs.mtx`` (one column) in Matrix Market format."""
    scipy.io.mmwrite(Path(outdir) / "system.mtx", matrix)
    scipy.io.mmwrite(Path(outdir) / "rhs.mtx", np.asarray(rhs).reshape(-1, 1))


def cmd_solve(cfg):
    outdir = Path(cfg.output)
    prepared = prepare_problem(cfg)
    record, result, trace = execute_run(cfg, prepared, cfg.solver.variant, cfg.workers)
    record["config_digest"] = config_digest(cfg)
    if cfg.history_enabled:
        write_history(outdir / "history.csv", result.history)
    if trace is not None:
        write_trace(outdir / "trace.csv", trace)
    if cfg.export_matrix:
        export_system(outdir, prepared.hierarchy.finest.matrix, prepared.rhs)
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
    "variant", "cells_per_axis", "workers_requested", "repetition",
    "converged", "iterations", "residual_norm", "seconds", "note",
]


def _sweep(cfg, problems, variants, worker_counts, run_rows):
    """Time every variant at every worker count on each prepared problem.

    Each point runs ``cfg.compare.repetitions`` solves and appends one
    ``runs.csv`` row per solve to ``run_rows``; a solve that raises is
    recorded there and left out of the point's records.  Yields
    ``(cells, variant, workers, records)`` as each point completes.
    """
    for prepared in problems:
        cells = prepared.spec.cells_per_axis
        for variant in variants:
            for workers in worker_counts:
                records = []
                for rep in range(cfg.compare.repetitions):
                    row = {"variant": variant, "cells_per_axis": cells,
                           "workers_requested": workers, "repetition": rep}
                    try:
                        record, _, _ = execute_run(cfg, prepared, variant, workers)
                    except Exception as exc:  # a failing variant must not stop the sweep
                        row.update(converged=False, note=f"failed: {exc}")
                    else:
                        records.append(record)
                        row.update(
                            converged=record["converged"],
                            iterations=record["iterations"],
                            residual_norm=repr(record["residual_norm"]),
                            seconds=f"{record['seconds']:.6f}",
                            note="; ".join(record["notes"]),
                        )
                    run_rows.append(row)
                yield cells, variant, workers, records


def _aggregate(records):
    """``(converged, mean_iterations, note)`` of one sweep point's records."""
    converged = [rec for rec in records if rec["converged"]]
    if not converged:
        return converged, "", "" if records else "all repetitions failed"
    mean_iterations = statistics.mean(rec["iterations"] for rec in converged)
    return converged, f"{mean_iterations:.2f}", "; ".join(converged[0]["notes"])


_COMPARE_COLUMNS = [
    "variant", "smoother", "repetitions", "converged_runs",
    "mean_iterations", "mean_seconds", "min_seconds", "max_seconds", "note",
]
_SCALING_COLUMNS = [
    "variant", "cells_per_axis", "workers_requested", "mean_seconds",
    "ideal_seconds", "speedup", "mean_iterations", "note",
]


def _write_reports(cfg, command, run_rows, table, columns, **summary):
    """Write ``runs.csv``, ``<command>.csv`` and the summary; return the exit code."""
    outdir = Path(cfg.output)
    _write_csv(outdir / "runs.csv", run_rows, _RUN_COLUMNS)
    _write_csv(outdir / f"{command}.csv", table, columns)
    _write_summary(outdir, {
        "command": command, "config_digest": config_digest(cfg), **summary, "rows": table,
    })
    all_ok = all(row["mean_seconds"] != "" for row in table)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def cmd_compare(cfg):
    prepared = prepare_problem(cfg)
    repetitions = cfg.compare.repetitions
    run_rows = []
    table = []
    points = _sweep(cfg, (prepared,), cfg.compare.variants, (cfg.workers,), run_rows)
    for _, variant, _, records in points:
        converged, mean_iterations, note = _aggregate(records)
        row = dict.fromkeys(_COMPARE_COLUMNS, "")
        row.update(variant=variant, smoother=cfg.smoother.kind, repetitions=repetitions,
                   converged_runs=len(converged), mean_iterations=mean_iterations, note=note)
        detail = ""
        if converged:
            secs = [rec["seconds"] for rec in converged]
            row.update(mean_seconds=f"{statistics.mean(secs):.6f}",
                       min_seconds=f"{min(secs):.6f}", max_seconds=f"{max(secs):.6f}")
            detail = f", mean {mean_iterations} iterations in {row['mean_seconds']}s"
        table.append(row)
        print(f"{variant}: converged {len(converged)}/{repetitions}{detail}")
    return _write_reports(cfg, "compare", run_rows, table, _COMPARE_COLUMNS,
                          dofs=prepared.hierarchy.finest.n_dofs,
                          levels=prepared.hierarchy.n_levels)


def cmd_scaling(cfg):
    run_rows = []
    table = []
    references = {}  # (cells, variant) -> (workers, mean_seconds) at the first converged count
    problems = (prepare_problem(cfg, cells_per_axis=cells) for cells in cfg.scaling.sizes)
    points = _sweep(cfg, problems, cfg.scaling.variants, cfg.scaling.workers, run_rows)
    for cells, variant, workers, records in points:
        converged, mean_iterations, note = _aggregate(records)
        row = dict.fromkeys(_SCALING_COLUMNS, "")
        row.update(variant=variant, cells_per_axis=cells, workers_requested=workers,
                   mean_iterations=mean_iterations, note=note)
        detail = "all repetitions failed"
        if converged:
            mean_secs = statistics.mean(rec["seconds"] for rec in converged)
            ref_workers, ref_secs = references.setdefault((cells, variant), (workers, mean_secs))
            row.update(mean_seconds=f"{mean_secs:.6f}",
                       ideal_seconds=f"{ref_secs * ref_workers / workers:.6f}",
                       speedup=f"{ref_secs / mean_secs:.3f}")
            detail = (f"mean {row['mean_seconds']}s"
                      f" (ideal {row['ideal_seconds']}s, speedup {row['speedup']})")
        table.append(row)
        print(f"{variant} n={cells} workers={workers}: {detail}")
    return _write_reports(cfg, "scaling", run_rows, table, _SCALING_COLUMNS)


def _load_config(args):
    cfg = parse_config_file(args.config) if args.config is not None else RunConfig()
    if args.workers is not None:
        cfg.workers = args.workers
    if args.output is not None:
        cfg.output = args.output
    return validate_config(cfg)


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
        cmd.add_argument("--workers", type=int, help="worker count (overrides the config)")
        cmd.set_defaults(func=func)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
    except (OSError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        Path(cfg.output).mkdir(parents=True, exist_ok=True)
        return args.func(cfg)
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
