"""Command-line driver tests: artifacts, report shapes, exit codes, worker counts."""

import csv
import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.io

import orthomg as om
import orthomg.cli as cli

BASE = """\
problem.cells_per_axis = 16
hierarchy.l_min = 64
smoother.subdomain_cells = 64
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(BASE + extra)
    return str(path)


def run(tmp_path, command, extra="", flags=()):
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "out"
    code = cli.main([command, "--config", cfg, "--output", str(out), *flags])
    return code, out


def read_summary(outdir):
    with open(outdir / "summary.json") as handle:
        return json.load(handle)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def read_header(path):
    with open(path, newline="") as handle:
        return next(csv.reader(handle))


RUN_COLUMNS = [
    "variant", "cells_per_axis", "workers_requested", "repetition",
    "converged", "iterations", "residual_norm", "seconds", "note",
]


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_history_and_summary(tmp_path):
    code, out = run(tmp_path, "solve")
    assert code == cli.EXIT_OK
    summary = read_summary(out)
    assert summary["command"] == "solve"
    assert summary["variant"] == "multiplicative_sync"
    assert summary["converged"] is True
    assert summary["dofs"] == 256
    assert summary["levels"] == 2
    assert summary["relative_residual"] <= 1e-8
    int(summary["config_digest"], 16)
    assert (out / "history.csv").read_bytes().startswith(b"step,residual,type\r\n")
    rows = read_rows(out / "history.csv")
    assert [int(r["step"]) for r in rows] == list(range(len(rows)))
    assert rows[0]["type"] == "initial"
    assert rows[-1]["type"] == "final"
    residuals = [float(r["residual"]) for r in rows]
    assert residuals[-1] <= residuals[0]
    # the residual column round-trips exactly
    assert residuals[-1] == summary["residual_norm"]


def test_solve_skips_history_when_disabled(tmp_path):
    code, out = run(tmp_path, "solve", "history.enabled = false\n")
    assert code == cli.EXIT_OK
    assert not (out / "history.csv").exists()


def test_solve_task_parallel_traces_on_one_worker(tmp_path, capsys):
    # three levels on one worker: the count sizes the smoother pools only,
    # and every level boundary's coarse side runs on a thread of its own
    code, out = run(
        tmp_path, "solve",
        "problem.cells_per_axis = 32\n"
        "solver.variant = additive_task_parallel\ntrace.enabled = true\n",
        flags=("--workers", "1"),
    )
    assert code == cli.EXIT_OK
    summary = read_summary(out)
    assert summary["levels"] == 3
    assert summary["workers_requested"] == 1
    assert "workers_used" not in summary
    assert summary["notes"] == []
    assert "note:" not in capsys.readouterr().out
    text = (out / "trace.csv").read_bytes()
    assert text.startswith(b"seconds,level,role,kind,cycle_index\n")
    assert b"\r" not in text
    rows = read_rows(out / "trace.csv")
    seconds = [float(r["seconds"]) for r in rows]
    assert seconds == sorted(seconds)
    assert rows[-1]["kind"] == "terminate"


def test_solve_trace_flag_is_inert_for_sync_variants(tmp_path):
    code, out = run(tmp_path, "solve", "trace.enabled = true\n")
    assert code == cli.EXIT_OK
    assert not (out / "trace.csv").exists()
    summary = read_summary(out)
    assert any("task-parallel variants only" in note for note in summary["notes"])


def test_solve_exports_the_linear_system(tmp_path):
    code, out = run(tmp_path, "solve", "export.matrix = true\n")
    assert code == cli.EXIT_OK
    spec = om.build_problem_spec(om.parse_config_file(tmp_path / "run.cfg"))
    matrix, rhs = om.assemble_poisson(spec)
    a = scipy.io.mmread(out / "system.mtx").toarray()
    b = scipy.io.mmread(out / "rhs.mtx")
    assert a == pytest.approx(matrix.toarray(), rel=1e-15, abs=0)
    assert b.shape == (256, 1)
    assert b.ravel() == pytest.approx(rhs, rel=1e-15, abs=0)


def test_solve_reports_non_convergence(tmp_path):
    code, out = run(tmp_path, "solve", "solver.max_outer_iterations = 1\n")
    assert code == cli.EXIT_NOT_CONVERGED
    assert read_summary(out)["converged"] is False


def test_solve_summary_keys(tmp_path):
    code, out = run(tmp_path, "solve")
    assert code == cli.EXIT_OK
    assert set(read_summary(out)) == {
        "command", "config_digest", "variant", "smoother", "precision",
        "dimension", "cells_per_axis", "dofs", "levels", "workers_requested",
        "iterations", "breakdowns", "converged", "residual_norm",
        "initial_residual_norm", "relative_residual", "seconds", "notes",
    }


@pytest.mark.parametrize("smoother", ["schwarz", "block_jacobi"])
@pytest.mark.parametrize("variant", ["additive_sync", "multiplicative_sync"])
def test_sync_smoother_pool_changes_no_number(tmp_path, variant, smoother):
    extra = f"solver.variant = {variant}\nsmoother.kind = {smoother}\n"
    histories = []
    for workers in ("1", "4"):
        (tmp_path / workers).mkdir()
        code, out = run(tmp_path / workers, "solve", extra, flags=("--workers", workers))
        assert code == cli.EXIT_OK
        assert read_summary(out)["workers_requested"] == int(workers)
        histories.append((out / "history.csv").read_bytes())
    assert histories[0] == histories[1]


def test_oversubscription_note_counts_the_usable_cpus(tmp_path, monkeypatch):
    # the note counts the CPUs the process may run on, as the smoother
    # pools do, not every CPU of the machine
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    notes = {}
    for workers in ("3", "4"):
        (tmp_path / workers).mkdir()
        code, out = run(tmp_path / workers, "solve", flags=("--workers", workers))
        assert code == cli.EXIT_OK
        notes[workers] = read_summary(out)["notes"]
    assert not any("exceed" in note for note in notes["3"])
    assert "4 workers exceed the machine's parallelism (3 available)" in notes["4"]


@pytest.mark.parametrize("variant", ["additive_task_parallel", "hybrid"])
def test_solve_task_parallel_on_one_level(tmp_path, variant):
    code, out = run(tmp_path, "solve", f"hierarchy.l_min = 1024\nsolver.variant = {variant}\n")
    assert code == cli.EXIT_OK
    summary = read_summary(out)
    assert summary["levels"] == 1
    assert summary["converged"] is True
    assert summary["iterations"] == 1


def test_solve_deterministic_task_parallel_matches_additive(tmp_path):
    _, out_sync = run(tmp_path, "solve", "solver.variant = additive_sync\n")
    sync_summary = read_summary(out_sync)
    cfg = write_config(
        tmp_path,
        "solver.variant = additive_task_parallel\nscheduler.mode = deterministic\n",
    )
    out_async = tmp_path / "async_out"
    code = cli.main(["solve", "--config", cfg, "--output", str(out_async)])
    assert code == cli.EXIT_OK
    async_summary = read_summary(out_async)
    assert async_summary["iterations"] == sync_summary["iterations"]
    assert async_summary["residual_norm"] == sync_summary["residual_norm"]


# ---------------------------------------------------------------------------
# configuration errors and worker counts


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = cli.main(["solve", "--config", str(tmp_path / "absent.cfg")])
    assert code == cli.EXIT_BAD_CONFIG
    assert "invalid configuration" in capsys.readouterr().err


def test_unknown_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("solver.variannt = hybrid\n")
    code = cli.main(["solve", "--config", str(cfg)])
    assert code == cli.EXIT_BAD_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_zero_workers_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["solve", "--config", cfg, "--workers", "0"]) == cli.EXIT_BAD_CONFIG
    assert "workers must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "watchdog_seconds = nan", "watchdog_seconds = inf",
    "solver.eps_rel = nan", "solver.eps_abs = nan",
    "problem.k_outer = inf", "problem.half_width = nan",
    "smoother.omega = nan", "smoother.omega = inf",
    "problem.rhs_constant = nan", "problem.rhs_constant = inf",
])
def test_non_finite_setting_is_a_config_error(tmp_path, capsys, line):
    code, out = run(tmp_path, "solve", line + "\n")
    assert code == cli.EXIT_BAD_CONFIG
    assert f"bad value for '{line.split(' = ')[0]}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("solver.level1.factor = 1.5", "solver.level1.factor must lie in (0, 1]"),
    ("problem.k_outer = -1", "problem.k_outer must be positive and finite"),
    ("problem.radius_factor = 1.5", "problem.radius_factor must lie strictly between 0 and 1"),
])
def test_range_error_names_the_config_key(tmp_path, capsys, line, message):
    code, out = run(tmp_path, "solve", line + "\n")
    assert code == cli.EXIT_BAD_CONFIG
    assert f"invalid configuration: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_workers_flag_overrides_the_config(tmp_path):
    code, out = run(tmp_path, "solve", "workers = 4\n", flags=("--workers", "2"))
    assert code == cli.EXIT_OK
    assert read_summary(out)["workers_requested"] == 2


def test_command_is_required():
    with pytest.raises(SystemExit):
        cli.main([])


# ---------------------------------------------------------------------------
# compare


def test_compare_times_every_variant(tmp_path):
    code, out = run(
        tmp_path, "compare",
        "compare.variants = additive_sync, multiplicative_sync\n"
        "compare.repetitions = 2\n",
    )
    assert code == cli.EXIT_OK
    table = read_rows(out / "compare.csv")
    assert [row["variant"] for row in table] == ["additive_sync", "multiplicative_sync"]
    for row in table:
        assert row["converged_runs"] == "2"
        assert float(row["min_seconds"]) <= float(row["max_seconds"])
        assert float(row["mean_iterations"]) >= 1.0
    runs = read_rows(out / "runs.csv")
    assert len(runs) == 4
    assert [r["repetition"] for r in runs] == ["0", "1", "0", "1"]
    summary = read_summary(out)
    assert summary["command"] == "compare"
    assert len(summary["rows"]) == 2


def test_compare_report_shapes(tmp_path):
    code, out = run(
        tmp_path, "compare",
        "compare.variants = additive_sync, hybrid\ncompare.repetitions = 1\n",
    )
    assert code == cli.EXIT_OK
    columns = [
        "variant", "smoother", "repetitions", "converged_runs",
        "mean_iterations", "mean_seconds", "min_seconds", "max_seconds", "note",
    ]
    assert read_header(out / "runs.csv") == RUN_COLUMNS
    assert read_header(out / "compare.csv") == columns
    summary = read_summary(out)
    assert set(summary) == {"command", "config_digest", "dofs", "levels", "rows"}
    assert [set(row) for row in summary["rows"]] == [set(columns)] * 2


def test_compare_flags_variants_that_never_converge(tmp_path):
    code, out = run(
        tmp_path, "compare",
        "compare.variants = additive_sync\ncompare.repetitions = 1\n"
        "solver.max_outer_iterations = 1\n",
    )
    assert code == cli.EXIT_NOT_CONVERGED
    table = read_rows(out / "compare.csv")
    assert table[0]["converged_runs"] == "0"
    assert table[0]["mean_seconds"] == ""


def test_compare_records_crashed_repetitions(tmp_path, monkeypatch):
    real = cli.execute_run

    def flaky(cfg, prepared, variant, workers):
        if variant == "hybrid":
            raise RuntimeError("boom")
        return real(cfg, prepared, variant, workers)

    monkeypatch.setattr(cli, "execute_run", flaky)
    code, out = run(
        tmp_path, "compare",
        "compare.variants = additive_sync, hybrid\ncompare.repetitions = 1\n",
    )
    assert code == cli.EXIT_NOT_CONVERGED
    runs = read_rows(out / "runs.csv")
    crashed = [r for r in runs if r["variant"] == "hybrid"]
    assert crashed[0]["note"] == "failed: boom"
    assert crashed[0]["converged"] == "False"
    table = read_rows(out / "compare.csv")
    hybrid_row = next(r for r in table if r["variant"] == "hybrid")
    assert hybrid_row["note"] == "all repetitions failed"


# ---------------------------------------------------------------------------
# scaling


def test_scaling_sweeps_workers_and_reports_speedup(tmp_path):
    code, out = run(
        tmp_path, "scaling",
        "scaling.sizes = 16\nscaling.workers = 2, 4\n"
        "scaling.variants = additive_task_parallel\ncompare.repetitions = 1\n",
    )
    assert code == cli.EXIT_OK
    table = read_rows(out / "scaling.csv")
    assert len(table) == 2
    first, second = table
    assert first["workers_requested"] == "2"
    # the first converged worker count anchors the ideal-scaling line
    assert first["ideal_seconds"] == first["mean_seconds"]
    assert first["speedup"] == "1.000"
    expected_ideal = float(first["mean_seconds"]) * 2 / 4
    assert float(second["ideal_seconds"]) == pytest.approx(expected_ideal, rel=1e-3)
    assert float(second["speedup"]) > 0.0
    summary = read_summary(out)
    assert summary["command"] == "scaling"
    assert len(summary["rows"]) == 2
    runs = read_rows(out / "runs.csv")
    assert len(runs) == 2


def test_scaling_report_shapes(tmp_path):
    code, out = run(
        tmp_path, "scaling",
        "scaling.sizes = 8, 16\nscaling.workers = 1, 2\n"
        "scaling.variants = additive_sync, additive_task_parallel\n"
        "compare.repetitions = 1\n",
    )
    assert code == cli.EXIT_OK
    columns = [
        "variant", "cells_per_axis", "workers_requested", "mean_seconds",
        "ideal_seconds", "speedup", "mean_iterations", "note",
    ]
    assert read_header(out / "runs.csv") == RUN_COLUMNS
    assert read_header(out / "scaling.csv") == columns
    summary = read_summary(out)
    assert set(summary) == {"command", "config_digest", "rows"}
    assert [set(row) for row in summary["rows"]] == [set(columns)] * 8
    runs = read_rows(out / "runs.csv")
    assert [(r["cells_per_axis"], r["variant"], r["workers_requested"]) for r in runs] == [
        (n, v, w)
        for n in ("8", "16")
        for v in ("additive_sync", "additive_task_parallel")
        for w in ("1", "2")
    ]


def test_scaling_config_converges_in_every_repetition(tmp_path):
    # realtime runs of this config freeze their residual if the minimizer
    # keeps near-dependent directions and its stored pairs drift apart
    code, out = run(
        tmp_path, "scaling",
        "scaling.sizes = 16\nscaling.workers = 2, 4\n"
        "scaling.variants = additive_task_parallel\ncompare.repetitions = 150\n",
    )
    assert code == cli.EXIT_OK
    runs = read_rows(out / "runs.csv")
    assert len(runs) == 300
    stalled = [(row["workers_requested"], row["repetition"], row["note"])
               for row in runs if row["converged"] != "True"]
    assert stalled == []


def test_history_digests_match_the_committed_file():
    # the level operators, block counts, deterministic histories and
    # staleness response that tests/history_digests.py prints, byte for byte
    # against tests/history_digests.txt: a change that moves any rounding
    # updates the file and gives the reason
    tests = Path(__file__).resolve().parent
    path = [str(Path(cli.__file__).parents[1]), str(tests)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, str(tests / "history_digests.py")], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    expected = (tests / "history_digests.txt").read_text()
    assert done.stdout == expected, "".join(difflib.unified_diff(
        expected.splitlines(True), done.stdout.splitlines(True), "committed", "printed"))
