"""Command-line driver tests: artifacts, exit codes, worker precedence."""

import csv
import json

import pytest

import orthomg.cli as cli
from orthomg.sparse import read_matrix_market, read_vector_market

BASE = """\
problem.cells_per_axis = 16
hierarchy.l_min = 64
smoother.subdomain_cells = 64
"""


@pytest.fixture(autouse=True)
def _isolated_workers(monkeypatch):
    monkeypatch.delenv("ORTHOMG_WORKERS", raising=False)


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
    rows = read_rows(out / "history.csv")
    assert list(rows[0]) == ["step", "residual", "type"]
    assert rows[0]["type"] == "initial"
    assert rows[-1]["type"] == "final"
    residuals = [float(r["residual"]) for r in rows]
    assert residuals[-1] <= residuals[0]


def test_solve_skips_history_when_disabled(tmp_path):
    code, out = run(tmp_path, "solve", "history.enabled = false\n")
    assert code == cli.EXIT_OK
    assert not (out / "history.csv").exists()


def test_solve_task_parallel_traces_and_clamps_workers(tmp_path, capsys):
    code, out = run(
        tmp_path, "solve",
        "solver.variant = additive_task_parallel\ntrace.enabled = true\n",
    )
    assert code == cli.EXIT_OK
    summary = read_summary(out)
    # one worker requested, but a two-level run needs smoother + coarse
    assert summary["workers_requested"] == 1
    assert summary["workers_used"] == 2
    assert any("workers raised from 1 to 2" in note for note in summary["notes"])
    printed = capsys.readouterr().out
    assert "note: workers raised from 1 to 2" in printed
    rows = read_rows(out / "trace.csv")
    assert list(rows[0]) == ["seconds", "level", "role", "kind", "cycle_index"]
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
    a = read_matrix_market(out / "system.mtx")
    b = read_vector_market(out / "rhs.mtx")
    assert a.n_rows == a.n_cols == 256
    assert b.shape == (256,)


def test_solve_reports_non_convergence(tmp_path):
    code, out = run(tmp_path, "solve", "solver.max_outer_iterations = 1\n")
    assert code == cli.EXIT_NOT_CONVERGED
    assert read_summary(out)["converged"] is False


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
# configuration errors and worker precedence


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


def test_environment_workers_beat_the_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOMG_WORKERS", "3")
    code, out = run(tmp_path, "solve", flags=("--workers", "2"))
    assert code == cli.EXIT_OK
    summary = read_summary(out)
    assert summary["workers_requested"] == 3
    assert summary["workers_used"] == 3


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


def test_scaling_config_converges_in_every_repetition(tmp_path):
    # realtime runs of this config freeze their residual if the minimizer
    # rejects every direction once its stored pairs have drifted
    code, out = run(
        tmp_path, "scaling",
        "scaling.sizes = 16\nscaling.workers = 2, 4\n"
        "scaling.variants = additive_task_parallel\ncompare.repetitions = 50\n",
    )
    assert code == cli.EXIT_OK
    runs = read_rows(out / "runs.csv")
    assert len(runs) == 100
    stalled = [(row["workers_requested"], row["repetition"], row["note"])
               for row in runs if row["converged"] != "True"]
    assert stalled == []
