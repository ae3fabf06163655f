"""Synchronous cycle tests: convergence rules, history, both variants."""

import csv
import gc
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import orthomg as om
import orthomg.cli as cli
from orthomg import sync as sync_mod
from helpers import benchmark_setup, cycle_config, load_perfbench, same_setup

# ---------------------------------------------------------------------------
# level-local convergence rules


def test_finest_level_uses_relative_and_absolute_tolerance():
    crit = om.ConvergenceCriteria(eps_rel=1e-8, eps_abs=1e-8)
    assert om.level_converged(0, 0.9e-8, 1.0, 50, crit)
    assert not om.level_converged(0, 1.1e-8, 1.0, 50, crit)
    # absolute floor applies when the initial residual is large
    assert om.level_converged(0, 0.5e-8, 1e6, 1, crit)
    # iteration count never matters on the finest level
    assert not om.level_converged(0, 1.0, 1.0, 10**6, crit)


def test_level_one_stops_at_tenth_or_twenty():
    crit = om.ConvergenceCriteria()
    assert om.level_converged(1, 0.09, 1.0, 3, crit)
    assert not om.level_converged(1, 0.11, 1.0, 3, crit)
    assert not om.level_converged(1, 0.5, 1.0, 19, crit)
    assert om.level_converged(1, 0.5, 1.0, 20, crit)


def test_level_two_stops_at_half_or_two():
    crit = om.ConvergenceCriteria()
    assert om.level_converged(2, 0.49, 1.0, 0, crit)
    assert not om.level_converged(2, 0.51, 1.0, 1, crit)
    assert om.level_converged(2, 0.51, 1.0, 2, crit)


def test_deeper_levels_take_exactly_one_iteration():
    crit = om.ConvergenceCriteria()
    for level in (3, 4, 7):
        assert not om.level_converged(level, 1e-30, 1.0, 0, crit)
        assert om.level_converged(level, 1.0, 1.0, 1, crit)


def test_custom_level_rules():
    crit = om.ConvergenceCriteria(level_rules=((1, om.LevelRule(0.25, 5)),))
    assert om.level_converged(1, 0.2, 1.0, 1, crit)
    assert om.level_converged(1, 0.9, 1.0, 5, crit)
    # level 2 now falls through to the deep rule
    assert om.level_converged(2, 0.9, 1.0, 1, crit)


def test_rule_validation():
    with pytest.raises(ValueError):
        om.LevelRule(0.0, 5)
    with pytest.raises(ValueError):
        om.LevelRule(1.5, 5)
    with pytest.raises(ValueError):
        om.LevelRule(0.5, 0)
    with pytest.raises(ValueError):
        om.ConvergenceCriteria(eps_rel=0.0)
    with pytest.raises(ValueError):
        om.ConvergenceCriteria(level_rules=((0, om.LevelRule(0.5, 1)),))
    crit = om.ConvergenceCriteria()
    with pytest.raises(ValueError):
        crit.rule_for(0)


# ---------------------------------------------------------------------------
# coarsest direct solve


def test_coarsest_solve_is_direct():
    rng = np.random.default_rng(3)
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    a, _ = om.assemble_poisson(spec)
    r = rng.standard_normal(64)
    x = om.coarsest_solve(a, r)
    assert om.norm2(r - om.spmv(a, x)) <= 1e-11 * om.norm2(r)


def test_coarsest_solve_caches_by_matrix_identity():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=4)
    a, _ = om.assemble_poisson(spec)
    before = len(sync_mod._coarse_factor_cache)
    om.coarsest_solve(a, np.ones(16))
    om.coarsest_solve(a, np.zeros(16))
    after = len(sync_mod._coarse_factor_cache)
    assert id(a) in sync_mod._coarse_factor_cache
    assert after == before + 1


def test_coarse_factor_cache_drops_freed_hierarchies():
    # the benchmark builds one hierarchy per sample: each factor must go
    # with its matrix, or the cache would grow the resident memory
    gc.collect()
    before = set(sync_mod._coarse_factor_cache)
    for variant in ("multiplicative_sync", "additive_task_parallel", "hybrid") * 2:
        cfg = om.parse_config(f"problem.cells_per_axis = 16\nhierarchy.l_min = 16\n"
                              f"solver.variant = {variant}\n")
        prepared = cli.prepare_problem(cfg)
        record, _, _ = cli.execute_run(cfg, prepared, variant, 2)
        assert record["converged"]
        assert id(prepared.hierarchy.coarsest.matrix) in sync_mod._coarse_factor_cache
        del prepared
        gc.collect()
        assert set(sync_mod._coarse_factor_cache) == before


def test_coarsest_solve_validates():
    a = scipy.sparse.csr_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        om.coarsest_solve(a, np.ones(2))
    eye = scipy.sparse.eye(3, format="csr")
    with pytest.raises(ValueError, match="length"):
        om.coarsest_solve(eye, np.ones(4))


def test_coarsest_solve_singular_matrix():
    a = scipy.sparse.csr_matrix([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(om.SingularMatrixError):
        om.coarsest_solve(a, np.ones(2))


# ---------------------------------------------------------------------------
# solver behaviour shared by both synchronous variants

SOLVERS = [
    ("additive_sync", om.orthomg_solve_additive),
    ("multiplicative_sync", om.orthomg_solve_multiplicative),
]


@pytest.mark.parametrize("variant,solve", SOLVERS)
def test_zero_rhs_converges_immediately(variant, solve):
    _, h, _, smoothers = benchmark_setup(cells=8, l_min=16)
    cfg = cycle_config(variant, smoothers)
    res = solve(h, np.zeros(h.finest.n_dofs), np.zeros(h.finest.n_dofs), cfg)
    assert res.converged
    assert res.iterations == 0
    assert res.history.kinds() == ["initial", "final"]
    assert np.array_equal(res.x, np.zeros(h.finest.n_dofs))


@pytest.mark.parametrize("variant,solve", SOLVERS)
def test_single_level_hierarchy_takes_one_iteration(variant, solve):
    spec = om.ProblemSpec(dimension=2, cells_per_axis=8)
    h = om.build_hierarchy(spec, l_min=10_000)
    assert h.n_levels == 1
    _, b = om.assemble_poisson(spec)
    cfg = cycle_config(variant, (None,))
    res = solve(h, b, np.zeros(64), cfg)
    assert res.converged
    assert res.iterations == 1
    assert res.history.kinds() == ["initial", "coarse", "final"]


@pytest.mark.parametrize("variant,solve", SOLVERS)
@pytest.mark.parametrize("smoother", ["schwarz", "block_jacobi"])
def test_benchmark_converges(variant, solve, smoother):
    _, h, b, smoothers = benchmark_setup(cells=16, l_min=64, smoother=smoother)
    cfg = cycle_config(variant, smoothers)
    res = solve(h, b, np.zeros(h.finest.n_dofs), cfg)
    assert res.converged
    assert res.residual_norm <= 1e-8 * om.norm2(b)
    # the reported iterate actually has the reported residual
    assert om.norm2(b - om.spmv(h.finest.matrix, res.x)) == pytest.approx(
        res.residual_norm, abs=1e-9 * om.norm2(b)
    )


@pytest.mark.parametrize("variant,solve", SOLVERS)
def test_history_is_monotone_and_well_formed(variant, solve):
    _, h, b, smoothers = benchmark_setup(cells=16, l_min=64)
    cfg = cycle_config(variant, smoothers)
    res = solve(h, b, np.zeros(h.finest.n_dofs), cfg)
    records = list(res.history)
    assert [rec.step for rec in records] == list(range(len(records)))
    assert records[0].kind == "initial"
    assert records[-1].kind == "final"
    for rec in records[1:-1]:
        assert rec.kind in ("smoother", "coarse")
    residuals = res.history.residuals()
    assert np.all(np.diff(residuals) <= 1e-12 * residuals[0])
    per_iteration = 3 if variant == "multiplicative_sync" else 2
    assert len(records) == 2 + per_iteration * res.iterations


def test_multiplicative_needs_no_more_iterations_than_additive():
    _, h, b, smoothers = benchmark_setup(cells=16, l_min=64)
    res_mult = om.orthomg_solve_multiplicative(
        h, b, np.zeros(h.finest.n_dofs), cycle_config("multiplicative_sync", smoothers)
    )
    res_add = om.orthomg_solve_additive(
        h, b, np.zeros(h.finest.n_dofs), cycle_config("additive_sync", smoothers)
    )
    assert res_mult.iterations <= res_add.iterations


@pytest.mark.parametrize("variant,solve", SOLVERS)
def test_solves_are_bitwise_deterministic(variant, solve):
    _, h, b, smoothers = benchmark_setup(cells=8, l_min=16)
    cfg = cycle_config(variant, smoothers)
    first = solve(h, b, np.zeros(h.finest.n_dofs), cfg)
    second = solve(h, b, np.zeros(h.finest.n_dofs), cfg)
    assert np.array_equal(first.x, second.x)
    assert first.residual_norm == second.residual_norm
    assert first.history.residuals().tolist() == second.history.residuals().tolist()


@pytest.mark.parametrize("variant,solve", SOLVERS)
def test_zero_initial_guess_takes_no_residual_product(monkeypatch, variant, solve):
    # every visit below the finest level starts from zero too, so a
    # zero-guess solve leaves sync.spmv only the restrictions and prolongations
    _, h, b, smoothers = benchmark_setup(cells=32, l_min=16)
    assert h.n_levels == 4
    cfg = cycle_config(variant, smoothers)
    calls = []

    def counting_spmv(a, x):
        calls.append("level" if any(a is level.matrix for level in h.levels) else "transfer")
        return om.spmv(a, x)

    monkeypatch.setattr(sync_mod, "spmv", counting_spmv)
    zero = solve(h, b, np.zeros(h.finest.n_dofs), cfg)
    assert calls.count("level") == 0
    assert zero.history.residuals()[0] == om.norm2(b)
    visits = calls.count("transfer") // 2
    assert visits >= zero.iterations >= 1

    calls.clear()
    x0 = np.full(h.finest.n_dofs, 1e-3)
    guessed = solve(h, b, x0, cfg)
    assert calls.count("level") == 1
    assert guessed.history.residuals()[0] == om.norm2(b - om.spmv(h.finest.matrix, x0))


def test_iteration_cap_reports_non_convergence():
    _, h, b, smoothers = benchmark_setup(cells=16, l_min=64)
    cfg = cycle_config("multiplicative_sync", smoothers, max_outer_iterations=1)
    res = om.orthomg_solve_multiplicative(h, b, np.zeros(h.finest.n_dofs), cfg)
    assert not res.converged
    assert res.iterations == 1
    assert res.residual_norm > 1e-8 * om.norm2(b)


def test_input_validation():
    _, h, b, smoothers = benchmark_setup(cells=8, l_min=16)
    cfg = cycle_config("additive_sync", smoothers)
    with pytest.raises(ValueError, match="length"):
        om.orthomg_solve_additive(h, b[:-1], np.zeros(h.finest.n_dofs), cfg)
    with pytest.raises(ValueError, match="smoother"):
        om.orthomg_solve_additive(h, b, np.zeros(h.finest.n_dofs),
                                  cycle_config("additive_sync", ()))
    with pytest.raises(ValueError, match="variant"):
        om.CycleConfig("gauss_seidel", om.ConvergenceCriteria(), smoothers)


# ---------------------------------------------------------------------------
# history serialization (written by the command line)


def test_history_csv_schema(tmp_path):
    _, h, b, smoothers = benchmark_setup(cells=8, l_min=16)
    cfg = cycle_config("multiplicative_sync", smoothers)
    res = om.orthomg_solve_multiplicative(h, b, np.zeros(h.finest.n_dofs), cfg)
    path = tmp_path / "history.csv"
    cli.write_history(path, res.history)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["step", "residual", "type"]
    assert len(rows) == len(res.history) + 1
    # the residual column round-trips exactly
    for row, rec in zip(rows[1:], res.history):
        assert int(row[0]) == rec.step
        assert float(row[1]) == rec.residual
        assert row[2] == rec.kind


def test_history_csv_to_path(tmp_path):
    history = om.ConvergenceHistory()
    history.append("initial", 1.0)
    history.append("final", 0.5)
    path = tmp_path / "history.csv"
    cli.write_history(path, history)
    assert path.read_bytes() == b"step,residual,type\r\n0,1.0,initial\r\n1,0.5,final\r\n"


# ---------------------------------------------------------------------------
# smoother dispatch


def test_level_smoother_dispatches_by_type():
    spec = om.ProblemSpec(dimension=2, cells_per_axis=4)
    a, _ = om.assemble_poisson(spec)
    r = np.ones(16)
    schwarz = om.schwarz_setup(a, om.partition_cells(4, 2, 2, 1), sweeps=2)
    bound = om.LevelSmoother(schwarz)
    assert np.array_equal(bound.apply(a, r), schwarz.apply(a, r))
    bj = om.bj_setup(a, 2, (4, 2))
    assert np.array_equal(om.LevelSmoother(bj).apply(a, r), bj.apply(a, r))

    class Richardson:
        def apply(self, a, r, executor=None):
            return 0.01 * r

    assert np.array_equal(om.LevelSmoother(Richardson()).apply(a, r), 0.01 * r)


# ---------------------------------------------------------------------------
# true error and mesh robustness on the disc problem


TRUE_ERROR_CASES = pytest.mark.parametrize("variant, smoother, extra", [
    ("multiplicative_sync", "schwarz", ""),
    ("additive_task_parallel", "block_jacobi",
     "scheduler.mode = deterministic\nscheduler.sweeps_per_cycle = 2\n"),
])


def disc_config(cells, variant, smoother, extra=""):
    return om.parse_config(
        f"problem.cells_per_axis = {cells}\nhierarchy.l_min = 64\n"
        f"solver.variant = {variant}\nsmoother.kind = {smoother}\n" + extra
    )


def check_against_direct_solve(cells, variant, smoother, extra, lu=None):
    cfg = disc_config(cells, variant, smoother, extra)
    prepared = cli.prepare_problem(cfg)
    a = prepared.hierarchy.finest.matrix
    if lu is None:
        lu = scipy.sparse.linalg.splu(a.tocsc())

    def solve(b):
        record, result, _ = cli.execute_run(cfg, replace(prepared, rhs=b), variant, 1)
        assert record["converged"]
        true_r = b - om.spmv(a, result.x)
        assert om.norm2(true_r) <= cfg.solver.eps_rel * om.norm2(b)
        reference = lu.solve(b)
        assert np.linalg.norm(result.x - reference) <= 1e-5 * np.linalg.norm(reference)
        return om.norm2(result.r - true_r) / om.norm2(b)

    # The residual carried by the minimizer is the true residual of x.  The
    # assembled right-hand side gives a smooth x whose product A x cancels
    # heavily; the two then differ by about 3e-13 of |b| at 128^2 and 1.5e-12
    # at 256^2, so that gap is held to 1e-11 and the tight bound is checked
    # on a standard-normal one, as in perfbench.
    assert solve(prepared.rhs) <= 1e-11
    assert solve(np.random.default_rng(1).standard_normal(a.shape[0])) <= 1e-12


@TRUE_ERROR_CASES
def test_solution_matches_direct_solve_at_128(variant, smoother, extra):
    check_against_direct_solve(128, variant, smoother, extra)


@TRUE_ERROR_CASES
def test_solution_matches_direct_solve_at_256(variant, smoother, extra):
    check_against_direct_solve(256, variant, smoother, extra)


@pytest.mark.parametrize("variant", ["multiplicative_sync", "hybrid"])
def test_solution_matches_direct_solve_in_3d(variant):
    check_against_direct_solve(16, variant, "schwarz", "problem.dimension = 3\n")


@pytest.mark.parametrize("workload", ["schwarz_mult_2d256", "schwarz_hybrid_3d32"])
def test_carried_residual_stays_the_true_one_at_benchmark_scale(workload):
    # The benchmark's configurations with the assembled right-hand side, whose
    # smooth solution makes A x cancel heavily: the carried residual differs
    # from b - A x by about 1.5e-12 of |b| at 256^2 and 2e-14 at 32^3.
    cfg = load_perfbench("workloads").WORKLOADS[workload].run_config()
    prepared = cli.prepare_problem(cfg)
    record, result, _ = cli.execute_run(cfg, prepared, cfg.solver.variant, cfg.workers)
    assert record["converged"]
    b = prepared.rhs
    true_r = b - om.spmv(prepared.hierarchy.finest.matrix, result.x)
    assert om.norm2(result.r - true_r) <= 5e-12 * om.norm2(b)


@pytest.fixture(scope="module")
def direct_3d32():
    # SuperLU's symmetric mode on minimum degree of A + A^T factors the 32^3
    # operator in about 40% of the default's time, with half its fill
    spec = om.build_problem_spec(disc_config(32, "hybrid", "schwarz", "problem.dimension = 3\n"))
    return scipy.sparse.linalg.splu(om.assemble_poisson(spec)[0].tocsc(),
                                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                    options=dict(SymmetricMode=True))


@pytest.mark.parametrize("variant, extra", [("multiplicative_sync", ""),
                                            ("hybrid", "scheduler.mode = deterministic\n")])
def test_solution_matches_direct_solve_at_32_in_3d(direct_3d32, variant, extra):
    check_against_direct_solve(32, variant, "schwarz", "problem.dimension = 3\n" + extra,
                               direct_3d32)


def test_multiplicative_schwarz_iterations_are_mesh_robust():
    # Each correction is computed from the energy-norm residual of the
    # directions so far.  Computed from the 2-norm residual, the count grew
    # about 1.8x per refinement (17/30/55).
    iterations = {}
    for cells in (64, 128, 256):
        cfg = disc_config(cells, "multiplicative_sync", "schwarz")
        prepared = cli.prepare_problem(cfg)
        b = np.random.default_rng(1).standard_normal(prepared.hierarchy.finest.n_dofs)
        record, result, _ = cli.execute_run(cfg, replace(prepared, rhs=b),
                                            "multiplicative_sync", 1)
        assert record["converged"]
        iterations[cells] = result.iterations
    assert max(iterations.values()) - min(iterations.values()) <= 2, iterations


def anisotropic_disc(cells, eps):
    """The 2D disc operator with every last-axis face coefficient scaled by ``eps``.

    The last-axis couplings are scaled, and the diagonal is lowered by
    ``1 - eps`` times those couplings and the last-axis boundary share of
    the row sum (all of it on a last-axis edge, half at a corner).
    """
    spec = om.ProblemSpec(dimension=2, cells_per_axis=cells)
    assembled = om.assemble_poisson(spec)[0]
    a = assembled.tocoo()
    last = np.abs(a.row.astype(np.int64) - a.col) == 1  # lexicographic: stride 1
    n = a.shape[0]
    couplings = np.bincount(a.row[last], weights=-a.data[last], minlength=n)
    first_index, last_index = np.divmod(np.arange(n), cells)
    on_first = (first_index == 0) | (first_index == cells - 1)
    on_last = (last_index == 0) | (last_index == cells - 1)
    share = np.where(on_last, np.where(on_first, 0.5, 1.0), 0.0)
    boundary = share * np.asarray(assembled.sum(axis=1)).ravel()
    data = a.data.copy()
    data[last] *= eps
    diagonal = a.row == a.col
    data[diagonal] -= (1.0 - eps) * (couplings + boundary)[a.row[diagonal]]
    matrix = scipy.sparse.csr_matrix(scipy.sparse.coo_matrix((data, (a.row, a.col)),
                                                                   shape=a.shape))
    return om.hierarchy_from_matrix(matrix, cells, 2, l_min=64)


@pytest.mark.parametrize("smoother,bound", [("schwarz", 18), ("block_jacobi", 17)])
def test_anisotropic_disc_stays_in_the_robust_regime(smoother, bound):
    # multiplicative_sync at 64^2 and eps = 1e-2 took 16 (Schwarz) and 15
    # (block Jacobi) iterations, against 11 and 9 at eps = 1; at eps = 1e-3
    # they take 27 and 30, outside the robust regime (README)
    cfg = disc_config(64, "multiplicative_sync", smoother)
    hierarchy = anisotropic_disc(64, 1e-2)
    b = np.random.default_rng(1).standard_normal(hierarchy.finest.n_dofs)
    prepared = cli.PreparedProblem(om.build_problem_spec(cfg), hierarchy, b,
                                   om.build_level_smoothers(hierarchy, cfg, 2))
    record, result, _ = cli.execute_run(cfg, prepared, "multiplicative_sync", 1)
    assert record["converged"]
    assert om.norm2(b - om.spmv(hierarchy.finest.matrix, result.x)) <= 1e-8 * om.norm2(b)
    assert result.iterations <= bound, result.iterations


def test_two_level_additive_schwarz_keeps_pairs_consistent(monkeypatch):
    # heavily cancelled directions occur in this run; a pair accepted with a
    # drifted image would make the carried residual leave the true one
    spaces = []

    def recording_rm_init(x0, r0):
        spaces.append(om.rm_init(x0, r0))
        return spaces[-1]

    monkeypatch.setattr(sync_mod, "rm_init", recording_rm_init)
    _, h, b, smoothers = benchmark_setup(cells=16, l_min=64)
    assert h.n_levels == 2
    result = om.orthomg_solve_additive(h, b, np.zeros(h.finest.n_dofs),
                                       cycle_config("additive_sync", smoothers))
    assert result.converged
    a = h.finest.matrix
    [space] = spaces
    drift = max(om.norm2(om.spmv(a, z) - w) for z, w in zip(space.directions, space.basis))
    assert drift <= 1e-8
    assert om.norm2(result.r - (b - om.spmv(a, result.x))) <= 1e-12 * om.norm2(b)


@pytest.mark.parametrize("usable", [1, 2, 64])
def test_smoother_pool_threads_are_capped_at_the_usable_cpus(monkeypatch, usable):
    # set-up ignores the usable CPUs; a pool only sizes threads and changes no number
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    single = benchmark_setup(cells=32, n_subdomains=16)[3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)
    _, h, b, smoothers = benchmark_setup(cells=32, n_subdomains=16)
    cfg = cycle_config("multiplicative_sync", smoothers)
    x0 = np.zeros(h.finest.n_dofs)
    serial = om.orthomg_solve_multiplicative(h, b, x0, cfg)
    workers = 3
    with sync_mod._bound_smoothers(cfg, (workers,) * h.n_levels) as bound:
        for smoother, unbound, one_cpu in zip(bound.smoothers[:-1], smoothers, single):
            assert smoother.executor._max_workers == min(workers, usable)
            assert smoother.smoother is unbound.smoother
            assert same_setup(smoother.smoother, one_cpu.smoother)
        pooled = om.orthomg_solve_multiplicative(h, b, x0, bound)
    assert np.array_equal(pooled.x, serial.x)
    assert np.array_equal(pooled.history.residuals(), serial.history.residuals())
