"""Set-up, solve, correctness checks and end-to-end metrics of one workload.

Each benchmark run is one fresh process, as a CLI solve is.  Inside it a
tiny solve of the same variant runs first, untimed, so lazy imports and
first-call costs stay out of every timer.  Every timed sample then builds
its own hierarchy: ``sync`` caches the coarsest factorization weakly by
matrix, so a fresh hierarchy pays it again, inside ``setup_s``.  Each
sample solves the next right-hand side drawn from the run's seed, so a
run's medians average over right-hand sides instead of resting on one.
"""

import ctypes
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse
import scipy.sparse.linalg

from orthomg import (
    CycleConfig,
    MessageTrace,
    SchedulerMode,
    assemble_poisson,
    assign_groups,
    async_solve,
    build_criteria,
    build_hierarchy,
    build_level_smoothers,
    build_problem_spec,
    coarsest_solve,
    config_digest,
    hybrid_solve,
    orthomg_solve_multiplicative,
)

import tracing
from workloads import EPS_REL

OUT_DIR = Path(__file__).resolve().parent / "out"

# Bound on the relative 2-norm error against the direct solve.  The worst
# error seen on the three workloads at eps_rel = 1e-8 is about 6e-7.
ERROR_BOUND = 1e-5

# Set-ups per run, at least: setup_s is the median over them.
MIN_SETUPS = 5

SOLVERS = {
    "multiplicative_sync": orthomg_solve_multiplicative,
    "additive_task_parallel": async_solve,
    "hybrid": hybrid_solve,
}


@dataclass(eq=False)
class Setup:
    """Everything a solve needs besides its vectors, and each phase's time."""

    hierarchy: object
    smoothers: list
    phases: dict

    @property
    def seconds(self):
        return sum(self.phases.values())


@dataclass(eq=False)
class Sample:
    """One timed set-up plus solve, with what the checks need."""

    setup_s: float
    solve_s: float
    b: np.ndarray
    x: np.ndarray
    converged: bool
    iterations: int
    history: np.ndarray


def set_up(cfg, on_hierarchy=None):
    """Coarsen, assemble, build smoothers and factor the coarsest level.

    ``on_hierarchy`` is called with the hierarchy before the smoothers are
    built, so a tracer can resolve levels during smoother set-up.
    """
    spec = build_problem_spec(cfg)
    phases = {}

    def timed(phase, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        phases[phase] = time.perf_counter() - start
        return out

    hierarchy = timed("problem.hierarchy_s", build_hierarchy, spec, cfg.l_min)
    if on_hierarchy is not None:
        on_hierarchy(hierarchy)
    # Assembled again as the CLI does for its right-hand side; the benchmark
    # draws its own, so only the time is kept.
    timed("problem.assemble_s", assemble_poisson, spec)
    smoothers = timed("smoothers.setup_s", build_level_smoothers, hierarchy, cfg, spec.dimension)
    coarsest = hierarchy.coarsest.matrix
    timed("sync.coarsest_factor_s", coarsest_solve, coarsest, np.zeros(coarsest.n_rows))
    return Setup(hierarchy, smoothers, phases)


def solver_call(cfg, setup, b, trace=None):
    """The workload's public solver bound to its arguments, ready to time."""
    hierarchy = setup.hierarchy
    cycle = CycleConfig(
        variant=cfg.solver.variant,
        criteria=build_criteria(cfg),
        smoothers=tuple(setup.smoothers),
        max_outer_iterations=cfg.solver.max_outer_iterations,
    )
    x0 = np.zeros_like(b)
    solver = SOLVERS[cfg.solver.variant]
    if solver is orthomg_solve_multiplicative:
        return lambda: solver(hierarchy, b, x0, cycle)
    assignment = assign_groups(hierarchy, cfg.workers, cfg.coarsest_workers)
    sched = SchedulerMode(cfg.scheduler.mode, cfg.scheduler.sweeps_per_cycle)
    return lambda: solver(
        hierarchy, b, x0, cycle, assignment, sched,
        trace=trace, watchdog_seconds=cfg.watchdog_seconds,
    )


def timed_solve(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def make_sample(setup_s, b, result, solve_s):
    return Sample(
        setup_s, solve_s, b, result.x, bool(result.converged), result.iterations,
        result.history.residuals(),
    )


def right_hand_sides(cfg, seed):
    """Endless stream of standard-normal right-hand sides drawn from ``seed``."""
    n = cfg.problem.cells_per_axis ** cfg.problem.dimension
    rng = np.random.default_rng(seed)
    while True:
        yield rng.standard_normal(n)


def warm_up(workload):
    """Untimed solve of the workload's toy version (loads lazy code paths)."""
    cfg = workload.tiny().run_config()
    setup = set_up(cfg)
    solver_call(cfg, setup, next(right_hand_sides(cfg, 0)))()


def measure(cfg, seed, seconds):
    """Set up and solve until ``seconds`` have passed (once at least).

    Only one hierarchy is alive at a time.  The peak resident memory, in
    MiB, is read after the first set-up plus solve, as a CLI solve would
    see it: later set-ups can only add memory the allocator kept from
    earlier ones.  Returns the samples, every set-up time and that peak.
    """
    samples = []
    start = time.perf_counter()
    for b in right_hand_sides(cfg, seed):
        if samples and time.perf_counter() - start >= seconds:
            break
        setup = set_up(cfg)
        result, solve_s = timed_solve(solver_call(cfg, setup, b))
        samples.append(make_sample(setup.seconds, b, result, solve_s))
        del setup, result
        if len(samples) == 1:
            peak = peak_rss_mib()
    setups = [s.setup_s for s in samples]
    while len(setups) < MIN_SETUPS:
        setups.append(set_up(cfg).seconds)
    return samples, setups, peak


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_solver(cfg):
    """The finest matrix and its direct SuperLU factorization, built outside timing.

    SuperLU is what ``scipy.sparse.linalg.spsolve`` calls; symmetric mode
    with a minimum-degree ordering of A + A^T suits this SPD matrix and is
    about 2.5x faster than spsolve's default ordering on the 3D workload.
    Factoring once serves every right-hand side of the run.
    """
    matrix, _ = assemble_poisson(build_problem_spec(cfg))
    lu = scipy.sparse.linalg.splu(
        _scipy_matrix(matrix).tocsc(), permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0, options={"SymmetricMode": True},
    )
    return matrix, lu


def _scipy_matrix(m):
    return scipy.sparse.csr_matrix(
        (m.values, m.col_indices, m.row_offsets), shape=(m.n_rows, m.n_cols)
    )


def check(sample, matrix, lu):
    """``(reasons the sample fails, relative residual, relative error)``."""
    b = sample.b
    reference = lu.solve(b)
    reasons = []
    if not sample.converged:
        reasons.append("not converged")
    if np.any(np.diff(sample.history) > 0.0):
        reasons.append("finest residual history increases")
    residual = np.linalg.norm(b - _scipy_matrix(matrix) @ sample.x) / np.linalg.norm(b)
    if not residual <= EPS_REL:
        reasons.append(f"relative residual {residual:.3e} > {EPS_REL:g}")
    error = np.linalg.norm(sample.x - reference) / np.linalg.norm(reference)
    if not error <= ERROR_BOUND:
        reasons.append(f"relative error {error:.3e} > {ERROR_BOUND:g}")
    return reasons, residual, error


def failures(samples, matrix, lu):
    """``(count, messages, worst residual, worst error)`` over all samples."""
    failed, messages, worst_residual, worst_error = 0, [], 0.0, 0.0
    for i, sample in enumerate(samples):
        reasons, residual, error = check(sample, matrix, lu)
        failed += bool(reasons)
        messages += [f"solve {i}: {reason}" for reason in reasons]
        worst_residual = max(worst_residual, residual)
        worst_error = max(worst_error, error)
    return failed, messages, worst_residual, worst_error


def end_to_end(samples, setups, peak_mib):
    """End-to-end metrics: ``name -> (value, unit, samples)``."""
    solve = [s.solve_s for s in samples]
    total = [s.setup_s + s.solve_s for s in samples]
    return {
        "time_to_solution_s": (statistics.median(total), "s", total),
        "setup_s": (statistics.median(setups), "s", setups),
        "solve_s": (statistics.median(solve), "s", solve),
        "peak_rss_mb": (peak_mib, "MiB", [peak_mib]),
    }


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None.

    The k-th largest of n values has k - 1 values above it; with ten above
    it sits at percentile 100 (n - 10) / n.
    """
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def environment(workload, cfg):
    """What a reader needs to compare runs across machines."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "workers": workload.workers,
        "config_digest": config_digest(cfg),
    }


def blas_threads():
    """Thread count each bundled OpenBLAS reports, by library file name."""
    found = {}
    for module in (np, scipy):
        libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[path.name] = fn()
                    break
    return found or os.environ.get("OPENBLAS_NUM_THREADS")


def run_untraced(workload, seed, seconds):
    cfg = workload.run_config()
    warm_up(workload)
    samples, setups, peak = measure(cfg, seed, seconds)
    metrics = end_to_end(samples, setups, peak)
    return samples, metrics, environment(workload, cfg)


def run_traced(workload, seed, seconds):
    cfg = workload.run_config()
    warm_up(workload)
    # Every pair solves the seed's first right-hand side, so exact counts
    # repeat across runs with one seed.
    b = next(right_hand_sides(cfg, seed))
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        setup = set_up(cfg)
        result, solve_s = timed_solve(solver_call(cfg, setup, b))
        untraced.append(make_sample(setup.seconds, b, result, solve_s))
        del setup, result

        tracer, messages = tracing.Tracer(), MessageTrace()
        with tracing.instrumented(tracer):
            setup = set_up(cfg, on_hierarchy=tracer.attach)
            call = solver_call(cfg, setup, b, trace=messages)
            result = tracer.call(call, (), tracing.SOLVE)
        layer = tracing.layer_metrics(tracer, setup, result, messages.rows)
        traced.append(make_sample(setup.seconds, b, result, layer["trace.solve_s"][0]))
        layers.append(layer)
        del setup, result

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_csv(OUT_DIR / f"spans-{workload.name}-seed{seed}.csv")
    metrics = {
        name: (statistics.median(layer[name][0] for layer in layers), unit, len(layers))
        for name, (_, unit) in layers[0].items()
    }
    untraced_solve = statistics.median(s.solve_s for s in untraced)
    metrics["trace.untraced_solve_s"] = (untraced_solve, "s", len(untraced))
    metrics["trace.overhead_ratio"] = (
        metrics["trace.solve_s"][0] / untraced_solve, "ratio", len(layers))
    env = environment(workload, cfg)
    env["solver_threads"] = tracing.solver_threads(tracer)
    return untraced + traced, metrics, env


def report(workload, seed, trace, samples, metrics, env):
    """Check every solution, print the metrics, return the exit status."""
    matrix, lu = reference_solver(workload.run_config())
    failed, messages, residual, error = failures(samples, matrix, lu)

    print(f"workload {workload.name} seed {seed} trace {trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"iterations {sorted({s.iterations for s in samples})}")
    out = {}
    for name, (value, unit, counted) in metrics.items():
        line = f"{name} = {value!r} {unit}"
        if isinstance(counted, list):
            high = tail(counted)
            high = f"p{high[0]:.0f} = {high[1]!r}" if high else "no tail (< 11 samples)"
            values = " ".join(f"{v:.4g}" for v in counted)
            line += f"  [median; {high}; samples {len(counted)}: {values}]"
        else:
            line += f"  [median of {counted} traced solve(s)]"
        print(line)
        out[name] = {"value": value, "unit": unit}
    print(f"failed_solves = {failed} / {len(samples)}  [worst relative residual {residual:.3e}"
          f" (limit {EPS_REL:g}), worst relative error {error:.3e} (limit {ERROR_BOUND:g})]")
    for message in messages:
        print(f"FAILED {message}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": out}))
    return 1 if failed else 0
