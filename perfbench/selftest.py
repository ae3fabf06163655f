"""Fast self-test of the benchmark itself, on toy versions of the workloads.

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that exact counts repeat across two traced runs with the same seed on
the deterministic workloads, and that a corrupted solution is counted in
``failed_solves`` and turns the exit status non-zero.  Exits 1 on the
first failed check.
"""

import json
import sys

import bootstrap

SEED = 7

# Counts that must repeat exactly when the schedule is deterministic.
EXACT_PREFIXES = (
    "sync.outer_iterations", "sync.level_visits", "sync.coarsest_solve_calls",
    "smoothers.apply_calls", "resmin.rm_update_calls", "resmin.basis_max",
    "resmin.restarts", "sparse.spmv_calls", "sparse.transfer_calls",
    "taskpar.messages", "taskpar.engine_starts",
)


def expect(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    bootstrap.prepare()
    import numpy as np

    import harness
    from workloads import WORKLOADS

    declared = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    for workload in WORKLOADS.values():
        tiny = workload.tiny()
        samples, metrics, _ = harness.run_untraced(tiny, SEED, 0.0)
        emitted = {name: unit for name, (_, unit, _) in metrics.items()}
        expect(emitted == wanted[0], f"{tiny.name}: end-to-end metrics and units as declared")

        runs = [harness.run_traced(tiny, SEED, 0.0)[1] for _ in range(2)]
        emitted = {name: unit for name, (_, unit, _) in runs[0].items()}
        expect(emitted == wanted[1], f"{tiny.name}: per-layer metrics and units as declared")
        if tiny.scheduler == "deterministic" or tiny.variant == "multiplicative_sync":
            exact = [name for name in runs[0] if name.startswith(EXACT_PREFIXES)]
            differing = [n for n in exact if runs[0][n][0] != runs[1][n][0]]
            expect(not differing, f"{tiny.name}: {len(exact)} counts repeat exactly")

        expect(harness.report(tiny, SEED, 0, samples, metrics, {}) == 0,
               f"{tiny.name}: solutions pass every check")
        samples[0].x = samples[0].x + 1e-3 * np.abs(samples[0].x).max()
        expect(harness.report(tiny, SEED, 0, samples, metrics, {}) == 1,
               f"{tiny.name}: a corrupted solution fails and sets the exit status")
    print("selftest passed")


if __name__ == "__main__":
    main()
