"""Iterations and solve time of each variant setting on the benchmark problems.

For the problem, hierarchy and smoother of every workload in
``perfbench/workloads.py``, runs six settings through
:func:`orthomg.cli.execute_run` on one standard-normal right-hand side
drawn from seed 1, and prints per setting the iterations of the solves and
the median of their solve times:

    PYTHONPATH=src python tests/variant_costs.py

The settings are ``multiplicative_sync`` and ``additive_sync`` on one
worker, and ``hybrid`` (realtime; deterministic, 1 sweep per cycle) and
``additive_task_parallel`` (realtime; deterministic, 2 sweeps) on three.
Times depend on the host and its load; compare them within one run only.

The file name keeps it out of pytest's collection.
"""

import dataclasses
import statistics
import sys

import numpy as np

from orthomg import cli
from helpers import load_perfbench

REPEATS = 5

# (label, variant, scheduler mode, sweeps per cycle, workers)
SETTINGS = [
    ("mult. sync", "multiplicative_sync", "realtime", 1, 1),
    ("additive sync", "additive_sync", "realtime", 1, 1),
    ("hybrid realtime", "hybrid", "realtime", 1, 3),
    ("hybrid det. 1 sweep", "hybrid", "deterministic", 1, 3),
    ("task-par. realtime", "additive_task_parallel", "realtime", 1, 3),
    ("task-par. det. 2 sweeps", "additive_task_parallel", "deterministic", 2, 3),
]


def main():
    for workload in load_perfbench("workloads").WORKLOADS.values():
        cfg = workload.run_config()
        prepared = cli.prepare_problem(cfg)
        rhs = np.random.default_rng(1).standard_normal(prepared.hierarchy.finest.n_dofs)
        prepared = dataclasses.replace(prepared, rhs=rhs)
        for label, variant, mode, sweeps, workers in SETTINGS:
            cfg.scheduler.mode, cfg.scheduler.sweeps_per_cycle = mode, sweeps
            records = [cli.execute_run(cfg, prepared, variant, workers)[0]
                       for _ in range(REPEATS)]
            if not all(rec["converged"] for rec in records):
                print(f"{workload.name} {label}: a solve did not converge")
                return 1
            iterations = sorted({rec["iterations"] for rec in records})
            its = str(iterations[0]) if len(iterations) == 1 else \
                f"{iterations[0]}-{iterations[-1]}"
            ms = 1e3 * statistics.median(rec["seconds"] for rec in records)
            print(f"{workload.name:20s} {label:24s} iterations {its:6s} median {ms:7.0f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
