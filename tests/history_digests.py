"""Row counts and sha256 prefixes of 24 deterministic ``history.csv`` files.

Runs ``orthomg solve --workers 4`` through :func:`orthomg.cli.main` on
``configs/benchmark.cfg`` with the history on, for 64^2 and 128^2, both
smoothers, and six variant settings: ``additive_sync``,
``multiplicative_sync``, and ``additive_task_parallel`` and ``hybrid``
under the deterministic scheduler with 1 and 2 sweeps per cycle.  Every
one of these histories is reproducible bit for bit, so two source trees
solve alike when their outputs match line for line:

    PYTHONPATH=src python tests/history_digests.py

``tests/history_digests.txt`` holds the output of the current tree, and
``test_cli.py::test_history_digests_match_the_committed_file`` compares
the two byte for byte: a change that moves any rounding updates the file
and gives the reason.

Each line also carries a digest of the ``type`` column alone.  Where two
trees differ only at rounding, a diff of their outputs shows the same row
counts and kind digests and different digests of the whole file.

Before the histories it prints, for every level of each benchmark
workload's hierarchy (``perfbench/workloads.py``: 2D and 3D), a digest
of the level operator's CSR arrays and how many distinct subdomain or
tile blocks the workload's smoother factorizes there, so a diff of two
outputs also names the operators that changed.

After the histories it prints the staleness response: the finest-level
smoother steps of ``additive_task_parallel`` under the deterministic
scheduler at 1, 2, 4 and 10 sweeps per cycle, on the two problems of
acceptance criterion 6 (64^2 with 4 Schwarz subdomains, 128^2 with 64).

The file name keeps it out of pytest's collection.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from orthomg import build_hierarchy, build_level_smoothers, build_problem_spec, cli
from helpers import benchmark_setup, kernel, load_perfbench, smoother_steps

BASE = Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg"

VARIANTS = [
    ("additive_sync", "solver.variant = additive_sync\n"),
    ("multiplicative_sync", "solver.variant = multiplicative_sync\n"),
    *((f"{variant}-det{sweeps}",
       f"solver.variant = {variant}\nscheduler.mode = deterministic\n"
       f"scheduler.sweeps_per_cycle = {sweeps}\n")
      for variant in ("additive_task_parallel", "hybrid") for sweeps in (1, 2)),
]


def configs():
    """``(name, config text)`` of every run, in a fixed order."""
    base = BASE.read_text()
    for cells in (64, 128):
        for smoother in ("schwarz", "block_jacobi"):
            for name, variant in VARIANTS:
                yield (f"{cells}-{smoother}-{name}",
                       f"{base}\nproblem.cells_per_axis = {cells}\nsmoother.kind = {smoother}\n"
                       f"history.enabled = true\n{variant}")


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def distinct_blocks(smoother):
    """Distinct blocks a built smoother solves with, over its sets.

    Each chunk solves every copy of its piece's blocks, so the sets its
    rows touch are the piece's blocks times their copies, and its rows
    are the piece's cells times the copies.
    """
    ends = np.cumsum([len(s) for s in smoother.sets])
    blocks = 0
    for rows, _, solver in smoother.chunks:
        cells = (solver.inverses.shape[0] * solver.inverses.shape[1]
                 if kernel(smoother) == "dense" else solver.lower.shape[0])
        sets = np.unique(np.searchsorted(ends, rows, side="right")).size
        blocks += sets // (rows.size // cells)
    return f"{blocks}/{len(smoother.sets)}"


def operators():
    """One line per level of each benchmark workload's hierarchy."""
    for workload in load_perfbench("workloads").WORKLOADS.values():
        cfg = workload.run_config()
        hierarchy = build_hierarchy(build_problem_spec(cfg), cfg.l_min)
        bound = build_level_smoothers(hierarchy, cfg, cfg.problem.dimension)
        counts = [distinct_blocks(level.smoother) for level in bound[:-1]] + ["coarsest"]
        for level, blocks in zip(hierarchy.levels, counts):
            m = level.matrix
            arrays = b"".join(x.tobytes() for x in (m.indptr, m.indices, m.data))
            name = f"{workload.name}-l{level.index}"
            yield f"{name:44s} {m.shape[0]:5d} rows  {digest(arrays)}  blocks {blocks}"


def staleness():
    """One line per criterion-6 problem: its smoother steps at each lateness."""
    for cells, subdomains in ((64, 4), (128, 64)):
        setup = benchmark_setup(cells=cells, l_min=64, n_subdomains=subdomains)
        steps = "/".join(str(smoother_steps(setup, sweeps)) for sweeps in (1, 2, 4, 10))
        name = f"staleness-{cells}-schwarz{subdomains}"
        yield f"{name:44s} smoother steps at 1/2/4/10 sweeps per cycle: {steps}"


def main():
    for line in operators():
        print(line)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in configs():
            cfg, out = Path(tmp) / f"{name}.cfg", Path(tmp) / name
            cfg.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(["solve", "--config", str(cfg), "--output", str(out),
                                   "--workers", "4"])
            if status:
                print(f"{name}: orthomg solve exited {status}")
                return status
            data = (out / "history.csv").read_bytes()
            rows = data.count(b"\n") - 1  # minus the header
            kinds = b"\n".join(row.rsplit(b",", 1)[-1] for row in data.splitlines()[1:])
            print(f"{name:44s} {rows:4d} rows  {digest(data)}  kinds {digest(kinds)}")
    for line in staleness():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
