"""The benchmark's workloads: the paper's disc problem at three operating points.

Every workload solves the coefficient-jump Poisson problem (k_outer = 1000
outside the disc or ball, k_inner = 1 inside) to eps_rel = 1e-8.  The
right-hand side is a standard-normal vector drawn from the run's seed and
the initial guess is zero; the solver sees nothing else.  The ``why`` of each
workload is the one-line reason recorded in ``BENCHMARK.json``.
"""

from dataclasses import dataclass, replace

from orthomg.config import RunConfig, validate_config

K_OUTER = 1000.0
EPS_REL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dimension: int
    cells_per_axis: int
    variant: str
    smoother: str
    l_min: int
    workers: int
    scheduler: str = "realtime"
    sweeps_per_cycle: int = 1

    def run_config(self):
        """The workload as an orthomg run configuration (library defaults elsewhere)."""
        cfg = RunConfig()
        cfg.problem.dimension = self.dimension
        cfg.problem.cells_per_axis = self.cells_per_axis
        cfg.problem.k_outer = K_OUTER
        cfg.solver.variant = self.variant
        cfg.solver.eps_rel = EPS_REL
        cfg.smoother.kind = self.smoother
        cfg.scheduler.mode = self.scheduler
        cfg.scheduler.sweeps_per_cycle = self.sweeps_per_cycle
        cfg.l_min = self.l_min
        cfg.workers = self.workers
        return validate_config(cfg)

    def tiny(self):
        """Same variant, smoother and scheduler on a three-level toy grid."""
        return replace(self, cells_per_axis=32 if self.dimension == 2 else 16, l_min=64)


WORKLOADS = {
    w.name: w
    for w in (
        # Schwarz with 256-cell subdomains, overlap 1 (library defaults).
        Workload(
            name="schwarz_mult_2d256",
            why="ROADMAP baseline, single-threaded: subdomain LU solves and rm_update "
            "dominate; the task-parallel engine is bypassed",
            dimension=2,
            cells_per_axis=256,
            variant="multiplicative_sync",
            smoother="schwarz",
            l_min=64,
            workers=1,
        ),
        # Block-Jacobi with 4-cell tiles and 5 sweeps (library defaults).
        Workload(
            name="bj_taskpar_2d128",
            why="task-parallel exchange and 1024-dof coarse solve with block-Jacobi "
            "tiles; deterministic scheduling pins the history",
            dimension=2,
            cells_per_axis=128,
            variant="additive_task_parallel",
            smoother="block_jacobi",
            l_min=1024,
            workers=3,
            scheduler="deterministic",
            sweeps_per_cycle=2,
        ),
        Workload(
            name="schwarz_hybrid_3d32",
            why="setup- and memory-heavy 3D Schwarz; hybrid starts a task-parallel "
            "engine on every finest iteration",
            dimension=3,
            cells_per_axis=32,
            variant="hybrid",
            smoother="schwarz",
            l_min=512,
            workers=3,
        ),
    )
}
