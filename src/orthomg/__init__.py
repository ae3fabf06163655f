"""Orthonormalizing multigrid: residual-minimizing cycles, synchronous and
task-parallel, on a discontinuous-coefficient Poisson benchmark."""

from .errors import (
    ExchangeTimeoutError,
    NumericalFailureError,
    SingularMatrixError,
    WorkerError,
)
from .sparse import (
    SparseMatrixCsr,
    norm2,
    read_matrix_market,
    read_vector_market,
    spmv,
    triple_product,
    write_matrix_market,
    write_vector_market,
)
from .problem import (
    GridHierarchy,
    GridLevel,
    ProblemSpec,
    assemble_poisson,
    build_hierarchy,
    build_prolongation,
    build_restriction,
    coefficient_at,
)
from .resmin import SearchSpace, rm_init, rm_update
from .smoothers import (
    Partition,
    SubdomainSmoother,
    bj_setup,
    partition_cells,
    schwarz_setup,
)
from .sync import (
    KIND_COARSE,
    KIND_FINAL,
    KIND_INITIAL,
    KIND_SMOOTHER,
    SOLVER_VARIANTS,
    VARIANT_ADDITIVE_SYNC,
    VARIANT_ADDITIVE_TASK_PARALLEL,
    VARIANT_HYBRID,
    VARIANT_MULTIPLICATIVE_SYNC,
    ConvergenceCriteria,
    ConvergenceHistory,
    CycleConfig,
    LevelRule,
    LevelSmoother,
    SolveResult,
    coarsest_solve,
    level_converged,
    orthomg_solve_additive,
    orthomg_solve_multiplicative,
)
from .taskpar import (
    MESSAGE_KINDS,
    MSG_COARSE_CORRECTION,
    MSG_COARSE_DONE,
    MSG_SMOOTHER_DONE,
    MSG_TERMINATE,
    MSG_UPDATED_RESIDUAL,
    ROLE_COARSE,
    ROLE_SMOOTHER,
    GroupAssignment,
    MessageTrace,
    SchedulerMode,
    assign_groups,
    async_solve,
    hybrid_solve,
)
from .config import (
    RunConfig,
    build_criteria,
    build_level_smoothers,
    build_problem_spec,
    config_digest,
    parse_config,
    parse_config_file,
    serialize_config,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SingularMatrixError", "NumericalFailureError",
    "ExchangeTimeoutError", "WorkerError",
    # sparse kernels
    "SparseMatrixCsr", "spmv", "norm2", "triple_product",
    "write_matrix_market", "read_matrix_market",
    "write_vector_market", "read_vector_market",
    # benchmark problem
    "ProblemSpec", "GridLevel", "GridHierarchy", "coefficient_at",
    "assemble_poisson", "build_prolongation", "build_restriction",
    "build_hierarchy",
    # residual minimization
    "SearchSpace", "rm_init", "rm_update",
    # smoothers
    "Partition", "partition_cells",
    "SubdomainSmoother", "schwarz_setup", "bj_setup",
    # synchronous cycles
    "LevelRule", "ConvergenceCriteria", "level_converged",
    "LevelSmoother", "CycleConfig", "ConvergenceHistory", "SolveResult",
    "coarsest_solve",
    "orthomg_solve_additive", "orthomg_solve_multiplicative",
    "SOLVER_VARIANTS", "VARIANT_ADDITIVE_SYNC", "VARIANT_MULTIPLICATIVE_SYNC",
    "VARIANT_ADDITIVE_TASK_PARALLEL", "VARIANT_HYBRID",
    "KIND_INITIAL", "KIND_SMOOTHER", "KIND_COARSE", "KIND_FINAL",
    # task-parallel engine
    "SchedulerMode", "GroupAssignment", "assign_groups",
    "MessageTrace", "async_solve", "hybrid_solve",
    "MSG_SMOOTHER_DONE", "MSG_COARSE_DONE", "MSG_COARSE_CORRECTION",
    "MSG_UPDATED_RESIDUAL", "MSG_TERMINATE", "MESSAGE_KINDS",
    "ROLE_SMOOTHER", "ROLE_COARSE",
    # configuration
    "RunConfig", "parse_config", "parse_config_file", "serialize_config",
    "config_digest", "build_problem_spec", "build_criteria",
    "build_level_smoothers",
]
