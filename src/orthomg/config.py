"""Run configuration: a flat dotted-key text format, fully validated.

A config file is a sequence of ``key = value`` lines; blank lines and
``#`` comments are ignored.  Keys are dotted paths into the sections
below, every key has a default, and unknown keys are rejected by name
so typos cannot silently fall back to defaults.  ``serialize`` emits a
canonical rendering of every key, and ``digest`` hashes it, so a config
can be round-tripped and identified in benchmark reports.
"""

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .problem import ProblemSpec
from .smoothers import bj_setup, partition_cells, schwarz_setup
from .sync import (
    SOLVER_VARIANTS,
    ConvergenceCriteria,
    LevelRule,
    LevelSmoother,
)
from .taskpar import SchedulerMode

__all__ = [
    "RunConfig",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "config_digest",
    "build_problem_spec",
    "build_criteria",
    "build_level_smoothers",
]


@dataclass
class ProblemSection:
    dimension: int = 2
    cells_per_axis: int = 64
    radius_factor: float = 0.7
    k_inner: float = 1.0
    k_outer: float = 1000.0
    rhs_constant: float = 1.0
    half_width: float = 1.0


@dataclass
class SolverSection:
    variant: str = "multiplicative_sync"
    max_outer_iterations: int = 100
    eps_rel: float = 1e-8
    eps_abs: float = 1e-8
    level1_factor: float = 0.1
    level1_max_iterations: int = 20
    level2_factor: float = 0.5
    level2_max_iterations: int = 2


@dataclass
class SmootherSection:
    kind: str = "schwarz"
    overlap: int = 1
    precision: str = "float64"
    iterations: int = 1
    subdomain_cells: int = 256
    tile: int = 4
    omega: float = 1.0
    sweeps: int = 5


@dataclass
class SchedulerSection:
    mode: str = "realtime"
    sweeps_per_cycle: int = 1


@dataclass
class CompareSection:
    variants: tuple = SOLVER_VARIANTS
    repetitions: int = 3


@dataclass
class ScalingSection:
    workers: tuple = (1, 2, 4)
    sizes: tuple = (64,)
    variants: tuple = ("additive_task_parallel",)


@dataclass
class RunConfig:
    problem: ProblemSection = field(default_factory=ProblemSection)
    solver: SolverSection = field(default_factory=SolverSection)
    smoother: SmootherSection = field(default_factory=SmootherSection)
    scheduler: SchedulerSection = field(default_factory=SchedulerSection)
    compare: CompareSection = field(default_factory=CompareSection)
    scaling: ScalingSection = field(default_factory=ScalingSection)
    l_min: int = 1024
    workers: int = 1
    coarsest_workers: int = 1
    watchdog_seconds: float = 60.0
    output: str = "out"
    history_enabled: bool = True
    trace_enabled: bool = False
    export_matrix: bool = False


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_str_list(text):
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ValueError("expected a comma-separated list, got an empty value")
    return items


def _parse_int_list(text):
    return tuple(int(item) for item in _parse_str_list(text))


def _fmt_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


# key -> (section attribute or None for top level, field name, parser)
_SCHEMA = {
    "problem.dimension": ("problem", "dimension", int),
    "problem.cells_per_axis": ("problem", "cells_per_axis", int),
    "problem.radius_factor": ("problem", "radius_factor", float),
    "problem.k_inner": ("problem", "k_inner", float),
    "problem.k_outer": ("problem", "k_outer", float),
    "problem.rhs_constant": ("problem", "rhs_constant", float),
    "problem.half_width": ("problem", "half_width", float),
    "hierarchy.l_min": (None, "l_min", int),
    "solver.variant": ("solver", "variant", str),
    "solver.max_outer_iterations": ("solver", "max_outer_iterations", int),
    "solver.eps_rel": ("solver", "eps_rel", float),
    "solver.eps_abs": ("solver", "eps_abs", float),
    "solver.level1.factor": ("solver", "level1_factor", float),
    "solver.level1.max_iterations": ("solver", "level1_max_iterations", int),
    "solver.level2.factor": ("solver", "level2_factor", float),
    "solver.level2.max_iterations": ("solver", "level2_max_iterations", int),
    "smoother.kind": ("smoother", "kind", str),
    "smoother.overlap": ("smoother", "overlap", int),
    "smoother.precision": ("smoother", "precision", str),
    "smoother.iterations": ("smoother", "iterations", int),
    "smoother.subdomain_cells": ("smoother", "subdomain_cells", int),
    "smoother.tile": ("smoother", "tile", int),
    "smoother.omega": ("smoother", "omega", float),
    "smoother.sweeps": ("smoother", "sweeps", int),
    "scheduler.mode": ("scheduler", "mode", str),
    "scheduler.sweeps_per_cycle": ("scheduler", "sweeps_per_cycle", int),
    "compare.variants": ("compare", "variants", _parse_str_list),
    "compare.repetitions": ("compare", "repetitions", int),
    "scaling.workers": ("scaling", "workers", _parse_int_list),
    "scaling.sizes": ("scaling", "sizes", _parse_int_list),
    "scaling.variants": ("scaling", "variants", _parse_str_list),
    "workers": (None, "workers", int),
    "coarsest_workers": (None, "coarsest_workers", int),
    "watchdog_seconds": (None, "watchdog_seconds", float),
    "output": (None, "output", str),
    "history.enabled": (None, "history_enabled", _parse_bool),
    "trace.enabled": (None, "trace_enabled", _parse_bool),
    "export.matrix": (None, "export_matrix", _parse_bool),
}


def parse_config(text):
    """Parse and validate config text; raises ValueError with key and line."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        section, name, caster = _SCHEMA[key]
        try:
            parsed = caster(value)
            if caster is float and not math.isfinite(parsed):
                raise ValueError(f"expected a finite number, got {value!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        target = cfg if section is None else getattr(cfg, section)
        setattr(target, name, parsed)
    validate_config(cfg)
    return cfg


def parse_config_file(path):
    with open(path, "r") as handle:
        return parse_config(handle.read())


@contextmanager
def _keyed(prefix, renamed=()):
    """Name the config key in a ``ValueError`` raised by a library type.

    The type's messages open with its field's name; ``prefix`` is the
    key's section, and ``renamed`` pairs a field with its key's name where
    the two differ.
    """
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        for name, key in renamed:
            if message.startswith(name):
                message = key + message[len(name):]
        raise ValueError(prefix + message) from None


def validate_config(cfg):
    """Cross-field validation beyond per-value parsing."""
    build_problem_spec(cfg)  # ProblemSpec carries its own invariants
    if cfg.solver.variant not in SOLVER_VARIANTS:
        raise ValueError(
            f"solver.variant must be one of {SOLVER_VARIANTS}, got {cfg.solver.variant!r}"
        )
    if cfg.smoother.kind not in ("schwarz", "block_jacobi"):
        raise ValueError(
            f"smoother.kind must be 'schwarz' or 'block_jacobi', got {cfg.smoother.kind!r}"
        )
    if cfg.smoother.precision not in ("float64", "float32"):
        raise ValueError(
            f"smoother.precision must be 'float64' or 'float32', got {cfg.smoother.precision!r}"
        )
    with _keyed("scheduler."):
        SchedulerMode(cfg.scheduler.mode, cfg.scheduler.sweeps_per_cycle)
    if cfg.l_min < 4:
        raise ValueError("hierarchy.l_min must be at least 4")
    if cfg.workers < 1:
        raise ValueError("workers must be at least 1")
    if cfg.coarsest_workers < 1:
        raise ValueError("coarsest_workers must be at least 1")
    if cfg.compare.repetitions < 1:
        raise ValueError("compare.repetitions must be at least 1")
    for key, values in (("compare.variants", cfg.compare.variants),
                        ("scaling.variants", cfg.scaling.variants),
                        ("scaling.workers", cfg.scaling.workers),
                        ("scaling.sizes", cfg.scaling.sizes)):
        if not values:
            raise ValueError(f"{key} must list at least one value")
    for variant in cfg.compare.variants + cfg.scaling.variants:
        if variant not in SOLVER_VARIANTS:
            raise ValueError(f"unknown variant {variant!r} in variant list")
    if any(w < 1 for w in cfg.scaling.workers):
        raise ValueError("scaling.workers must be positive")
    for n in cfg.scaling.sizes:
        if n < 4 or n & (n - 1):
            raise ValueError("scaling.sizes entries must be powers of two >= 4")
    if cfg.smoother.overlap < 0:
        raise ValueError("smoother.overlap must be non-negative")
    if cfg.smoother.iterations < 1:
        raise ValueError("smoother.iterations must be at least 1")
    if cfg.smoother.subdomain_cells < 1:
        raise ValueError("smoother.subdomain_cells must be positive")
    tile = cfg.smoother.tile
    if tile < 1 or tile & (tile - 1):
        # cells per axis are powers of two, so only these divide every level
        raise ValueError("smoother.tile must be a power of two")
    if cfg.smoother.sweeps < 1:
        raise ValueError("smoother.sweeps must be at least 1")
    if not 0.0 < cfg.smoother.omega < math.inf:
        raise ValueError("smoother.omega must be positive and finite")
    if cfg.solver.max_outer_iterations < 1:
        raise ValueError("solver.max_outer_iterations must be at least 1")
    if not 0.0 < cfg.watchdog_seconds < math.inf:
        raise ValueError("watchdog_seconds must be positive and finite")
    build_criteria(cfg)  # level rules carry their own invariants
    return cfg


def serialize_config(cfg):
    """Canonical text rendering containing every key."""
    lines = []
    for key, (section, name, _) in _SCHEMA.items():
        target = cfg if section is None else getattr(cfg, section)
        lines.append(f"{key} = {_fmt_value(getattr(target, name))}")
    return "\n".join(lines) + "\n"


def config_digest(cfg):
    """Stable hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def build_problem_spec(cfg, cells_per_axis=None):
    p = cfg.problem
    with _keyed("problem."):
        return ProblemSpec(
            dimension=p.dimension,
            cells_per_axis=cells_per_axis or p.cells_per_axis,
            radius_factor=p.radius_factor,
            k_inner=p.k_inner,
            k_outer=p.k_outer,
            rhs_constant=p.rhs_constant,
            half_width=p.half_width,
        )


def build_criteria(cfg):
    s = cfg.solver
    rules = []
    for level, factor, iterations in ((1, s.level1_factor, s.level1_max_iterations),
                                      (2, s.level2_factor, s.level2_max_iterations)):
        with _keyed(f"solver.level{level}.", renamed=(("reduction_factor", "factor"),)):
            rules.append((level, LevelRule(factor, iterations)))
    with _keyed("solver."):
        return ConvergenceCriteria(eps_rel=s.eps_rel, eps_abs=s.eps_abs,
                                   level_rules=tuple(rules))


def subdomain_count(n_cells, target_cells):
    """Power-of-two subdomain count aiming at ``target_cells`` per core."""
    if n_cells <= target_cells:
        return 1
    return 2 ** int(math.floor(math.log2(n_cells / target_cells)))


def build_level_smoothers(hierarchy, cfg, dimension):
    """Construct one smoother per level above the coarsest (None there)."""
    sm = cfg.smoother
    bound = []
    for level in hierarchy.levels[:-1]:
        if sm.kind == "schwarz":
            count = subdomain_count(level.n_dofs, sm.subdomain_cells)
            part = partition_cells(level.cells_per_axis, dimension, count, sm.overlap)
            smoother = schwarz_setup(level.matrix, part, sm.precision, sm.iterations)
        else:
            tile = min(sm.tile, level.cells_per_axis)
            smoother = bj_setup(
                level.matrix, tile, (level.cells_per_axis, dimension),
                omega=sm.omega, sweeps=sm.sweeps, precision=sm.precision,
            )
        bound.append(LevelSmoother(smoother))
    bound.append(None)
    return bound
