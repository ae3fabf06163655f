"""Config format tests: parsing, validation, canonical round trip, builders."""

import math
from pathlib import Path

import pytest

import orthomg as om
from orthomg import config as config_mod
from orthomg.smoothers import SubdomainSmoother

SAMPLE = """\
# benchmark run
problem.dimension = 2
problem.cells_per_axis = 32
problem.k_outer = 500.0   # jump size

solver.variant = additive_sync
solver.eps_rel = 1e-10
hierarchy.l_min = 64
smoother.kind = block_jacobi
smoother.tile = 8
workers = 4
history.enabled = off
trace.enabled = yes
compare.variants = additive_sync, hybrid
scaling.workers = 1, 2, 4, 8
"""


def test_empty_text_gives_defaults():
    cfg = om.parse_config("")
    assert cfg.problem.cells_per_axis == 64
    assert cfg.solver.variant == "multiplicative_sync"
    assert cfg.smoother.kind == "schwarz"
    assert cfg.l_min == 1024
    assert cfg.workers == 1
    assert cfg.history_enabled is True


def test_parse_reads_values_comments_and_lists():
    cfg = om.parse_config(SAMPLE)
    assert cfg.problem.cells_per_axis == 32
    assert cfg.problem.k_outer == 500.0
    assert cfg.solver.variant == "additive_sync"
    assert cfg.solver.eps_rel == 1e-10
    assert cfg.l_min == 64
    assert cfg.smoother.kind == "block_jacobi"
    assert cfg.smoother.tile == 8
    assert cfg.workers == 4
    assert cfg.history_enabled is False
    assert cfg.trace_enabled is True
    assert cfg.compare.variants == ("additive_sync", "hybrid")
    assert cfg.scaling.workers == (1, 2, 4, 8)


def test_unknown_key_is_rejected_with_line_number():
    with pytest.raises(ValueError, match="line 2: unknown config key 'solver.varaint'"):
        om.parse_config("problem.dimension = 2\nsolver.varaint = hybrid\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ValueError, match="line 1: bad value for 'problem.dimension'"):
        om.parse_config("problem.dimension = two\n")
    with pytest.raises(ValueError, match="line 3: bad value for 'history.enabled'"):
        om.parse_config("\n\nhistory.enabled = maybe\n")


def test_line_without_equals_is_rejected():
    with pytest.raises(ValueError, match="line 1: expected 'key = value'"):
        om.parse_config("problem.dimension: 2\n")


@pytest.mark.parametrize("text,value", [
    ("true", True), ("yes", True), ("1", True), ("on", True),
    ("false", False), ("no", False), ("0", False), ("OFF", False),
])
def test_boolean_spellings(text, value):
    cfg = om.parse_config(f"export.matrix = {text}\n")
    assert cfg.export_matrix is value


def test_parse_config_file_reads_from_disk(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE)
    cfg = om.parse_config_file(path)
    assert cfg.problem.cells_per_axis == 32


# ---------------------------------------------------------------------------
# canonical serialization and digest


def test_serialization_round_trips():
    cfg = om.parse_config(SAMPLE)
    text = om.serialize_config(cfg)
    again = om.parse_config(text)
    assert om.serialize_config(again) == text


def test_serialization_covers_every_key():
    text = om.serialize_config(om.parse_config(""))
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert keys == list(config_mod._SCHEMA)


def test_digest_is_stable_and_sensitive():
    base = om.config_digest(om.parse_config(""))
    assert base == om.config_digest(om.parse_config(""))
    assert len(base) == 16
    int(base, 16)  # hex
    changed = om.config_digest(om.parse_config("workers = 7\n"))
    assert changed != base


# ---------------------------------------------------------------------------
# the sample configs under configs/

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "configs"
SAMPLES = ["benchmark.cfg", "compare.cfg", "scaling.cfg", "task_parallel.cfg"]


@pytest.mark.parametrize("name", SAMPLES)
def test_sample_config_parses_and_round_trips(name):
    assert sorted(path.name for path in SAMPLE_DIR.glob("*.cfg")) == SAMPLES
    path = SAMPLE_DIR / name
    cfg = om.parse_config_file(path)
    text = om.serialize_config(cfg)
    assert om.serialize_config(om.parse_config(text)) == text
    # every setting of the sample survives, in its canonical spelling
    settings = {line.split("#", 1)[0].strip() for line in path.read_text().splitlines()}
    assert settings - {""} <= set(text.splitlines())


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("line,message", [
    ("solver.variant = gauss_seidel", "solver.variant"),
    ("smoother.kind = ilu", "smoother.kind"),
    ("smoother.precision = float16", "smoother.precision"),
    ("scheduler.mode = chaotic", "scheduler.mode"),
    ("hierarchy.l_min = 2", "l_min"),
    ("workers = 0", "workers"),
    ("coarsest_workers = 0", "coarsest_workers"),
    ("smoother.overlap = -1", "overlap"),
    ("smoother.iterations = 0", "iterations"),
    ("smoother.omega = 0.0", "omega"),
    ("smoother.tile = 0", "smoother.tile"),
    ("smoother.tile = 3", "smoother.tile"),
    ("solver.max_outer_iterations = 0", "max_outer_iterations"),
    ("scheduler.sweeps_per_cycle = 0", "sweeps_per_cycle"),
    ("scheduler.sweeps_per_cycle = 2", "deterministic only"),
    ("watchdog_seconds = 0.0", "watchdog_seconds"),
    ("compare.repetitions = 0", "repetitions"),
    ("compare.variants = additive_sync, cg", "unknown variant"),
    ("scaling.variants = pcg", "unknown variant"),
    ("scaling.workers = 1, 0", "scaling.workers"),
    ("scaling.sizes = 48", "powers of two"),
    ("scaling.sizes = 2", "powers of two"),
    ("problem.dimension = 0", "dimension"),
    ("problem.radius_factor = 1.5", "radius"),
])
def test_validation_rejects_bad_settings(line, message):
    with pytest.raises(ValueError, match=message):
        om.parse_config(line + "\n")


# every float key, at a non-finite value: NaN passes a plain ``<= 0`` check
NON_FINITE = [
    "watchdog_seconds = nan", "watchdog_seconds = inf",
    "solver.eps_rel = nan", "solver.eps_abs = nan",
    "problem.k_outer = inf", "problem.half_width = nan",
    "smoother.omega = nan", "smoother.omega = inf",
    "problem.rhs_constant = nan", "problem.rhs_constant = inf",
    "problem.k_inner = -inf", "problem.radius_factor = nan",
    "solver.level1.factor = nan", "solver.level2.factor = inf",
]


@pytest.mark.parametrize("line", NON_FINITE)
def test_non_finite_values_report_key_and_line(line):
    key = line.split(" = ")[0]
    with pytest.raises(ValueError, match=f"line 2: bad value for '{key}': expected a finite"):
        om.parse_config(f"workers = 2\n{line}\n")


@pytest.mark.parametrize("section,name", [
    (None, "watchdog_seconds"), ("smoother", "omega"), ("solver", "eps_rel"),
    ("problem", "half_width"), ("problem", "k_outer"), ("problem", "rhs_constant"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validation_rejects_non_finite_values_built_in_code(section, name, value):
    # a config built in code, as perfbench's workloads build theirs, skips the parser
    cfg = om.RunConfig()
    setattr(cfg if section is None else getattr(cfg, section), name, value)
    with pytest.raises(ValueError, match=name):
        config_mod.validate_config(cfg)


@pytest.mark.parametrize("key", [
    "compare.variants", "scaling.workers", "scaling.sizes", "scaling.variants",
])
def test_empty_list_value_reports_key_and_line(key):
    with pytest.raises(ValueError, match=f"line 2: bad value for '{key}': .*empty"):
        om.parse_config(f"workers = 2\n{key} =\n")
    with pytest.raises(ValueError, match=f"line 1: bad value for '{key}'"):
        om.parse_config(f"{key} = ,\n")


@pytest.mark.parametrize("key", [
    "compare.variants", "scaling.workers", "scaling.sizes", "scaling.variants",
])
def test_validation_rejects_an_empty_list_built_in_code(key):
    # the parser never yields an empty list, but a config built in code can;
    # the scaling sweep would then write a header-only CSV and exit 0
    cfg = om.RunConfig()
    section, name = key.split(".")
    setattr(getattr(cfg, section), name, ())
    with pytest.raises(ValueError, match=f"{key} must list at least one value"):
        config_mod.validate_config(cfg)


def test_validation_accepts_level_rule_overrides():
    cfg = om.parse_config(
        "solver.level1.factor = 0.2\nsolver.level2.max_iterations = 5\n"
    )
    crit = om.build_criteria(cfg)
    assert crit.rule_for(1).reduction_factor == 0.2
    assert crit.rule_for(2).max_iterations == 5


def test_bad_level_rule_is_caught_at_parse_time():
    with pytest.raises(ValueError):
        om.parse_config("solver.level1.factor = 1.5\n")


# ---------------------------------------------------------------------------
# builders


def test_build_problem_spec_with_size_override():
    cfg = om.parse_config("problem.cells_per_axis = 32\nproblem.k_inner = 2.0\n")
    spec = om.build_problem_spec(cfg)
    assert spec.cells_per_axis == 32
    assert spec.k_inner == 2.0
    bigger = om.build_problem_spec(cfg, cells_per_axis=128)
    assert bigger.cells_per_axis == 128
    assert bigger.k_outer == spec.k_outer


def test_build_criteria_uses_solver_tolerances():
    cfg = om.parse_config("solver.eps_rel = 1e-6\nsolver.eps_abs = 1e-9\n")
    crit = om.build_criteria(cfg)
    assert crit.eps_rel == 1e-6
    assert crit.eps_abs == 1e-9
    # deep levels keep the single-visit default
    assert crit.rule_for(3).reduction_factor is None
    assert crit.rule_for(3).max_iterations == 1


@pytest.mark.parametrize("n_cells,target,count", [
    (64, 256, 1),
    (256, 256, 1),
    (512, 256, 2),
    (1024, 256, 4),
    (4096, 256, 16),
    (768, 256, 2),     # floor to a power of two
    (4096, 64, 64),
])
def test_subdomain_count_targets_cells_per_core(n_cells, target, count):
    assert config_mod.subdomain_count(n_cells, target) == count


def test_build_level_smoothers_schwarz():
    cfg = om.parse_config(
        "problem.cells_per_axis = 16\nhierarchy.l_min = 16\n"
        "smoother.subdomain_cells = 64\nsmoother.iterations = 2\n"
    )
    spec = om.build_problem_spec(cfg)
    h = om.build_hierarchy(spec, l_min=cfg.l_min)
    smoothers = om.build_level_smoothers(h, cfg, spec.dimension)
    assert len(smoothers) == h.n_levels
    assert smoothers[-1] is None
    for bound in smoothers[:-1]:
        assert isinstance(bound.smoother, SubdomainSmoother)
        assert bound.smoother.sweeps == 2
        assert bound.smoother.omega == 1.0
    # 256 cells at 64 per subdomain -> 4 subdomains on the finest level
    assert len(smoothers[0].smoother.sets) == 4
    assert len(smoothers[1].smoother.sets) == 1


def test_build_level_smoothers_block_jacobi_clamps_tile():
    cfg = om.parse_config(
        "problem.cells_per_axis = 16\nhierarchy.l_min = 16\n"
        "smoother.kind = block_jacobi\nsmoother.tile = 16\nsmoother.omega = 0.9\n"
    )
    spec = om.build_problem_spec(cfg)
    h = om.build_hierarchy(spec, l_min=cfg.l_min)
    smoothers = om.build_level_smoothers(h, cfg, spec.dimension)
    assert isinstance(smoothers[0].smoother, SubdomainSmoother)
    assert smoothers[0].smoother.omega == 0.9
    assert smoothers[0].smoother.sweeps == 5
    # a 16-wide tile covers the 16x16 finest level with a single block,
    # and shrinks to fit the 8x8 level below it
    assert len(smoothers[0].smoother.sets) == 1
    assert len(smoothers[1].smoother.sets) == 1
    assert smoothers[1].smoother.sets[0].size == 64
