import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_model_csv
from dwropt import cli, fem
from dwropt.cli import (
    ExperimentConfig,
    build_domain,
    build_initial_model,
    build_optimizer_config,
    build_problem,
    compare_duals,
    estimate_once,
    main,
    oracle_reference,
    parse_quantity,
    read_config,
    run_scenario,
)
from dwropt.errors import ConfigurationError, ResourceCapError
from dwropt.fem import Functional, Problem, apply_functional, effective_operator
from dwropt.field import CoefficientField
from dwropt.mesh import Domain, build_hierarchy

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY = """
[domain]
origin = 0 0
extent = 1 1

[mesh]
delta = 2^-2
H = 2^-4
h = 2^-5
dof_cap = 500000

[field]
kind = lognormal
gamma = 0.05
nx = 32
ny = 32
corr_len = 0.02
seed = 7

[functional]
kind = domain_integral

[problem]
source = 1.0
dirichlet = left right bottom top
reference = yes

[initial_model]
upscaler = geometric
scale = 1.35

[optimizer]
alpha = auto
alpha_scale = 1e-4
lambda_factor = 1.0
jacobian = patch
dual = enhanced
depth = 1
max_cycles = 6
stop_fraction = 0.05
"""


# TINY with a laminate field resolved at h = 2^-6 and a coarser [mesh] fine,
# a key that is gone: the reference and the full dual use the micro grid
COARSE_FINE = TINY.replace("h = 2^-5", "h = 2^-6\nfine = 2^-5").replace(
    "kind = lognormal", "kind = laminate\naxis = 0\na = 1\nb = 4\nlayer_width = 2^-6"
)

# advection-diffusion on the 1 x 2 rectangle: cell-confined eddies plus drift
ADVECTIVE = """
[domain]
origin = 0 0
extent = 1 2
left = gamma_d split 1.0 gamma_c
right = gamma_a
bottom = gamma_e
top = gamma_b

[mesh]
delta = 1/4
H = 2^-4
h = 2^-5

[field]
kind = constant
gamma = 0.1

[advection]
eddy_max = 100.0
drift_max = 1.5
seed = 21

[functional]
kind = boundary_integral
marker = gamma_b

[problem]
dirichlet = gamma_d
neumann = gamma_e:1.0
reference = yes

[initial_model]
upscaler = constant
value = 0.1

[optimizer]
max_cycles = 1
"""


def tiny_config():
    return ExperimentConfig.from_ini_text(TINY)


def test_parse_quantity_forms():
    assert parse_quantity("0.125") == 0.125
    assert parse_quantity("1/8") == 0.125
    assert parse_quantity("2^-3") == 0.125
    # a leading sign applies to the whole power, as in Python's -2**-2
    assert parse_quantity("-2^-2") == -0.25
    assert parse_quantity("-2^2") == -4.0
    assert parse_quantity("-2^0.5") == -(2.0**0.5)
    assert parse_quantity("+2^2") == 4.0
    with pytest.raises(ConfigurationError):
        parse_quantity("eight")
    with pytest.raises(ConfigurationError):
        parse_quantity("--2^2")


@pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
def test_non_finite_quantity_exits_as_configuration_error(tmp_path, text):
    with pytest.raises(ConfigurationError):
        parse_quantity(text)
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY.replace("scale = 1.35", f"scale = {text}"))
    for command in ("upscale", "optimize"):
        assert main([command, str(cfg_path), "--out", str(tmp_path / command)]) == 2


def test_initial_model_scale_overflow_exits_as_configuration_error(tmp_path):
    # 1e308 is a finite quantity, but the scaled model tensors overflow
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY.replace("scale = 1.35", "scale = 1e308"))
    for command in ("upscale", "optimize"):
        assert main([command, str(cfg_path), "--out", str(tmp_path / command)]) == 2


def test_config_round_trip():
    cfg = tiny_config()
    again = ExperimentConfig.from_ini_text(cfg.to_ini_text())
    assert again == cfg


def test_domain_with_marker_splits():
    cfg = ExperimentConfig.from_ini_text(
        """
[domain]
origin = 0 0
extent = 1 2
left = gamma_d split 1.0 gamma_c
right = gamma_a
bottom = gamma_e
top = gamma_b
"""
    )
    dom = build_domain(read_config(cfg))
    assert list(dom.markers_at("left", [0.25, 1.25])) == ["gamma_d", "gamma_c"]


def test_build_problem_and_model():
    cfg = tiny_config()
    problem, raster = build_problem(read_config(cfg))
    assert problem.hierarchy.n_sampling == 16
    assert raster is not None
    model = build_initial_model(cfg, problem)
    assert model.provenance.startswith("geometric")
    opt = build_optimizer_config(read_config(cfg))
    assert opt.dual_mode == "enhanced"
    assert problem.hierarchy.fine_grid.spacing == (2.0**-5, 2.0**-5)


def test_oracle_manufactured_solution():
    # A = Id and f matching u = sin(pi x) sin(pi y): the QoI converges to
    # the analytic integral 4 / pi^2 at second order
    domain = Domain()

    def source(points):
        return (
            2.0
            * np.pi**2
            * np.sin(np.pi * points[:, 0])
            * np.sin(np.pi * points[:, 1])
        )

    exact = 4.0 / np.pi**2
    errors = {}
    for h in (2.0**-4, 2.0**-5):
        problem = Problem(
            hierarchy=build_hierarchy(domain, 0.5, 0.25, h),
            coefficient=CoefficientField.constant(1.0),
            functional=Functional.domain_integral(),
            source=source,
        )
        _, j_ref = oracle_reference(problem)
        errors[h] = abs(j_ref - exact)
    assert errors[2.0**-4] <= 1e-2 * exact
    assert 3.3 <= errors[2.0**-4] / errors[2.0**-5] <= 4.7


def test_oracle_constant_coefficient_matches_effective():
    from dwropt.fem import effective_operator, problem_rhs, solve
    from dwropt.upscale import constant_model

    domain = Domain()
    hierarchy = build_hierarchy(domain, 0.5, 0.25, 2.0**-4)
    problem = Problem(
        hierarchy=hierarchy,
        coefficient=CoefficientField.constant(2.0),
        functional=Functional.domain_integral(),
        source=1.0,
    )
    _, j_ref = oracle_reference(problem)
    model = constant_model(hierarchy, 2.0)
    fine_space = problem.fine_space()
    U = solve(
        effective_operator(problem, model, fine_space), problem_rhs(problem, fine_space)
    )
    assert np.isclose(j_ref, apply_functional(problem.functional, U), rtol=1e-12)


def test_oracle_dof_cap():
    problem, raster = build_problem(read_config(tiny_config()))
    with pytest.raises(ResourceCapError):
        oracle_reference(problem, dof_cap=100)


def test_oracle_refuses_under_resolved_raster():
    # a micro grid of 2^-4 under the 2^-5 pixels of TINY's raster
    cfg = tiny_config()
    cfg.set("mesh", "h", "2^-4")
    problem, raster = build_problem(read_config(cfg))
    with pytest.raises(ConfigurationError, match="coarser than the raster"):
        oracle_reference(problem, raster=raster)


def test_run_scenario_outputs_and_determinism(tmp_path):
    cfg = tiny_config()
    report1, state1 = run_scenario(cfg, tmp_path / "a")
    report2, state2 = run_scenario(cfg, tmp_path / "b")
    h1 = (tmp_path / "a" / "history.csv").read_bytes()
    h2 = (tmp_path / "b" / "history.csv").read_bytes()
    assert h1 == h2
    for name in report1.manifest:
        assert (tmp_path / "a" / name).exists()
    echo = ExperimentConfig.from_ini_text(report1.config_echo)
    assert echo == cfg
    assert report1.j_reference is not None


def test_run_scenario_seed_override_changes_history(tmp_path):
    cfg = tiny_config()
    _, state1 = run_scenario(cfg, tmp_path / "a")
    _, state2 = run_scenario(cfg, tmp_path / "b", seed_override=123)
    assert state1.history_csv_text() != state2.history_csv_text()


def test_run_scenario_max_cycles_zero(tmp_path):
    cfg = tiny_config()
    cfg.set("optimizer", "max_cycles", 0)
    report, state = run_scenario(cfg, tmp_path)
    assert state.cycles == 1
    lines = (tmp_path / "history.csv").read_text().splitlines()
    assert len(lines) == 2


def test_estimate_once(tmp_path):
    cfg = tiny_config()
    err = estimate_once(cfg, tmp_path)
    assert (tmp_path / "breakdown.csv").exists()
    assert err.i_eff is not None
    assert abs(err.theta_H) <= 1e-10


def test_compare_duals_constant_coefficient(tmp_path):
    cfg = tiny_config()
    cfg.sections["field"] = {"kind": "constant", "gamma": "2.0"}
    cfg.sections["initial_model"] = {"upscaler": "constant", "value": "2.0"}
    cfg.sections["problem"]["reference"] = "no"
    states = compare_duals(cfg, tmp_path)
    # exact model: both modes stop immediately with a zero estimator
    for state in states.values():
        assert state.cycles == 1
        assert state.history[0]["theta_tilde"] == 0.0
    text = (tmp_path / "compare_duals.csv").read_text()
    assert text.splitlines()[0].startswith("cycle,")


def test_compare_duals_lognormal_same_order(tmp_path):
    cfg = tiny_config()
    states = compare_duals(cfg, tmp_path)
    err_full = states["full"].history[-1]["abs_error"]
    err_enh = states["enhanced"].history[-1]["abs_error"]
    assert err_full > 0 and err_enh > 0
    ratio = max(err_full, err_enh) / min(err_full, err_enh)
    assert ratio <= 2.0


@pytest.mark.parametrize(
    "old, new",
    [
        ("max_cycles = 6", "max_cycles = three"),
        ("max_cycles = 6", "max_cycles = -2"),
        ("depth = 1", "depth = one"),
        ("depth = 1", "depth = 1.5"),
        ("dof_cap = 500000", "dof_cap = lots"),
        ("seed = 7", "seed = x"),
        ("source = 1.0", "source = 1.0\nneumann = bottom"),
        ("h = 2^-5", "h = 2^-5\nfine = 0"),
        ("H = 2^-4", "H = 0"),
        ("h = 2^-5", "h = 0"),
        ("delta = 2^-2", "delta = 0"),
        ("extent = 1 1", "extent = 1"),
        ("extent = 1 1", "extent = 1 1 1"),
        ("origin = 0 0", "origin = 0"),
        ("kind = domain_integral", "kind = point_value\nx0 = 0.5"),
        ("kind = domain_integral", "kind = point_value\nx0 = 0.5 0.5 0.9"),
        ("scale = 1.35", "scale = 0"),
        ("scale = 1.35", "scale = -1"),
        ("upscaler = geometric", "upscaler = constant\nvalue = 0"),
        ("upscaler = geometric", "upscaler = constant\nvalue = -1"),
        ("dirichlet = left right bottom top", "dirichlet = gamma_x"),
        ("dirichlet = left right bottom top", "dirichlet ="),
    ],
    ids=["max_cycles", "max_cycles_negative", "depth", "depth_fraction", "dof_cap", "seed",
         "neumann_without_flux", "fine_zero", "H_zero", "h_zero", "delta_zero", "extent_one",
         "extent_three", "origin_one", "x0_one", "x0_three", "scale_zero", "scale_negative",
         "value_zero", "value_negative", "dirichlet_unknown", "dirichlet_empty"],
)
def test_malformed_entry_exits_as_configuration_error(tmp_path, old, new):
    assert TINY.count(old) == 1
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY.replace(old, new))
    assert main(["estimate", str(cfg_path), "--out", str(tmp_path / "e")]) == 2


BASES = {"TINY": TINY, "ADVECTIVE": ADVECTIVE}


def _entry_cases():
    """(base, section, key, value) for every entry of the key table: each
    junk value, and the entry removed (None) when it is required and the
    base config has it.  The [advection] entries, and entries that only
    ADVECTIVE sets (its sides, functional marker, Neumann data and constant
    upscaler value), vary ADVECTIVE; all others vary TINY."""
    bases = {name: ExperimentConfig.from_ini_text(text) for name, text in BASES.items()}
    for section, keys in cli.KEYS.items():
        for key, (_, default) in keys.items():
            has = {name: key in cfg.sections.get(section, {}) for name, cfg in bases.items()}
            only_advective = has["ADVECTIVE"] and not has["TINY"]
            base = "ADVECTIVE" if section == "advection" or only_advective else "TINY"
            values = ("", "x", "0", "-1", "nan")
            if default is cli.REQUIRED and has[base]:
                values += (None,)
            for value in values:
                label = "missing" if value is None else value or "empty"
                yield pytest.param(base, section, key, value, id=f"{base}-{section}-{key}-{label}")


@pytest.mark.parametrize("base, section, key, value", _entry_cases())
def test_every_config_entry_exits_0_or_2(tmp_path, base, section, key, value):
    # whatever an entry holds, estimate succeeds or exits as a configuration
    # error before writing a file; it never ends in an uncaught exception
    cfg = ExperimentConfig.from_ini_text(BASES[base])
    cfg.set("problem", "reference", "no")
    if value is None:
        del cfg.sections[section][key]
    else:
        cfg.set(section, key, value)
    cfg_path = tmp_path / "entry.ini"
    cfg_path.write_text(cfg.to_ini_text())
    out = tmp_path / "o"
    code = main(["estimate", str(cfg_path), "--out", str(out)])
    assert code in (0, 2)
    if code == 2:
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "config, old, new",
    [
        ("diffusion_tiny", "max_cycles = 15", "max_cycle = 1"),
        ("diffusion_tiny", "[optimizer]", "[optimiser]"),
        ("diffusion_tiny", "reference = yes", "reference = on"),
        ("diffusion_tiny", "seed = 7", "seed = 7\ntile = x"),
        ("advdiff_small", "dirichlet = gamma_d", "dirichlet = gamma_x"),
        ("advdiff_small", "gamma = 0.1", "gamma = -1"),
        ("diffusion_tiny", "h = 2^-6", "h = 2^-4"),
        ("diffusion_tiny", "kind = lognormal", "kind = raster\npath = no_such_raster.pgm"),
        ("diffusion_tiny", "h = 2^-6", "h = 2^-6\nfine = 2^-6"),
        ("advdiff_small", "neumann = gamma_e:1.0", "neumann = gamma_x:1.0"),
        ("advdiff_small", "marker = gamma_b", "marker = gamma_x"),
        ("diffusion_tiny", "kind = domain_integral", "kind = point_value\nx0 = 2 2"),
    ],
    ids=["misspelled_key", "unknown_section", "reference_on", "tile", "dirichlet_unknown",
         "negative_definite_constant_field", "reference_coarser_than_raster", "missing_raster",
         "fine_key", "neumann_unknown", "functional_marker_unknown", "point_outside"],
)
def test_shipped_config_error_exits_before_writing(tmp_path, config, old, new):
    text = (CONFIGS / f"{config}.ini").read_text()
    assert text.count(old) == 1
    cfg_path = tmp_path / "edited.ini"
    cfg_path.write_text(text.replace(old, new))
    out = tmp_path / "o"
    assert main(["optimize", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_negative_definite_constant_field_estimate_exits_2(tmp_path):
    # gamma = -1 used to give an estimate (theta_delta = 28) and exit 0
    cfg = ExperimentConfig.from_ini_text(ADVECTIVE)
    cfg.set("field", "gamma", "-1")
    cfg.set("problem", "reference", "no")
    cfg_path = tmp_path / "negative.ini"
    cfg_path.write_text(cfg.to_ini_text())
    out = tmp_path / "o"
    assert main(["estimate", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_negative_seed_option_exits_2(tmp_path):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["optimize", str(cfg_path), "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert not out.exists()


def test_readme_grammar_lists_every_table_key():
    readme = (CONFIGS.parent / "README.md").read_text()
    block = readme.split("## Configuration grammar", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    listed = {}
    for line in block.splitlines():
        line = line.split(";", 1)[0].strip()
        if line.startswith("["):
            section = listed.setdefault(line.strip("[]"), set())
        elif line:
            section.add(line.split("=", 1)[0].strip())
    assert listed == {section: set(keys) for section, keys in cli.KEYS.items()}


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[mesh]\ndelta = 1/3\nH = 1/4\nh = 1/8\n")
    assert main(["optimize", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["optimize", str(tmp_path / "no_such.ini"), "--out", str(tmp_path / "m")]) == 2
    assert not (tmp_path / "m").exists()

    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY)
    assert main(["upscale", str(cfg_path), "--out", str(tmp_path / "u")]) == 0
    assert (tmp_path / "u" / "model_initial.csv").exists()

    capped = tmp_path / "capped.ini"
    capped.write_text(TINY.replace("dof_cap = 500000", "dof_cap = 100"))
    assert main(["reference", str(capped), "--out", str(tmp_path / "r")]) == 4


@pytest.mark.parametrize("command", ["estimate", "optimize", "compare-duals"])
def test_full_dual_dof_cap_exit_code(tmp_path, monkeypatch, command):
    # 289 macro nodes fit under the cap of 500, the 1089 fine nodes of the
    # full dual do not; the cap must stop the run before any fine space is
    # built
    def no_fine_space(self):
        raise AssertionError("a fine space was built before the dof cap check")

    monkeypatch.setattr(Problem, "fine_space", no_fine_space)
    capped = tmp_path / "capped.ini"
    capped.write_text(
        TINY.replace("dof_cap = 500000", "dof_cap = 500")
        .replace("dual = enhanced", "dual = full")
        .replace("reference = yes", "reference = no")
    )
    assert main([command, str(capped), "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("command", ["estimate", "optimize", "upscale"])
def test_micro_grid_dof_cap_exit_code(tmp_path, monkeypatch, command):
    # the enhanced dual slices its fine data from the global micro grid: its
    # 1089 nodes exceed the cap of 500 (the 289 macro nodes do not), and the
    # cap must stop the run before the fine coefficient is sampled
    def no_sampling(self, points):
        raise AssertionError("the fine coefficient was sampled before the dof cap check")

    monkeypatch.setattr(CoefficientField, "tensors_at", no_sampling)
    capped = tmp_path / "capped.ini"
    capped.write_text(
        TINY.replace("dof_cap = 500000", "dof_cap = 500").replace("reference = yes", "reference = no")
    )
    assert main([command, str(capped), "--out", str(tmp_path / "o")]) == 4


def test_report_records_cost_indefinite_cells_and_environment(tmp_path, monkeypatch):
    import scipy

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cfg = tiny_config()
    cfg.set("optimizer", "max_cycles", 2)
    _, state = run_scenario(cfg, tmp_path)
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert "stop reason: max_cycles" in report
    start = report.index("per cycle (cycle, cost, indefinite cells):")
    assert state.cycles == 2
    for c, row in enumerate(state.history, 1):
        assert report[start + c] == f"  {c}, {row['cost']:.17g}, {row['indefinite']}"
    for line in (
        f"  numpy: {np.__version__}",
        f"  scipy: {scipy.__version__}",
        "  OPENBLAS_NUM_THREADS: 3",
        "  OMP_NUM_THREADS: unset",
    ):
        assert line in report
    assert (tmp_path / "history.csv").read_text() == state.history_csv_text()


def test_nan_indicator_stops_as_diverged(tmp_path, monkeypatch):
    from dwropt import optim

    sweep = optim.assemble_system
    calls = []

    def nan_in_cycle_2(*args, **kwargs):
        eta, triplets = sweep(*args, **kwargs)
        calls.append(len(calls) + 1)
        if calls[-1] == 2:
            eta[0] = np.nan
        return eta, triplets

    monkeypatch.setattr(optim, "assemble_system", nan_in_cycle_2)
    _, state = run_scenario(tiny_config(), tmp_path / "a")
    assert state.stop_reason == "diverged"
    assert state.cycles == 2

    calls.clear()
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY)
    assert main(["optimize", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert (tmp_path / "o" / "history.csv").exists()


def test_compare_duals_divergence_exit_code(tmp_path, monkeypatch):
    # a NaN indicator in every sweep stops both modes as diverged; the table
    # is still written and the command exits 3, as optimize does
    from dwropt import optim

    sweep = optim.assemble_system

    def nan_sweep(*args, **kwargs):
        eta, triplets = sweep(*args, **kwargs)
        eta[:] = np.nan
        return eta, triplets

    monkeypatch.setattr(optim, "assemble_system", nan_sweep)
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY)
    out = tmp_path / "o"
    assert main(["compare-duals", str(cfg_path), "--out", str(out)]) == 3
    table = (out / "compare_duals.csv").read_text().splitlines()
    assert len(table) == 2 and table[1].startswith("1,nan,")


@pytest.mark.parametrize(
    "old, new",
    [("alpha = auto", "alpha = -1e-6"), ("alpha_scale = 1e-4", "alpha_scale = -1e-4")],
    ids=["alpha", "alpha_scale"],
)
def test_negative_regularization_exits_as_configuration_error(tmp_path, old, new):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY.replace(old, new))
    assert main(["optimize", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_nan_step_stops_as_diverged(tmp_path, monkeypatch):
    from dwropt import optim

    step = optim.lm_step

    def nan_step(*args, **kwargs):
        delta, lam, m = step(*args, **kwargs)
        delta[0] = np.nan
        return delta, lam, m

    monkeypatch.setattr(optim, "lm_step", nan_step)
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY)
    out = tmp_path / "o"
    assert main(["optimize", str(cfg_path), "--out", str(out)]) == 3
    assert "stop reason: diverged" in (out / "report.txt").read_text()
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 2  # header and cycle 1, whose step was NaN


def test_singular_operator_mid_run_writes_partial_artifacts(tmp_path, monkeypatch):
    from dwropt import optim
    from dwropt.errors import SingularOperatorError

    solve_model = optim.primal_dual
    calls = []

    def singular_in_cycle_2(*args, **kwargs):
        calls.append(len(calls) + 1)
        if calls[-1] == 2:
            raise SingularOperatorError("factorization of the 225-dof constrained system failed")
        return solve_model(*args, **kwargs)

    monkeypatch.setattr(optim, "primal_dual", singular_in_cycle_2)
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY)
    out = tmp_path / "o"
    assert main(["optimize", str(cfg_path), "--out", str(out)]) == 3
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 2  # header and cycle 1
    report = (out / "report.txt").read_text()
    assert "stop reason: numerical failure: factorization of the 225-dof" in report
    assert "cycles: 1" in report
    for name in ("model_final.csv", "solution_final.csv"):
        assert (out / name).exists()


@pytest.mark.parametrize("command", ["estimate", "optimize", "compare-duals", "reference"])
def test_fine_mesh_coarser_than_h_exit_code(tmp_path, command):
    # the reference and the full dual discretize the fine problem the
    # indicators see, on the micro grid: a config that still asks for a
    # [mesh] fine of 2 h, which cannot resolve the 2^-6 layers, is refused
    text = COARSE_FINE
    if command == "estimate":
        text = text.replace("dual = enhanced", "dual = full")
    cfg_path = tmp_path / "coarse_fine.ini"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    assert main([command, str(cfg_path), "--out", str(out)]) == 2
    # the key is rejected before anything is written
    assert not out.exists() or not any(out.iterdir())


def test_advective_model_csv_round_trip(tmp_path):
    # b_delta is problem data: the model_initial.csv of an advective run reads
    # back to the effective problem of the model that was written
    cfg = ExperimentConfig.from_ini_text(ADVECTIVE)
    problem, _ = build_problem(read_config(cfg))
    model = build_initial_model(cfg, problem)
    path = tmp_path / "model_initial.csv"
    model.to_csv(path)
    back = read_model_csv(path, problem.hierarchy)
    space = problem.macro_space()
    written = effective_operator(problem, model, space).matrix
    read = effective_operator(problem, back, space).matrix
    assert np.array_equal(written.toarray(), read.toarray())


def test_run_samples_fine_advection_once(tmp_path, monkeypatch):
    # the initial b_delta, the reference and the indicator sweep all read
    # b_eps from one lattice sampling at the Gauss points of the micro grid
    calls, built = [], []
    build = cli.build_problem

    def counting_build(settings, seed_override=None):
        problem, raster = build(settings, seed_override)
        built.append(problem)
        sample = problem.advection.values_on_lattice

        def counted(xs, ys):
            calls.append(len(xs) * len(ys))
            return sample(xs, ys)

        monkeypatch.setattr(problem.advection, "values_on_lattice", counted)
        return problem, raster

    monkeypatch.setattr(cli, "build_problem", counting_build)
    report, state = run_scenario(ExperimentConfig.from_ini_text(ADVECTIVE), tmp_path)
    assert report.j_reference is not None and state.cycles == 1
    hierarchy = built[0].hierarchy
    assert sum(calls) == 4 * hierarchy.fine_grid.n_cells


def test_full_dual_run_factors_and_samples_the_fine_problem_once(tmp_path, monkeypatch):
    # with the full dual and a reference, one fine solve serves both u_ref
    # and z, and a_eps is sampled once per micro cell: by Problem.fine_data,
    # which the geometric upscaler, the fine operator and the sweep all read
    cfg = ExperimentConfig.from_ini(CONFIGS / "diffusion_tiny.ini")
    cfg.set("optimizer", "dual", "full")
    cfg.set("optimizer", "max_cycles", 1)
    assert cfg.get("problem", "reference") == "yes"
    factored, points = [], []
    factor, sample = fem.splu, CoefficientField.tensors_at

    def counted_factor(matrix, **kw):
        factored.append(matrix.shape[0])
        return factor(matrix, **kw)

    def counted_sample(self, pts):
        points.append(len(pts))
        return sample(self, pts)

    monkeypatch.setattr(fem, "splu", counted_factor)
    monkeypatch.setattr(CoefficientField, "tensors_at", counted_sample)
    report, state = run_scenario(cfg, tmp_path)
    assert report.j_reference is not None and state.cycles == 1
    # free dofs: 63 x 63 interior nodes of the fine grid, 15 x 15 of the macro
    # grid, whose operator the cycle and the final solution each factor
    assert sorted(factored) == [15 * 15, 15 * 15, 63 * 63]
    assert sum(points) == 64 * 64


@pytest.mark.parametrize(
    "dual, solves", [("enhanced", ["N"]), ("effective", ["N"]), ("full", ["N", "T"])]
)
def test_reference_solves_the_full_dual_only_for_a_run_that_reads_it(
    tmp_path, monkeypatch, dual, solves
):
    # the reference reads u alone; the full dual shares its one fine factor
    cfg = ExperimentConfig.from_ini(CONFIGS / "diffusion_tiny.ini")
    cfg.set("optimizer", "dual", dual)
    cfg.set("optimizer", "max_cycles", 1)
    refined, factored = [], []
    refine, factor = fem.SparseOperator._refined, fem.splu

    def counted_refine(self, b, trans):
        refined.append(trans)
        return refine(self, b, trans)

    def counted_factor(matrix, **kw):
        factored.append(matrix.shape[0])
        return factor(matrix, **kw)

    monkeypatch.setattr(fem.SparseOperator, "_refined", counted_refine)
    monkeypatch.setattr(fem, "splu", counted_factor)
    report, state = run_scenario(cfg, tmp_path)
    assert report.j_reference is not None and state.cycles == 1
    assert refined == solves
    assert factored.count(63 * 63) == 1


def test_compare_duals_solves_the_full_dual_with_the_reference_factor(tmp_path, monkeypatch):
    refined, refine = [], fem.SparseOperator._refined

    def counted_refine(self, b, trans):
        refined.append(trans)
        return refine(self, b, trans)

    monkeypatch.setattr(fem.SparseOperator, "_refined", counted_refine)
    cfg = ExperimentConfig.from_ini(CONFIGS / "diffusion_tiny.ini")
    cfg.set("optimizer", "max_cycles", 1)
    compare_duals(cfg, tmp_path)
    assert refined == ["N", "T"]


@pytest.mark.parametrize("command", ["reference", "optimize"])
def test_failed_fine_factor_exits_3(tmp_path, monkeypatch, command, capsys):
    # SuperLU failing on the fine block (the reference) is a numerical
    # failure: the lean fine factor keeps the SingularOperatorError wrap
    config = CONFIGS / "diffusion_tiny.ini"
    problem, _ = build_problem(read_config(ExperimentConfig.from_ini(config)))
    n_fine = problem.fine_space().free_nodes.size
    factor, failed = fem.splu, []

    def failing_on_the_fine_block(matrix, **kw):
        if matrix.shape[0] == n_fine:
            failed.append(n_fine)
            raise RuntimeError("Factor is exactly singular")
        return factor(matrix, **kw)

    monkeypatch.setattr(fem, "splu", failing_on_the_fine_block)
    assert main([command, str(config), "--out", str(tmp_path / "o")]) == 3
    assert failed == [n_fine]
    err = capsys.readouterr().err
    assert f"factorization of the {n_fine}-dof constrained system failed" in err


def test_full_dual_run_keeps_only_the_fine_data_of_its_sweep(tmp_path, monkeypatch):
    # with dual = full the reference, the full dual, the sweep and b_delta
    # read one fine data, on the global micro grid that the fine space shares
    built = []
    build = cli.build_problem

    def keeping_build(settings, seed_override=None):
        problem, raster = build(settings, seed_override)
        built.append(problem)
        return problem, raster

    monkeypatch.setattr(cli, "build_problem", keeping_build)
    cfg = ExperimentConfig.from_ini_text(ADVECTIVE)
    cfg.set("optimizer", "dual", "full")
    report, state = run_scenario(cfg, tmp_path)
    assert report.j_reference is not None and state.cycles == 1
    problem = built[0]
    grid = problem.hierarchy.fine_grid
    assert problem._fine[0] is grid and problem.fine_space().grid is grid
    u_ref, z = problem.fine_solution()
    assert u_ref.space is z.space is problem.fine_space()
    b_delta = np.loadtxt(tmp_path / "advection_delta.csv", delimiter=",", skiprows=1)
    assert np.array_equal(b_delta[:, -2:], problem.average_advection())


def test_cli_numerical_failure_exit_code(tmp_path):
    # geometric upscaling of a field with nonpositive diagonal entries is a
    # numerical failure, reported with exit code 3
    bad = tmp_path / "bad_field.ini"
    bad.write_text(
        TINY.replace(
            "kind = lognormal",
            "kind = laminate\naxis = 0\na = -1.0\nb = 2.0\nlayer_width = 0.125",
        )
    )
    assert main(["upscale", str(bad), "--out", str(tmp_path / "n")]) == 3


def test_point_functional_scenario_runs(tmp_path):
    cfg = tiny_config()
    cfg.sections["functional"] = {"kind": "point_value", "x0": "0.25 0.5"}
    cfg.set("optimizer", "max_cycles", 3)
    report, state = run_scenario(cfg, tmp_path)
    assert state.cycles >= 1
    assert np.isfinite(state.history[-1]["theta_tilde"])


def test_cli_generate_field(tmp_path):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY)
    assert main(["generate-field", str(cfg_path), "--out", str(tmp_path / "g")]) == 0
    from dwropt.field import RasterField

    r1 = RasterField.from_pgm(tmp_path / "g" / "field.pgm")
    assert main(["generate-field", str(cfg_path), "--out", str(tmp_path / "g2")]) == 0
    r2 = RasterField.from_pgm(tmp_path / "g2" / "field.pgm")
    assert np.array_equal(r1.values, r2.values)


def test_cli_estimate_and_optimize(tmp_path):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY)
    assert main(["estimate", str(cfg_path), "--out", str(tmp_path / "e")]) == 0
    assert main(["optimize", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "history.csv").exists()
    assert (tmp_path / "o" / "report.txt").exists()


def test_shipped_configs_parse():
    import pathlib

    for name in (
        "diffusion_small.ini",
        "advdiff_small.ini",
        "diffusion_tiny.ini",
        "paper_scale_diffusion.ini",
    ):
        cfg = ExperimentConfig.from_ini(pathlib.Path("configs") / name)
        settings = read_config(cfg)
        build_domain(settings)
        build_optimizer_config(settings)


def test_history_is_byte_identical_across_blas_thread_counts(tmp_path):
    # diffusion_tiny optimize in fresh processes, once with one OpenBLAS
    # thread and once with the thread variables unset (the library default)
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    histories = []
    for name, threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "dwropt.cli", "optimize", str(CONFIGS / "diffusion_tiny.ini"),
             "--out", str(out)],
            env={**env, **threads}, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        histories.append((out / "history.csv").read_bytes())
    assert histories[0] == histories[1]


# Run in a fresh process by the test below: worker CPU (process CPU less the
# main thread's) over a diffusion reference and a one-cycle advective
# optimize, after the spin that starting the BLAS threads costs at import.
_WORKER_CPU = """
import resource, sys, time
from pathlib import Path
from dwropt import cli

def worker_cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime - time.thread_time()

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
advective = cli.ExperimentConfig.from_ini(configs / "advdiff_small.ini")
advective.set("optimizer", "max_cycles", "1")
(out / "advdiff.ini").write_text(advective.to_ini_text())
time.sleep(0.5)
start = worker_cpu()
assert cli.main(["reference", str(configs / "diffusion_small.ini"), "--out", str(out / "r")]) == 0
assert cli.main(["optimize", str(out / "advdiff.ini"), "--out", str(out / "o")]) == 0
time.sleep(0.3)
print(worker_cpu() - start)
"""


def test_fine_lattice_products_keep_blas_on_the_calling_thread(tmp_path):
    # with two OpenBLAS threads, no product over fine-lattice rows wakes a
    # worker, which would spin beside the calling thread for about 0.1 s
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "2"
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_CPU, str(CONFIGS), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) < 0.05
