"""Experiment orchestration: INI configs, the fine-scale reference solver,
runnable scenarios and file input/output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(divergence or singular system), 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np
import scipy

from .dwr import error_identity
from .errors import (
    ConfigurationError,
    NumericalError,
    OutOfDomainError,
    ResourceCapError,
)
from .fem import (
    Functional,
    Problem,
    apply_functional,
    effective_operator,
    problem_rhs,
    solve,
)
from .field import (
    CoefficientField,
    RasterField,
    SumAdvection,
    correlated_noise,
    gen_gaussian_raster,
    stream_advection,
)
from .mesh import SIDES, Domain, build_hierarchy
from .optim import OptimizerConfig, primal_dual, run_optimization
from .upscale import (
    arithmetic_mean_model,
    constant_model,
    geometric_mean_model,
    homogenized_effective_model,
)


def parse_quantity(text):
    """Parse a finite quantity like '0.125', '1/8' or '2^-3'.  A leading
    sign applies to the whole power: '-2^-2' is -0.25, as in Python."""
    t = text.strip()
    try:
        if "^" in t:
            base, expo = t.split("^")
            sign = -1.0 if base.startswith("-") else 1.0
            value = sign * abs(float(base)) ** float(expo)
        elif "/" in t:
            num, den = t.split("/")
            value = float(num) / float(den)
        else:
            value = float(t)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigurationError(f"cannot parse quantity '{text}'") from exc
    if not np.isfinite(value):
        raise ConfigurationError(f"quantity '{text}' is not finite")
    return value


def parse_positive(text):
    """Parse a quantity that must be positive."""
    value = parse_quantity(text)
    if not value > 0.0:
        raise ConfigurationError(f"'{text}' is not positive")
    return value


def parse_pair(text):
    """Parse two quantities 'X Y', such as a point or an extent."""
    values = tuple(parse_quantity(t) for t in text.split())
    if len(values) != 2:
        raise ConfigurationError(f"'{text}' is not two numbers 'X Y'")
    return values


def parse_integer(text, minimum=None):
    """Parse an integer like '3' or '-2', at least ``minimum`` if given."""
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse integer '{text}'") from exc
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"integer '{text}' is below {minimum}")
    return value


def parse_seed(text):
    """Parse a random seed: an integer >= 0."""
    return parse_integer(text, 0)


def parse_count(text):
    """Parse a size: an integer >= 1."""
    return parse_integer(text, 1)


@dataclass
class ExperimentConfig:
    """Sectioned key-value configuration; the raw strings round-trip exactly
    through :meth:`to_ini_text` / :meth:`from_ini_text`; :func:`read_config`
    parses them."""

    sections: dict = dc_field(default_factory=dict)

    @classmethod
    def from_ini(cls, path):
        try:
            return cls.from_ini_text(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc

    @classmethod
    def from_ini_text(cls, text):
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigurationError(f"invalid config: {exc}") from exc
        return cls({s: dict(parser[s]) for s in parser.sections()})

    def to_ini_text(self):
        lines = []
        for section in self.sections:
            lines.append(f"[{section}]")
            for key, value in self.sections[section].items():
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def set(self, section, key, value):
        self.sections.setdefault(section, {})[key] = str(value)


# ---------------------------------------------------------------------------
# the key table


_BOOLEANS = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


def parse_bool(text):
    """Parse yes/no, true/false or 1/0, in any case."""
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ConfigurationError(f"'{text}' is not yes/no, true/false or 1/0") from None


def _choice(*names):
    """A parser that accepts exactly one of ``names``."""

    def parse_name(text):
        if text not in names:
            raise ConfigurationError(f"'{text}' is not one of {' | '.join(names)}")
        return text

    return parse_name


def parse_side(text):
    """'gamma_d split 1.0 gamma_c' -> ((gamma_d, 1.0), (gamma_c, None))."""
    tokens = text.split()
    if len(tokens) % 3 != 1 or any(word != "split" for word in tokens[1::3]):
        raise ConfigurationError(f"'{text}' is not 'marker [split COORD marker]...'")
    return tuple(zip(tokens[::3], [parse_quantity(t) for t in tokens[2::3]] + [None]))


def parse_neumann(text):
    """'marker:flux, marker:flux' -> ((marker, flux), ...)."""
    items = [item.split(":") for item in text.split(",") if item.strip()]
    if any(len(item) != 2 for item in items):
        raise ConfigurationError(f"'{text}' is not 'marker:flux, marker:flux...'")
    return tuple((marker.strip(), parse_quantity(flux)) for marker, flux in items)


def parse_alpha(text):
    """'auto' (None) or a quantity."""
    return None if text == "auto" else parse_quantity(text)


_UPSCALERS = {
    "geometric": geometric_mean_model,
    "arithmetic": arithmetic_mean_model,
    "homogenized": homogenized_effective_model,
}
REQUIRED = object()
_REQUIRED_QUANTITY = (parse_quantity, REQUIRED)

# Every config entry: section -> key -> (parser, default or REQUIRED).  A
# default is a parsed value; None means the side's own name for a side.  A
# range that a library constructor checks is checked there, not here: the
# spacing ratios, OptimizerConfig.validate, the field constructors and the
# boundary markers.
KEYS = {
    "domain": {
        "origin": (parse_pair, (0.0, 0.0)),
        "extent": (parse_pair, (1.0, 1.0)),
        **dict.fromkeys(SIDES, (parse_side, None)),
    },
    "mesh": {
        **dict.fromkeys(("delta", "H", "h"), _REQUIRED_QUANTITY),
        "dof_cap": (parse_count, 500_000),
    },
    "field": {
        "kind": (_choice("constant", "laminate", "checkerboard", "lognormal", "raster"),
                 "constant"),
        "seed": (parse_seed, 0),
        "gamma": (parse_quantity, 1.0),
        "axis": (parse_integer, 0),
        **dict.fromkeys(("a", "b", "layer_width", "tile", "corr_len"), _REQUIRED_QUANTITY),
        **dict.fromkeys(("nx", "ny"), (parse_integer, REQUIRED)),
        "path": (str, REQUIRED),
    },
    "advection": {
        **dict.fromkeys(("enabled", "confine_to_sampling_cells"), (parse_bool, True)),
        "seed": (parse_seed, 0),
        "taper_width": (parse_quantity, 0.125),
        "eddy_nx": (parse_count, 17),
        "eddy_ny": (parse_count, 33),
        "eddy_corr_px": (parse_quantity, 2.0),
        "eddy_max": (parse_quantity, 100.0),
        "drift_nx": (parse_count, 9),
        "drift_ny": (parse_count, 17),
        "drift_corr_px": (parse_quantity, 1.0),
        "drift_max": (parse_quantity, 0.0),
    },
    "functional": {
        "kind": (_choice("domain_integral", "point_value", "boundary_integral"),
                 "domain_integral"),
        "x0": (parse_pair, REQUIRED),
        "marker": (str, REQUIRED),
    },
    "problem": {
        "source": (parse_quantity, 0.0),
        "dirichlet": (lambda text: tuple(text.split()), SIDES),
        "neumann": (parse_neumann, ()),
        "reference": (parse_bool, False),
    },
    "initial_model": {
        "upscaler": (_choice(*_UPSCALERS, "constant"), "geometric"),
        "scale": (parse_positive, 1.0),
        "value": (parse_positive, REQUIRED),
    },
    "optimizer": {
        "alpha": (parse_alpha, None),
        "alpha_scale": (parse_quantity, 1e-4),
        "lambda_factor": (parse_quantity, 1.0),
        "jacobian": (str, "patch"),
        "dual": (str, "enhanced"),
        "depth": (parse_integer, 1),
        "max_cycles": (parse_integer, 15),
        "stop_fraction": (parse_quantity, 0.05),
    },
}


class Entries(dict):
    """The parsed entries of one section.  ``given`` tells whether the
    config has the section.  Reading an entry the config lacks gives its
    default, or raises ConfigurationError for a required one."""

    def __init__(self, section, given):
        super().__init__()
        self.section, self.given = section, given

    def __missing__(self, key):
        default = KEYS[self.section][key][1]
        if default is REQUIRED:
            raise ConfigurationError(f"missing config entry [{self.section}] {key}")
        return default


def read_config(cfg):
    """Every entry of ``cfg`` parsed through :data:`KEYS`, as
    ``{section: Entries}``.  An unknown section or key, or a value its
    parser rejects, raises ConfigurationError naming ``[section] key``."""
    settings = {section: Entries(section, section in cfg.sections) for section in KEYS}
    for section, given in cfg.sections.items():
        if section not in KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, text in given.items():
            if key not in KEYS[section]:
                raise ConfigurationError(f"unknown config entry [{section}] {key}")
            try:
                settings[section][key] = KEYS[section][key][0](text)
            except ConfigurationError as exc:
                raise ConfigurationError(f"[{section}] {key}: {exc}") from exc
    return settings


# ---------------------------------------------------------------------------
# builders: each reads the parsed settings of :func:`read_config`


def build_domain(settings):
    d = settings["domain"]
    boundary = {side: d[side] or ((side, None),) for side in SIDES}
    return Domain(origin=d["origin"], extent=d["extent"], boundary=boundary)


def build_field(settings, domain, seed_override=None):
    f = settings["field"]
    box = dict(origin=domain.origin, size=domain.extent)
    if f["kind"] == "constant":
        return CoefficientField.constant(f["gamma"]), None
    if f["kind"] == "laminate":
        return CoefficientField.laminate(f["axis"], f["a"], f["b"], f["layer_width"]), None
    if f["kind"] == "checkerboard":
        return CoefficientField.checkerboard(f["a"], f["b"], f["tile"]), None
    if f["kind"] == "lognormal":
        seed = f["seed"] if seed_override is None else seed_override
        raster = gen_gaussian_raster(f["nx"], f["ny"], f["corr_len"], seed, **box)
    else:
        raster = RasterField.from_pgm(f["path"], **box)
    return CoefficientField.lognormal(raster, f["gamma"]), raster


def _stream_field(adv, part, seed, domain, fd_step, cell_size):
    """The stream field of ``part`` ('eddy' or 'drift'), scaled to the max
    |b| of ``[advection] <part>_max``."""
    noise = correlated_noise(adv[f"{part}_nx"], adv[f"{part}_ny"], adv[f"{part}_corr_px"], seed)
    psi = RasterField(noise, origin=domain.origin, size=domain.extent)
    taper = adv["taper_width"]
    raw = stream_advection(psi, 1.0, taper, fd_step=fd_step, cell_size=cell_size)
    scale = adv[f"{part}_max"] / raw.max_magnitude()
    return stream_advection(psi, scale, taper, fd_step=fd_step, cell_size=cell_size)


def build_advection(settings, domain, hierarchy, seed_override=None):
    adv = settings["advection"]
    if not adv.given or not adv["enabled"]:
        return None
    seed = adv["seed"] if seed_override is None else seed_override
    fd_step = 0.5 * hierarchy.h_micro
    cell = hierarchy.delta if adv["confine_to_sampling_cells"] else None
    eddies = _stream_field(adv, "eddy", seed, domain, fd_step, cell)
    if adv["drift_max"] <= 0.0:
        return eddies
    return SumAdvection(_stream_field(adv, "drift", seed + 1, domain, fd_step, None), eddies)


def build_functional(settings):
    fn = settings["functional"]
    if fn["kind"] == "point_value":
        return Functional.point_value(fn["x0"])
    if fn["kind"] == "boundary_integral":
        return Functional.boundary_integral(fn["marker"])
    return Functional.domain_integral()


def build_problem(settings, seed_override=None):
    domain = build_domain(settings)
    mesh, p = settings["mesh"], settings["problem"]
    hierarchy = build_hierarchy(domain, mesh["delta"], mesh["H"], mesh["h"])
    coeff, raster = build_field(settings, domain, seed_override)
    problem = Problem(
        hierarchy=hierarchy,
        coefficient=coeff,
        functional=build_functional(settings),
        advection=build_advection(settings, domain, hierarchy, seed_override),
        source=p["source"],
        neumann=p["neumann"],
        dirichlet=p["dirichlet"],
    )
    return problem, raster


def build_initial_model(cfg, problem):
    """The initial model of the ``[initial_model]`` entries of ``cfg``.  An
    upscaler that reads the micro fine data checks its grid against
    ``[mesh] dof_cap`` first."""
    settings = read_config(cfg)
    m, hierarchy = settings["initial_model"], problem.hierarchy
    if m["upscaler"] == "constant":
        model = constant_model(hierarchy, m["value"])
    else:
        check_fine_grid(hierarchy, settings["mesh"]["dof_cap"], "the upscaler")
        model = _UPSCALERS[m["upscaler"]](problem)
    scale = m["scale"]
    if scale != 1.0:
        with np.errstate(over="ignore"):
            tensors = scale * model.tensors
        if not np.all(np.isfinite(tensors)):
            raise ConfigurationError(f"[initial_model] scale {scale} overflows the model tensors")
        model = model.with_tensors(tensors, f"{model.provenance} x {scale}")
    return model


_OPTIMIZER_FIELDS = {"jacobian": "jacobian_mode", "dual": "dual_mode"}


def build_optimizer_config(settings):
    """Optimizer settings of the ``[optimizer]`` entries, validated."""
    o = settings["optimizer"]
    fields = {_OPTIMIZER_FIELDS.get(key, key): o[key] for key in KEYS["optimizer"]}
    config = OptimizerConfig(**fields)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# reference solve


def check_fine_grid(hierarchy, dof_cap, what):
    """Refuse ``what`` before it samples or solves anything on the global
    micro grid when that grid has more than ``dof_cap`` nodes."""
    n_fine = hierarchy.fine_grid.n_nodes
    if n_fine > dof_cap:
        raise ResourceCapError(
            f"{what} needs {n_fine} fine-grid nodes, above the cap of {dof_cap}; "
            "raise [mesh] dof_cap to allow it"
        )


def check_reference(problem, dof_cap, raster=None):
    """Refuse a reference solve on the global micro grid when that grid
    exceeds ``dof_cap`` or is coarser than the raster pixel."""
    check_fine_grid(problem.hierarchy, dof_cap, "the reference solve")
    h = problem.hierarchy.h_micro
    if raster is not None and h > min(raster.pixel_size) * (1 + 1e-12):
        raise ConfigurationError(
            f"reference mesh size {h} is coarser than the raster pixel "
            f"{min(raster.pixel_size)}"
        )


def oracle_reference(problem, dof_cap=KEYS["mesh"]["dof_cap"][1], raster=None):
    """Single global fine-scale solve: the brute-force oracle behind every
    effectivity and error column."""
    check_reference(problem, dof_cap, raster)
    u_ref, _ = problem.fine_solution()
    return u_ref, apply_functional(problem.functional, u_ref)


# ---------------------------------------------------------------------------
# scenarios


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_environment():
    """Library versions and BLAS thread variables as found; the last digits
    of ``history.csv`` depend on both."""
    env = {"numpy": np.__version__, "scipy": scipy.__version__}
    env.update((name, os.environ.get(name, "unset")) for name in _THREAD_VARS)
    return env


@dataclass
class RunReport:
    """Everything a run leaves behind: config echo, phase timings, reference
    value, the optimization state (stop reason and per-cycle rows, of which
    the cost and indefinite-cell count are listed), the run environment and
    the output-file manifest."""

    config_echo: str
    phases: dict
    manifest: list
    state: object
    j_reference: float = None
    environment: dict = dc_field(default_factory=_run_environment)

    def to_text(self):
        lines = ["dwropt run report", "=" * 40, ""]
        if self.j_reference is not None:
            lines.append(f"reference QoI: {self.j_reference:.17g}")
        lines.append(f"stop reason: {self.state.stop_reason}")
        lines.append(f"cycles: {self.state.cycles}")
        if self.state.history:
            lines.append("")
            lines.append("per cycle (cycle, cost, indefinite cells):")
            for row in self.state.history:
                lines.append(f"  {row['cycle']}, {row['cost']:.17g}, {row['indefinite']}")
        lines.append("")
        lines.append("wall-clock per phase (s):")
        for name, dt in self.phases.items():
            lines.append(f"  {name}: {dt:.3f}")
        lines.append("")
        lines.append("environment:")
        for name, value in self.environment.items():
            lines.append(f"  {name}: {value}")
        lines.append("")
        lines.append("artifacts:")
        for name in self.manifest:
            lines.append(f"  {name}")
        lines.append("")
        lines.append("config echo:")
        lines.append("-" * 40)
        lines.append(self.config_echo)
        return "\n".join(lines) + "\n"


class _Phases:
    def __init__(self):
        self.times = {}
        self._t0 = None
        self._name = None

    def start(self, name):
        self._name = name
        self._t0 = time.perf_counter()

    def stop(self):
        self.times[self._name] = time.perf_counter() - self._t0


def _write_b_delta(path, hierarchy, b_delta):
    grid = hierarchy.sampling_grid
    with open(path, "w", newline="\n") as fh:
        fh.write("cell_i,cell_j,bx,by\n")
        for k in range(hierarchy.n_sampling):
            i, j = grid.cell_ij(k)
            fh.write(f"{i},{j},{b_delta[k, 0]:.17g},{b_delta[k, 1]:.17g}\n")


@dataclass
class Scenario:
    """What the scenario commands read from one configuration: its parsed
    settings, the problem, the initial model and the optimizer settings."""

    settings: dict
    problem: Problem
    raster: object
    model0: object
    config: OptimizerConfig

    def oracle(self):
        """(u_ref, j_ref) from the fine-scale reference solve, or None when
        ``[problem] reference`` is off."""
        if not self.settings["problem"]["reference"]:
            return None
        return oracle_reference(self.problem, self.settings["mesh"]["dof_cap"], self.raster)


def build_scenario(cfg, seed_override=None):
    """Problem, initial model and optimizer config of ``cfg``.  The global
    micro grid, whose fine data the indicator sweep of every dual slices and
    on which the full dual and the reference are solved, is checked against
    ``[mesh] dof_cap`` before any fine data is sampled or fine space built;
    so is its resolution of the raster when ``[problem] reference`` is on."""
    settings = read_config(cfg)
    problem, raster = build_problem(settings, seed_override)
    config = build_optimizer_config(settings)
    dof_cap = settings["mesh"]["dof_cap"]
    check_fine_grid(problem.hierarchy, dof_cap, "the indicator sweep")
    if settings["problem"]["reference"]:
        check_reference(problem, dof_cap, raster)
    model0 = build_initial_model(cfg, problem)
    return Scenario(settings, problem, raster, model0, config)


def run_scenario(cfg, outdir, seed_override=None):
    """Full pipeline: field -> hierarchy -> initial model -> optional
    reference -> optimization -> files.  Deterministic given the seed."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    phases = _Phases()
    manifest = []

    phases.start("setup")
    sc = build_scenario(cfg, seed_override)
    problem, raster, model0 = sc.problem, sc.raster, sc.model0
    b_delta = problem.average_advection()  # the micro fine data, timed as setup
    phases.stop()

    if raster is not None and raster.values.dtype == np.uint8:
        raster.to_pgm(out / "field.pgm")
        manifest.append("field.pgm")

    model0.to_csv(out / "model_initial.csv")
    manifest.append("model_initial.csv")
    if b_delta is not None:
        _write_b_delta(out / "advection_delta.csv", problem.hierarchy, b_delta)
        manifest.append("advection_delta.csv")

    oracle = None
    if sc.settings["problem"]["reference"]:
        phases.start("reference")
        oracle = sc.oracle()
        phases.stop()

    phases.start("optimize")
    state = run_optimization(problem, model0, sc.config, oracle=oracle)
    phases.stop()

    phases.start("write")
    state.write_history(out / "history.csv")
    manifest.append("history.csv")
    state.model.to_csv(out / "model_final.csv")
    manifest.append("model_final.csv")

    if state.history:  # else no solve of the initial model is known to succeed
        macro = problem.macro_space()
        U = solve(effective_operator(problem, state.model, macro), problem_rhs(problem, macro))
        U.to_csv(out / "solution_final.csv")
        U.to_vtk(out / "solution_final.vtk")
        manifest.extend(["solution_final.csv", "solution_final.vtk"])
    phases.stop()

    report = RunReport(
        config_echo=cfg.to_ini_text(),
        phases=phases.times,
        manifest=manifest + ["report.txt"],
        state=state,
        j_reference=None if oracle is None else oracle[1],
    )
    (out / "report.txt").write_text(report.to_text(), newline="\n")
    for name in report.manifest:
        if not (out / name).exists():
            raise NumericalError(f"manifest entry '{name}' was not written")
    return report, state


def estimate_once(cfg, outdir, seed_override=None):
    """One estimator pass with the initial model: indicators + summary."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    sc = build_scenario(cfg, seed_override)
    oracle = sc.oracle()
    operator, U, dual = primal_dual(sc.problem, sc.model0, sc.config)
    err = error_identity(
        sc.problem, sc.model0, operator, U, dual, None if oracle is None else oracle[1]
    )
    err.to_csv(out / "breakdown.csv", sc.problem.hierarchy)
    return err


def compare_duals(cfg, outdir, seed_override=None):
    """Run the optimization with the full and the enhanced dual and emit a
    side-by-side per-cycle table."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    modes = ("full", "enhanced")
    sc = build_scenario(cfg, seed_override)
    oracle = sc.oracle()
    states = {
        mode: run_optimization(
            sc.problem, sc.model0, replace(sc.config, dual_mode=mode), oracle=oracle
        )
        for mode in modes
    }

    rows = max(state.cycles for state in states.values())
    lines = ["cycle,theta_full,abs_err_full,theta_enhanced,abs_err_enhanced"]
    for c in range(rows):
        parts = [str(c + 1)]
        for mode in modes:
            hist = states[mode].history
            if c < len(hist):
                theta = hist[c]["theta_tilde"]
                err = hist[c]["abs_error"]
                parts.append(f"{theta:.17g}")
                parts.append("" if err is None else f"{err:.17g}")
            else:
                parts.extend(["", ""])
        lines.append(",".join(parts))
    (out / "compare_duals.csv").write_text("\n".join(lines) + "\n", newline="\n")
    return states


# ---------------------------------------------------------------------------
# command line


def _cmd_generate_field(cfg, outdir, seed):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    settings = read_config(cfg)
    _, raster = build_field(settings, build_domain(settings), seed)
    if raster is None:
        raise ConfigurationError("the configured field kind has no raster to export")
    raster.to_pgm(out / "field.pgm")
    print(f"wrote {out / 'field.pgm'} ({raster.nx}x{raster.ny})")
    return 0


def _cmd_upscale(cfg, outdir, seed):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    problem, _ = build_problem(read_config(cfg), seed)
    model = build_initial_model(cfg, problem)
    model.to_csv(out / "model_initial.csv")
    print(f"wrote {out / 'model_initial.csv'} ({model.provenance})")
    return 0


def _cmd_reference(cfg, outdir, seed):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    settings = read_config(cfg)
    problem, raster = build_problem(settings, seed)
    u_ref, j_ref = oracle_reference(problem, settings["mesh"]["dof_cap"], raster)
    u_ref.to_csv(out / "reference.csv")
    u_ref.to_vtk(out / "reference.vtk")
    (out / "reference_qoi.txt").write_text(f"{j_ref:.17g}\n", newline="\n")
    print(f"reference QoI: {j_ref:.17g}")
    return 0


def _cmd_estimate(cfg, outdir, seed):
    err = estimate_once(cfg, outdir, seed)
    print(
        f"theta_H={err.theta_H:.6e} theta_delta={err.theta_delta:.6e} "
        f"I_loc={err.i_loc if err.i_loc is not None else 'n/a'}"
    )
    return 0


def _exit_rule(state):
    """Exit of a finished optimization, once its files are written: a
    stored failure is raised again, and a divergence is a NumericalError."""
    if state.failure is not None:
        raise state.failure
    if state.stop_reason == "diverged":
        raise NumericalError("optimization diverged (estimator grew past the guard)")


def _cmd_optimize(cfg, outdir, seed):
    report, state = run_scenario(cfg, outdir, seed)
    theta = state.history[-1]["theta_tilde"] if state.history else float("nan")
    print(f"stop: {state.stop_reason} after {state.cycles} cycles; theta={theta:.6e}")
    _exit_rule(state)
    return 0


def _cmd_compare_duals(cfg, outdir, seed):
    states = compare_duals(cfg, outdir, seed)
    for mode, state in states.items():
        print(f"{mode}: {state.cycles} cycles, stop={state.stop_reason}")
    for state in states.values():
        _exit_rule(state)
    return 0


_COMMANDS = {
    "generate-field": _cmd_generate_field,
    "upscale": _cmd_upscale,
    "reference": _cmd_reference,
    "estimate": _cmd_estimate,
    "optimize": _cmd_optimize,
    "compare-duals": _cmd_compare_duals,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dwropt",
        description="effective-model optimization for heterogeneous diffusion problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="INI configuration file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=parse_seed, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_ini(args.config)
        return _COMMANDS[args.command](cfg, args.out, args.seed)
    except (ConfigurationError, OutOfDomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
