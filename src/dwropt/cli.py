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
from .mesh import SIDES, Domain, _exact_ratio, build_hierarchy
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


def parse_positive(text, what):
    """Parse a quantity that must be positive."""
    value = parse_quantity(text)
    if not value > 0.0:
        raise ConfigurationError(f"{what} must be positive, got '{text}'")
    return value


def parse_pair(text, what):
    """Parse two quantities 'X Y', such as a point or an extent."""
    values = tuple(parse_quantity(t) for t in text.split())
    if len(values) != 2:
        raise ConfigurationError(f"{what} must be two numbers 'X Y', got '{text}'")
    return values


def parse_integer(text):
    """Parse an integer like '3' or '-2'."""
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse integer '{text}'") from exc


@dataclass
class ExperimentConfig:
    """Sectioned key-value configuration; the raw strings round-trip exactly
    through :meth:`to_ini_text` / :meth:`from_ini_text`."""

    sections: dict = dc_field(default_factory=dict)

    @classmethod
    def from_ini(cls, path):
        return cls.from_ini_text(Path(path).read_text())

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

    def require(self, section, key):
        value = self.get(section, key)
        if value is None:
            raise ConfigurationError(f"missing config entry [{section}] {key}")
        return value

    def set(self, section, key, value):
        self.sections.setdefault(section, {})[key] = str(value)

    def __eq__(self, other):
        return isinstance(other, ExperimentConfig) and self.sections == other.sections


# ---------------------------------------------------------------------------
# builders


def _parse_side_spec(text):
    """'gamma_d split 1.0 gamma_c' -> ((gamma_d, 1.0), (gamma_c, None))."""
    tokens = text.split()
    segments = []
    idx = 0
    while idx < len(tokens):
        marker = tokens[idx]
        if idx + 2 < len(tokens) and tokens[idx + 1] == "split":
            segments.append((marker, parse_quantity(tokens[idx + 2])))
            idx += 3
        else:
            segments.append((marker, None))
            idx += 1
    return tuple(segments)


def build_domain(cfg):
    origin = parse_pair(cfg.get("domain", "origin", "0 0"), "[domain] origin")
    extent = parse_pair(cfg.get("domain", "extent", "1 1"), "[domain] extent")
    boundary = {}
    for side in SIDES:
        spec = cfg.get("domain", side)
        boundary[side] = _parse_side_spec(spec) if spec else ((side, None),)
    return Domain(origin=origin, extent=extent, boundary=boundary)


def build_field(cfg, domain, seed_override=None):
    kind = cfg.get("field", "kind", "constant")
    seed = parse_integer(cfg.get("field", "seed", "0")) if seed_override is None else seed_override
    if kind == "constant":
        return CoefficientField.constant(parse_quantity(cfg.get("field", "gamma", "1.0"))), None
    if kind == "laminate":
        return (
            CoefficientField.laminate(
                axis=parse_integer(cfg.get("field", "axis", "0")),
                a=parse_quantity(cfg.require("field", "a")),
                b=parse_quantity(cfg.require("field", "b")),
                layer_width=parse_quantity(cfg.require("field", "layer_width")),
            ),
            None,
        )
    if kind == "checkerboard":
        return (
            CoefficientField.checkerboard(
                a=parse_quantity(cfg.require("field", "a")),
                b=parse_quantity(cfg.require("field", "b")),
                tile=parse_quantity(cfg.require("field", "tile")),
            ),
            None,
        )
    if kind == "lognormal":
        raster = gen_gaussian_raster(
            parse_integer(cfg.require("field", "nx")),
            parse_integer(cfg.require("field", "ny")),
            parse_quantity(cfg.require("field", "corr_len")),
            seed=seed,
            origin=domain.origin,
            size=domain.extent,
        )
        gamma = parse_quantity(cfg.get("field", "gamma", "1.0"))
        return CoefficientField.lognormal(raster, gamma), raster
    if kind == "raster":
        raster = RasterField.from_pgm(
            cfg.require("field", "path"), origin=domain.origin, size=domain.extent
        )
        gamma = parse_quantity(cfg.get("field", "gamma", "1.0"))
        return CoefficientField.lognormal(raster, gamma), raster
    raise ConfigurationError(f"unknown field kind '{kind}'")


def build_advection(cfg, domain, hierarchy, seed_override=None):
    if "advection" not in cfg.sections:
        return None
    adv = cfg.sections["advection"]
    if adv.get("enabled", "yes").lower() in ("no", "false", "0"):
        return None
    seed = parse_integer(adv.get("seed", "0")) if seed_override is None else seed_override
    fd_step = 0.5 * hierarchy.h_micro
    taper = parse_quantity(adv.get("taper_width", "0.125"))
    confine = adv.get("confine_to_sampling_cells", "yes").lower() not in ("no", "false", "0")
    cell = hierarchy.delta if confine else None

    psi = RasterField(
        values=correlated_noise(
            parse_integer(adv.get("eddy_nx", "17")),
            parse_integer(adv.get("eddy_ny", "33")),
            parse_quantity(adv.get("eddy_corr_px", "2.0")),
            seed=seed,
        ),
        origin=domain.origin,
        size=domain.extent,
    )
    target = parse_quantity(adv.get("eddy_max", "100.0"))
    raw = stream_advection(psi, 1.0, taper, fd_step=fd_step, cell_size=cell)
    scale = target / raw.max_magnitude()
    eddies = stream_advection(psi, scale, taper, fd_step=fd_step, cell_size=cell)

    drift_max = parse_quantity(adv.get("drift_max", "0.0"))
    if drift_max <= 0.0:
        return eddies
    psi_lo = RasterField(
        values=correlated_noise(
            parse_integer(adv.get("drift_nx", "9")),
            parse_integer(adv.get("drift_ny", "17")),
            parse_quantity(adv.get("drift_corr_px", "1.0")),
            seed=seed + 1,
        ),
        origin=domain.origin,
        size=domain.extent,
    )
    raw_drift = stream_advection(psi_lo, 1.0, taper, fd_step=fd_step)
    dscale = drift_max / raw_drift.max_magnitude()
    return SumAdvection(stream_advection(psi_lo, dscale, taper, fd_step=fd_step), eddies)


def build_functional(cfg):
    kind = cfg.get("functional", "kind", "domain_integral")
    if kind == "domain_integral":
        return Functional.domain_integral()
    if kind == "point_value":
        x0 = parse_pair(cfg.require("functional", "x0"), "[functional] x0")
        return Functional.point_value(x0)
    if kind == "boundary_integral":
        return Functional.boundary_integral(cfg.require("functional", "marker"))
    raise ConfigurationError(f"unknown functional kind '{kind}'")


def build_problem(cfg, seed_override=None):
    domain = build_domain(cfg)
    hierarchy = build_hierarchy(
        domain,
        parse_quantity(cfg.require("mesh", "delta")),
        parse_quantity(cfg.require("mesh", "H")),
        parse_quantity(cfg.require("mesh", "h")),
    )
    coeff, raster = build_field(cfg, domain, seed_override)
    b_eps = build_advection(cfg, domain, hierarchy, seed_override)
    neumann = []
    for item in cfg.get("problem", "neumann", "").split(","):
        item = item.strip()
        if item:
            marker, colon, value = item.partition(":")
            if not colon:
                raise ConfigurationError(f"[problem] neumann item '{item}' is not marker:flux")
            neumann.append((marker.strip(), parse_quantity(value)))
    dirichlet = tuple(cfg.get("problem", "dirichlet", "left right bottom top").split())
    problem = Problem(
        hierarchy=hierarchy,
        coefficient=coeff,
        functional=build_functional(cfg),
        advection=b_eps,
        source=parse_quantity(cfg.get("problem", "source", "0.0")),
        neumann=tuple(neumann),
        dirichlet=dirichlet,
    )
    return problem, raster


def build_initial_model(cfg, problem):
    upscaler = cfg.get("initial_model", "upscaler", "geometric")
    scale = parse_positive(cfg.get("initial_model", "scale", "1.0"), "[initial_model] scale")
    hierarchy = problem.hierarchy
    if upscaler == "geometric":
        model = geometric_mean_model(problem)
    elif upscaler == "arithmetic":
        model = arithmetic_mean_model(problem)
    elif upscaler == "homogenized":
        model = homogenized_effective_model(problem)
    elif upscaler == "constant":
        value = parse_positive(cfg.require("initial_model", "value"), "[initial_model] value")
        model = constant_model(hierarchy, value)
    else:
        raise ConfigurationError(f"unknown upscaler '{upscaler}'")
    if scale != 1.0:
        with np.errstate(over="ignore"):
            tensors = scale * model.tensors
        if not np.all(np.isfinite(tensors)):
            raise ConfigurationError(f"[initial_model] scale {scale} overflows the model tensors")
        model = model.with_tensors(tensors, f"{model.provenance} x {scale}")
    return model


def _fine_h(cfg):
    """Reference and full-dual mesh size: ``[mesh] fine``, else ``h``.  It
    must divide ``h``, which is checked here, before anything is sampled or
    written."""
    h = cfg.require("mesh", "h")
    fine = parse_quantity(cfg.get("mesh", "fine", h))
    _exact_ratio(parse_quantity(h), fine, "[mesh] h / fine")
    return fine


def build_optimizer_config(cfg):
    alpha_raw = cfg.get("optimizer", "alpha", "auto")
    alpha = None if alpha_raw == "auto" else parse_quantity(alpha_raw)
    config = OptimizerConfig(
        alpha=alpha,
        alpha_scale=parse_quantity(cfg.get("optimizer", "alpha_scale", "1e-4")),
        lambda_factor=parse_quantity(cfg.get("optimizer", "lambda_factor", "1.0")),
        jacobian_mode=cfg.get("optimizer", "jacobian", "patch"),
        dual_mode=cfg.get("optimizer", "dual", "enhanced"),
        depth=parse_integer(cfg.get("optimizer", "depth", "1")),
        max_cycles=parse_integer(cfg.get("optimizer", "max_cycles", "15")),
        stop_fraction=parse_quantity(cfg.get("optimizer", "stop_fraction", "0.05")),
        h_fine=_fine_h(cfg),
    )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# reference solve


def oracle_reference(problem, h_fine, dof_cap=500_000, raster=None):
    """Single global fine-scale solve: the brute-force oracle behind every
    effectivity and error column."""
    grid = problem.hierarchy.fine_grid(h_fine)
    if grid.n_nodes > dof_cap:
        raise ResourceCapError(
            f"reference mesh with {grid.n_nodes} dofs exceeds the cap of {dof_cap}; "
            "raise [mesh] dof_cap to allow it"
        )
    if raster is not None and h_fine > min(raster.pixel_size) * (1 + 1e-12):
        raise ConfigurationError(
            f"reference mesh size {h_fine} is coarser than the raster pixel "
            f"{min(raster.pixel_size)}"
        )
    u_ref, _ = problem.fine_solution(h_fine)
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


def _dof_cap(cfg):
    return parse_integer(cfg.get("mesh", "dof_cap", "500000"))


def _write_b_delta(path, hierarchy, b_delta):
    grid = hierarchy.sampling_grid
    with open(path, "w", newline="\n") as fh:
        fh.write("cell_i,cell_j,bx,by\n")
        for k in range(hierarchy.n_sampling):
            i, j = grid.cell_ij(k)
            fh.write(f"{i},{j},{b_delta[k, 0]:.17g},{b_delta[k, 1]:.17g}\n")


@dataclass
class Scenario:
    """What the scenario commands read from one configuration: the problem,
    the initial model, the optimizer settings and the reference settings."""

    problem: Problem
    raster: object
    model0: object
    config: OptimizerConfig
    dof_cap: int
    reference: bool

    def oracle(self):
        """(u_ref, j_ref) from the fine-scale reference solve, or None when
        ``[problem] reference`` is off."""
        if not self.reference:
            return None
        return oracle_reference(self.problem, self.config.h_fine, self.dof_cap, self.raster)


def build_scenario(cfg, seed_override=None, dual_modes=None):
    """Problem, initial model and optimizer config of ``cfg``.  For each of
    ``dual_modes`` (default: the configured one), the global grid whose fine
    data the indicator sweep slices (the micro grid; for the full dual the
    ``h_fine`` grid of its solve) is checked against ``[mesh] dof_cap``
    before any fine data is sampled or fine space built."""
    problem, raster = build_problem(cfg, seed_override)
    config = build_optimizer_config(cfg)
    dof_cap = _dof_cap(cfg)
    hierarchy = problem.hierarchy
    for mode in dual_modes or (config.dual_mode,):
        h = config.h_fine if mode == "full" else hierarchy.h_micro
        n_fine = hierarchy.fine_grid(h).n_nodes
        if n_fine > dof_cap:
            raise ResourceCapError(
                f"{mode} dual needs fine data on {n_fine} nodes, above the cap {dof_cap}"
            )
    model0 = build_initial_model(cfg, problem)
    reference = cfg.get("problem", "reference", "no").lower() in ("yes", "true", "1")
    return Scenario(problem, raster, model0, config, dof_cap, reference)


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
    if sc.reference:
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
    sc = build_scenario(cfg, seed_override, dual_modes=modes)
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
    domain = build_domain(cfg)
    _, raster = build_field(cfg, domain, seed)
    if raster is None:
        raise ConfigurationError("the configured field kind has no raster to export")
    raster.to_pgm(out / "field.pgm")
    print(f"wrote {out / 'field.pgm'} ({raster.nx}x{raster.ny})")
    return 0


def _cmd_upscale(cfg, outdir, seed):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    problem, _ = build_problem(cfg, seed)
    model = build_initial_model(cfg, problem)
    model.to_csv(out / "model_initial.csv")
    print(f"wrote {out / 'model_initial.csv'} ({model.provenance})")
    return 0


def _cmd_reference(cfg, outdir, seed):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    problem, raster = build_problem(cfg, seed)
    u_ref, j_ref = oracle_reference(problem, _fine_h(cfg), _dof_cap(cfg), raster)
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
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
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
