"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import time

import numpy as np
import pytest

from conftest import coefficient_problem, lognormal_problem
from dwropt.cli import ExperimentConfig, run_scenario
from dwropt.dwr import DualApproximation, error_identity
from dwropt.fem import (
    Functional,
    Problem,
    apply_functional,
    effective_operator,
    fine_operator,
    problem_rhs,
    solve,
    solve_dual,
)
from dwropt.field import CoefficientField
from dwropt.mesh import Domain, build_hierarchy
from dwropt.optim import (
    OptimizerConfig,
    assemble_system,
    full_gateaux,
    primal_dual,
    resolve_alpha,
    run_optimization,
)
from dwropt.upscale import constant_model, geometric_mean_model, homogenized_model


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared setups


@pytest.fixture(scope="module")
def identity_setup():
    """Criterion 1/2/6 setup: 64x64 raster, fine 2^-7, macro 2^-4, delta 2^-2."""
    problem = lognormal_problem(
        delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-7,
        raster_n=64, corr_len=0.02, seed=1, gamma=0.05,
    )
    model = geometric_mean_model(problem)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    z_eff = solve_dual(op, problem.functional)
    fine = problem.fine_space()
    fop = fine_operator(problem)
    u_fine = solve(fop, problem_rhs(problem, fine))
    z_fine = solve_dual(fop, problem.functional)
    return problem, model, op, U, z_eff, u_fine, z_fine


@pytest.fixture(scope="module")
def scenario3(tmp_path_factory):
    """Criterion 3/4/10 scenario: the shipped desk-scale diffusion study."""
    cfg = ExperimentConfig.from_ini("configs/diffusion_small.ini")
    out = tmp_path_factory.mktemp("scenario3")
    t0 = time.perf_counter()
    report_obj, state = run_scenario(cfg, out)
    runtime = time.perf_counter() - t0
    return cfg, report_obj, state, out, runtime


def test_criterion_1_discrete_error_identity(identity_setup):
    t0 = time.perf_counter()
    problem, model, op, U, _, u_fine, z_fine = identity_setup
    err = error_identity(problem, model, op, U, DualApproximation("full", z_fine))
    lhs = apply_functional(problem.functional, u_fine) - apply_functional(
        problem.functional, U
    )
    rhs = err.theta_H + err.theta_delta
    rel = abs(lhs - rhs) / abs(lhs)
    runtime = time.perf_counter() - t0
    report(
        1,
        rel <= 1e-9 and runtime < 30.0,
        f"identity residual {rel:.2e} (tol 1e-9), {runtime:.1f}s",
    )


def test_criterion_2_galerkin_vanishing(identity_setup):
    t0 = time.perf_counter()
    problem, model, op, U, z_eff, _, _ = identity_setup
    err = error_identity(problem, model, op, U, DualApproximation("effective", z_eff))
    runtime = time.perf_counter() - t0
    report(
        2,
        abs(err.theta_H) <= 1e-10 and runtime < 10.0,
        f"|theta_H| = {abs(err.theta_H):.2e} (tol 1e-10), {runtime:.1f}s",
    )


def test_criterion_3_estimator_reduction(scenario3):
    cfg, _, state, _, runtime = scenario3
    thetas = [abs(r["theta_tilde"]) for r in state.history]
    reached = [i + 1 for i, t in enumerate(thetas) if t <= 0.05 * thetas[0]]
    ok = bool(reached) and reached[0] <= 15 and runtime < 300.0
    report(
        3,
        ok,
        f"|theta| {thetas[0]:.3e} -> {thetas[-1]:.3e}, below 5% at cycle "
        f"{reached[0] if reached else 'never'}, {runtime:.0f}s",
    )


def test_criterion_4_qoi_error_reduction(scenario3):
    _, _, state, _, _ = scenario3
    errors = [r["abs_error"] for r in state.history]
    ok = errors[-1] <= 0.5 * errors[0]
    report(
        4,
        ok,
        f"|j error| {errors[0]:.3e} -> {errors[-1]:.3e} "
        f"(factor {errors[0] / errors[-1]:.1f}, need >= 2)",
    )


def test_criterion_5_advection_diffusion_reduction(tmp_path):
    cfg = ExperimentConfig.from_ini("configs/advdiff_small.ini")
    t0 = time.perf_counter()
    _, state = run_scenario(cfg, tmp_path)
    runtime = time.perf_counter() - t0
    rel = [r["rel_error_pct"] for r in state.history]
    thetas = [abs(r["theta_tilde"]) for r in state.history]
    monotone = all(a * (1 + 1e-9) >= b for a, b in zip(thetas, thetas[1:]))
    ok = (
        state.cycles <= 15
        and rel[-1] <= rel[0] / 5.0
        and monotone
        and state.stop_reason == "converged"
        and runtime < 600.0
    )
    report(
        5,
        ok,
        f"rel error {rel[0]:.1f}% -> {rel[-1]:.1f}% in {state.cycles} cycles, "
        f"theta monotone={monotone}, {runtime:.0f}s",
    )


def test_criterion_6_full_dual_effectivity(identity_setup):
    problem, model, _, _, _, u_fine, _ = identity_setup
    j_ref = apply_functional(problem.functional, u_fine)
    detuned = model.with_tensors(1.2 * model.tensors, "detuned geometric")
    config = OptimizerConfig(
        dual_mode="full", max_cycles=5,
        lambda_factor=1.0, stop_fraction=0.01, alpha_scale=1e-4,
    )
    state = run_optimization(problem, detuned, config, oracle=(u_fine, j_ref))
    i_effs = [r["I_eff"] for r in state.history]
    ok = all(e is not None and abs(e - 1.0) <= 0.02 for e in i_effs)
    report(6, ok, "I_eff per cycle: " + " ".join(f"{e:.4f}" for e in i_effs))


def test_criterion_7_laminate_homogenization():
    t0 = time.perf_counter()
    hierarchy = build_hierarchy(Domain(), 1.0, 0.5, 0.0625)
    field = CoefficientField.laminate(axis=0, a=1.0, b=4.0, layer_width=0.125)
    tensor = homogenized_model(coefficient_problem(field, hierarchy), 0)
    expected = np.diag([1.6, 2.5])
    err = np.abs(tensor - expected).max()
    runtime = time.perf_counter() - t0
    report(7, err <= 1e-10 and runtime < 5.0, f"max deviation {err:.2e} (tol 1e-10)")


def test_criterion_8_derivative_verification():
    t0 = time.perf_counter()
    hierarchy = build_hierarchy(Domain(), 0.5, 0.25, 2.0**-5)
    problem = Problem(
        hierarchy=hierarchy,
        coefficient=CoefficientField.checkerboard(a=1.0, b=2.5, tile=0.5),
        functional=Functional.domain_integral(),
        source=1.0,
    )
    base = constant_model(hierarchy, 1.6)
    rng = np.random.default_rng(3)
    direction = rng.standard_normal((hierarchy.n_sampling, 2, 2))
    direction = 0.5 * (direction + direction.transpose(0, 2, 1))
    alpha = np.full(hierarchy.n_sampling, 1e-7)

    worst_gateaux = 0.0
    for mode in ("full", "enhanced"):
        config = OptimizerConfig(
            dual_mode=mode, jacobian_mode="patch", depth=1, alpha=0.0
        )
        _, deriv = full_gateaux(problem, base, base, alpha, direction, config)
        for s in (1e-5, 1e-6):
            plus = full_gateaux(
                problem, base.with_tensors(base.tensors + s * direction, "p"),
                base, alpha, direction, config,
            )[0]
            minus = full_gateaux(
                problem, base.with_tensors(base.tensors - s * direction, "m"),
                base, alpha, direction, config,
            )[0]
            fd = (plus - minus) / (2 * s)
            worst_gateaux = max(worst_gateaux, abs(deriv - fd) / abs(fd))

    # production approximate Jacobian, diagonal mode, full dual
    config = OptimizerConfig(dual_mode="full", jacobian_mode="diagonal")
    op, U, dual = primal_dual(problem, base, config)
    eta, triplets = assemble_system(problem, base, U, op, dual, config.jacobian_mode)
    rows, cols, vals = triplets

    def eta_of(model):
        op_m, u_m, _ = primal_dual(problem, model, config)
        e, _ = assemble_system(problem, model, u_m, op_m, dual, config.jacobian_mode,
                               want_jacobian=False)
        return e

    s = 1e-6
    worst_jac = 0.0
    for r, c, v in zip(rows, cols, vals):
        k, i, j = c // 4, (c % 4) // 2, c % 2
        plus = base.tensors.copy()
        plus[k, i, j] += s
        minus = base.tensors.copy()
        minus[k, i, j] -= s
        fd = (eta_of(base.with_tensors(plus, "p"))[k]
              - eta_of(base.with_tensors(minus, "m"))[k]) / (2 * s)
        worst_jac = max(worst_jac, abs(v - fd) / abs(fd))
    runtime = time.perf_counter() - t0
    report(
        8,
        worst_gateaux <= 1e-5 and worst_jac <= 0.05 and runtime < 30.0,
        f"gateaux rel err {worst_gateaux:.2e} (tol 1e-5), jacobian rel err "
        f"{worst_jac:.2e} (tol 5e-2), {runtime:.1f}s",
    )


def test_criterion_9_regularization_pull():
    t0 = time.perf_counter()
    problem = lognormal_problem(
        delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-6,
        raster_n=64, corr_len=0.02, seed=1, gamma=0.05,
    )
    geo = geometric_mean_model(problem)
    model0 = geo.with_tensors(1.2 * geo.tensors, "detuned geometric")
    # alpha at 1e6 times the |theta|^2 / |A|^2 band unit
    config = OptimizerConfig(
        dual_mode="enhanced", depth=1, max_cycles=15, lambda_factor=1.0,
        stop_fraction=1e-9, alpha_scale=1e6,
    )
    state = run_optimization(problem, model0, config)
    drift = np.sqrt(np.sum((state.model.tensors - model0.tensors) ** 2))
    scale = np.sqrt(np.sum(model0.tensors**2))
    runtime = time.perf_counter() - t0
    report(
        9,
        drift <= 1e-3 * scale and runtime < 120.0,
        f"relative drift {drift / scale:.2e} after {state.cycles} cycles "
        f"(tol 1e-3), {runtime:.0f}s",
    )


def test_criterion_10_determinism(scenario3, tmp_path):
    cfg, _, _, out1, _ = scenario3
    _, _ = run_scenario(cfg, tmp_path)
    h1 = (out1 / "history.csv").read_bytes()
    h2 = (tmp_path / "history.csv").read_bytes()
    report(10, h1 == h2, f"history CSVs byte-identical: {h1 == h2}")
