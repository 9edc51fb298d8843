import numpy as np
import pytest
import scipy.sparse as sp

from conftest import advection_problem, lognormal_problem
from dwropt import fem, optim
from dwropt.dwr import error_identity, indicator_sweep
from dwropt.errors import ConfigurationError, NumericalError
from dwropt.fem import (
    Functional,
    Problem,
    diffusion_form_percell,
    effective_operator,
    evaluate,
    gather,
    problem_rhs,
    solve,
)
from dwropt.field import CoefficientField, gen_gaussian_raster
from dwropt.mesh import Domain, build_hierarchy
from dwropt.optim import (
    OptimizerConfig,
    assemble_system,
    build_jacobian,
    cost_value,
    full_gateaux,
    lm_step,
    primal_dual,
    regularization_residual,
    resolve_alpha,
    response_U,
    run_optimization,
)
from dwropt.upscale import constant_model, geometric_mean_model


def small_problem(seed=11, gamma=0.5):
    """2x2 sampling mesh, coarse macro space, rough checkerboard field."""
    hierarchy = build_hierarchy(Domain(), 0.5, 0.25, 2.0**-5)
    field = CoefficientField.checkerboard(a=gamma, b=3.0 * gamma, tile=2.0**-3)
    return Problem(
        hierarchy=hierarchy,
        coefficient=field,
        functional=Functional.domain_integral(),
        source=1.0,
    )


def cellwise_constant_problem():
    """2x2 sampling mesh with a field constant on each sampling cell."""
    hierarchy = build_hierarchy(Domain(), 0.5, 0.25, 2.0**-5)
    field = CoefficientField.checkerboard(a=1.0, b=2.5, tile=0.5)
    return Problem(
        hierarchy=hierarchy,
        coefficient=field,
        functional=Functional.domain_integral(),
        source=1.0,
    )


def full_config(**kw):
    base = dict(dual_mode="full", jacobian_mode="patch", depth=1, alpha=0.0,
                lambda_factor=1.0, max_cycles=15, stop_fraction=0.05)
    base.update(kw)
    return OptimizerConfig(**base)


# ---------------------------------------------------------------------------
# residual


def test_residual_zero_for_exact_constant_model():
    hierarchy = build_hierarchy(Domain(), 0.5, 0.25, 0.125)
    problem = Problem(
        hierarchy=hierarchy,
        coefficient=CoefficientField.constant(2.0),
        functional=Functional.domain_integral(),
        source=1.0,
    )
    model = constant_model(hierarchy, 2.0)
    state = run_optimization(problem, model, OptimizerConfig(dual_mode="enhanced", max_cycles=1))
    assert state.history[0]["cost"] <= 1e-24


def test_alpha_zero_keeps_g_block_zero():
    problem = small_problem()
    model0 = geometric_mean_model(problem)
    drifted = model0.with_tensors(model0.tensors * 1.7, "drifted")
    g = regularization_residual(drifted, model0, np.zeros(problem.hierarchy.n_sampling))
    assert not np.any(g)


def _record_steps(monkeypatch):
    """Record every model the loop moves to and every residual it hands to
    lm_step; the first model is the loop's start."""
    models, residuals = [], []
    real_step, real_update = optim.lm_step, optim.apply_update

    def step(jac, residual, lambda_factor):
        residuals.append(residual.copy())
        return real_step(jac, residual, lambda_factor)

    def update(model, delta, cycle):
        out = real_update(model, delta, cycle)
        models.append(out[0])
        return out

    monkeypatch.setattr(optim, "lm_step", step)
    monkeypatch.setattr(optim, "apply_update", update)
    return models, residuals


def test_residual_layout_and_norm(monkeypatch):
    problem = small_problem()
    model0 = geometric_mean_model(problem)
    config = full_config(alpha=1e-3, dual_mode="enhanced", max_cycles=3, stop_fraction=1e-9)
    models, residuals = _record_steps(monkeypatch)
    state = run_optimization(problem, model0, config)
    n = problem.hierarchy.n_sampling
    assert len(residuals) == 2
    for model, residual, row in zip([model0] + models, residuals, state.history):
        op, U, dual = primal_dual(problem, model, config)
        eta = error_identity(problem, model, op, U, dual).eta
        g = regularization_residual(model, model0, state.alpha)
        assert residual.shape == (5 * n,)
        assert np.allclose(residual[:n], eta, rtol=1e-12, atol=0.0)
        assert np.array_equal(residual[n:], g)
        assert np.isclose(row["cost"], residual @ residual, rtol=1e-12)
    assert np.any(residuals[1][n:])  # the second step carries a nonzero g


def _diffusion_case():
    problem = small_problem()
    model0 = geometric_mean_model(problem)
    return problem, model0, ("full", "enhanced")


def _advection_case():
    # the transport fluctuation read from element matrices is checked against
    # the per-Gauss-point quadrature of _eta_independent
    problem = advection_problem(h_micro=2.0**-5)
    model0 = constant_model(problem.hierarchy, 0.1)
    return problem, model0, ("full", "enhanced", "effective")


@pytest.mark.parametrize("case", [_diffusion_case, _advection_case], ids=["diffusion", "advection"])
def test_residual_squared_norm_matches_independent_cost(case, monkeypatch):
    problem, model0, modes = case()
    model = model0.with_tensors(1.3 * model0.tensors, "off")
    models, _ = _record_steps(monkeypatch)
    for mode in modes:
        config = full_config(alpha=1e-6, dual_mode=mode, max_cycles=2, stop_fraction=1e-9)
        models.clear()
        state = run_optimization(problem, model, config)
        # the second row's model is off the start, so its cost has a g part
        assert len(state.history) == 2
        for row, m in zip(state.history, [model] + models):
            cost = cost_value(problem, m, model, state.alpha, config)
            assert np.isclose(row["cost"], cost, rtol=1e-12)


# ---------------------------------------------------------------------------
# responses


def test_response_zero_for_zero_source():
    problem = small_problem()
    problem.source = 0.0
    model = geometric_mean_model(problem)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    resp = response_U(problem, op, U, 0, 0, 1)
    assert not np.any(resp.values)


def test_response_matches_finite_difference():
    problem = small_problem()
    model = geometric_mean_model(problem)
    macro = problem.macro_space()
    rhs = problem_rhs(problem, macro)
    op = effective_operator(problem, model, macro)
    U = solve(op, rhs)
    s = 1e-6
    for (k, i, j) in ((0, 0, 0), (2, 0, 1), (3, 1, 1)):
        resp = response_U(problem, op, U, k, i, j)
        pert = model.tensors.copy()
        pert[k, i, j] += s
        op_p = effective_operator(problem, model.with_tensors(pert, "pert"), macro)
        U_p = solve(op_p, rhs)
        fd = (U_p.values - U.values) / s
        denom = np.linalg.norm(fd) or 1.0
        assert np.linalg.norm(resp.values - fd) / denom <= 1e-4


def test_response_linear_in_symmetrized_perturbation():
    problem = small_problem()
    model = geometric_mean_model(problem)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    r01 = response_U(problem, op, U, 1, 0, 1)
    r10 = response_U(problem, op, U, 1, 1, 0)
    s = 1e-6
    pert = model.tensors.copy()
    pert[1, 0, 1] += s
    pert[1, 1, 0] += s
    U_p = solve(effective_operator(problem, model.with_tensors(pert, "p"), macro),
                problem_rhs(problem, macro))
    fd = (U_p.values - U.values) / s
    combo = r01.values + r10.values
    assert np.linalg.norm(combo - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-12)


# ---------------------------------------------------------------------------
# jacobian


def eta_of(problem, model, config, dual):
    op, U, _ = primal_dual(problem, model, config)
    eta, _ = assemble_system(problem, model, U, op, dual, config.jacobian_mode,
                             want_jacobian=False)
    return eta


def test_jacobian_diagonal_matches_eta_finite_difference():
    problem = cellwise_constant_problem()
    model = constant_model(problem.hierarchy, 1.6)
    config = full_config(jacobian_mode="diagonal")
    op, U, dual = primal_dual(problem, model, config)
    eta, triplets = assemble_system(problem, model, U, op, dual, config.jacobian_mode)
    rows, cols, vals = triplets
    s = 1e-6
    for k in range(problem.hierarchy.n_sampling):
        for i in range(2):
            for j in range(2):
                col = 4 * k + 2 * i + j
                entry = [v for r, c, v in zip(rows, cols, vals) if r == k and c == col]
                assert len(entry) == 1
                plus = model.tensors.copy()
                plus[k, i, j] += s
                minus = model.tensors.copy()
                minus[k, i, j] -= s
                fd = (
                    eta_of(problem, model.with_tensors(plus, "p"), config, dual)[k]
                    - eta_of(problem, model.with_tensors(minus, "m"), config, dual)[k]
                ) / (2 * s)
                assert abs(entry[0] - fd) <= 0.05 * abs(fd)


@pytest.mark.parametrize("case", ["diffusion", "advection"])
def test_response_terms_match_per_member_forms(case):
    # the four responses of a cell, contracted at once, equal a loop over
    # responses and members of the per-cell diffusion form minus the
    # transport fluctuation; the Jacobian holds them plus the direct term,
    # and its diagonal mode keeps the entries of the cell itself
    if case == "diffusion":
        problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
        model = geometric_mean_model(problem)
    else:
        problem = advection_problem(h_micro=2.0**-5, drift_max=1.5)
        model = constant_model(problem.hierarchy, 0.1)
    op, U, dual = primal_dual(problem, model, OptimizerConfig())
    expected = {}
    for ctx, _, direct in indicator_sweep(problem, model, U, dual):
        k, grid = ctx.k, ctx.grid
        responses = [
            response_U(problem, op, U, k, i, j) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]
        inline = np.zeros((len(ctx.patch.members), 4))
        z4 = gather(grid, ctx.zstar)
        for r, response in enumerate(responses):
            r4 = gather(grid, evaluate(response, grid.node_coords))
            for m, q in enumerate(ctx.patch.members):
                bbox = problem.hierarchy.sampling_bbox(q)
                d_tensors = model.tensors[q] - grid.restrict(ctx.a_eps, bbox)
                r4q, z4q = grid.restrict(r4, bbox), grid.restrict(z4, bbox)
                inline[m, r] = np.sum(diffusion_form_percell(grid, d_tensors, r4q, z4q))
                if ctx.fluct is not None:
                    fluct = grid.restrict(ctx.fluct, bbox)
                    inline[m, r] -= np.einsum("cp,cpq,cq->", z4q, fluct, r4q)
        terms = ctx.response_terms(responses)
        # a member's term sums contributions that cancel: compare on the
        # scale of the response's largest member term
        assert np.all(np.abs(terms - inline) <= 1e-12 * np.abs(inline).max(axis=0))
        terms[ctx.patch.members.index(k)] += direct.ravel()
        for m, q in enumerate(ctx.patch.members):
            expected.update({(q, 4 * k + r): terms[m, r] for r in range(4)})
    for jacobian in ("patch", "diagonal"):
        _, (rows, cols, vals) = assemble_system(problem, model, U, op, dual, jacobian)
        got = {(r, c): v for r, c, v in zip(rows, cols, vals)}
        keys = [key for key in expected if jacobian == "patch" or key[0] == key[1] // 4]
        assert len(got) == len(rows) and sorted(got) == sorted(keys)
        assert all(got[key] == expected[key] for key in keys)


@pytest.mark.parametrize("case", ["diffusion", "advection"])
def test_sweeps_on_one_problem_are_bit_identical(case):
    # every patch operator is factored in the order of its pattern alone, so
    # a sweep on a problem that has swept before repeats the first one
    if case == "diffusion":
        problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
        model = geometric_mean_model(problem)
    else:
        problem = advection_problem(h_micro=2.0**-5, drift_max=1.5)
        model = constant_model(problem.hierarchy, 0.1)
    op, U, dual = primal_dual(problem, model, OptimizerConfig())
    eta, triplets = assemble_system(problem, model, U, op, dual)
    eta_again, triplets_again = assemble_system(problem, model, U, op, dual)
    assert np.array_equal(eta_again, eta)
    assert triplets_again == triplets


@pytest.mark.parametrize("mode", ["enhanced", "full", "effective"])
def test_jacobian_band_limited_to_patch(mode):
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    hierarchy = problem.hierarchy
    model = geometric_mean_model(problem)
    config = OptimizerConfig(dual_mode=mode, jacobian_mode="patch", depth=1)
    op, U, dual = primal_dual(problem, model, config)
    eta, triplets = assemble_system(problem, model, U, op, dual, config.jacobian_mode)
    rows, cols, _ = triplets
    for r, c in zip(rows, cols):
        k = c // 4
        assert r in hierarchy.patch_of(k, 1).members


def test_jacobian_regularization_rows():
    n = 4
    alpha = np.array([0.0, 1.0, 4.0, 9.0])
    jac = build_jacobian(n, ([], [], []), alpha)
    dense = jac.toarray()
    for k in range(n):
        for idx in range(4):
            row = n + 4 * k + idx
            col = 4 * k + idx
            expect = np.sqrt(alpha[k])
            assert dense[row, col] == expect
            assert np.count_nonzero(dense[row]) == (1 if expect else 0)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt step


def test_lm_zero_residual_zero_step():
    jac = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]]))
    delta, lam, m = lm_step(jac, np.zeros(3), 1.0)
    assert not np.any(delta)


def test_lm_gradient_descent_limit():
    rng = np.random.default_rng(0)
    jac = sp.csr_matrix(rng.standard_normal((10, 6)))
    g = rng.standard_normal(10)
    factor = 1e6
    delta, lam, m = lm_step(jac, g, factor)
    grad_step = -(jac.T @ g) / lam
    assert np.linalg.norm(delta - grad_step) <= 1e-3 * np.linalg.norm(grad_step)


def test_lm_scalar_closed_form():
    j0, sqrt_a, g0, ga = 2.0, 0.5, 3.0, -1.0
    jac = sp.csr_matrix(np.array([[j0], [sqrt_a]]))
    g = np.array([g0, ga])
    factor = 0.7
    delta, lam, m = lm_step(jac, g, factor)
    jtj = j0**2 + sqrt_a**2
    assert np.isclose(m, jtj)
    assert np.isclose(lam, factor * jtj)
    expect = -(j0 * g0 + sqrt_a * ga) / (jtj + lam)
    assert np.isclose(delta[0], expect)


def test_lm_step_matches_dense_normal_equations():
    # the sparse solve against the dense reference, on a sparse J with
    # regularization rows below it, as build_jacobian stacks them
    rng = np.random.default_rng(3)
    band = sp.random(40, 24, density=0.2, random_state=rng) + sp.eye(40, 24)
    jac = sp.vstack([band, 0.1 * sp.identity(24)]).tocsr()
    g = rng.standard_normal(64)
    delta, lam, m = lm_step(jac, g, 0.5)
    jtj = (jac.T @ jac).toarray()
    expect = np.linalg.solve(jtj + lam * np.eye(24), -(jac.T @ g))
    assert np.isclose(m, np.abs(np.diag(jtj)).mean(), rtol=1e-14)
    assert np.linalg.norm(delta - expect) <= 1e-12 * np.linalg.norm(expect)


def test_lm_singular_normal_equations_raise():
    # without damping, a parameter that no residual sees leaves J^T J singular
    jac = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(NumericalError, match="singular"):
        lm_step(jac, np.array([1.0, -1.0, 0.5]), 0.0)


# ---------------------------------------------------------------------------
# exact directional derivative


def gateaux_direction(hierarchy, seed=3):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((hierarchy.n_sampling, 2, 2))
    return 0.5 * (d + d.transpose(0, 2, 1))


@pytest.mark.parametrize("mode", ["full", "enhanced"])
def test_full_gateaux_matches_central_differences(mode):
    problem = small_problem()
    model0 = geometric_mean_model(problem)
    model = model0.with_tensors(1.2 * model0.tensors, "off")
    config = full_config(dual_mode=mode)
    alpha = np.full(problem.hierarchy.n_sampling, 1e-7)
    direction = gateaux_direction(problem.hierarchy)
    cost, deriv = full_gateaux(problem, model, model0, alpha, direction, config)
    for s in (1e-5, 1e-6):
        plus = full_gateaux(
            problem, model.with_tensors(model.tensors + s * direction, "p"),
            model0, alpha, direction, config,
        )[0]
        minus = full_gateaux(
            problem, model.with_tensors(model.tensors - s * direction, "m"),
            model0, alpha, direction, config,
        )[0]
        fd = (plus - minus) / (2 * s)
        assert abs(deriv - fd) <= 1e-5 * abs(fd)


def test_full_gateaux_rejects_advection():
    from conftest import advection_problem

    problem = advection_problem(h_micro=2.0**-5)
    model = constant_model(problem.hierarchy, 0.1)
    with pytest.raises(ConfigurationError):
        full_gateaux(problem, model, model, np.zeros(problem.hierarchy.n_sampling),
                     gateaux_direction(problem.hierarchy), full_config())


# ---------------------------------------------------------------------------
# outer loop


def test_run_stops_for_exact_model():
    hierarchy = build_hierarchy(Domain(), 0.5, 0.25, 0.125)
    problem = Problem(
        hierarchy=hierarchy,
        coefficient=CoefficientField.constant(3.0),
        functional=Functional.domain_integral(),
        source=1.0,
    )
    model = constant_model(hierarchy, 3.0)
    state = run_optimization(problem, model, OptimizerConfig(dual_mode="enhanced"))
    assert state.cycles == 1
    assert state.stop_reason == "initial estimator zero"
    assert state.history[0]["theta_tilde"] == 0.0


def test_estimator_reduction_on_small_lognormal():
    problem = lognormal_problem(
        delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-5, raster_n=32,
        corr_len=0.02, seed=7,
    )
    geo = geometric_mean_model(problem)
    model0 = geo.with_tensors(1.35 * geo.tensors, "detuned geometric")
    config = OptimizerConfig(dual_mode="enhanced", depth=1, max_cycles=15,
                             lambda_factor=1.0, stop_fraction=0.05, alpha_scale=1e-4)
    state = run_optimization(problem, model0, config)
    assert state.stop_reason == "converged"
    thetas = [abs(r["theta_tilde"]) for r in state.history]
    assert thetas[-1] <= 0.05 * thetas[0]


def test_cost_nonincreasing_over_first_cycles():
    problem = lognormal_problem(
        delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-5, raster_n=32,
        corr_len=0.02, seed=7,
    )
    geo = geometric_mean_model(problem)
    model0 = geo.with_tensors(1.35 * geo.tensors, "detuned geometric")
    config = OptimizerConfig(dual_mode="enhanced", depth=1, max_cycles=4,
                             lambda_factor=1.0, stop_fraction=0.001, alpha_scale=1e-4)
    state = run_optimization(problem, model0, config)
    costs = [r["cost"] for r in state.history[:3]]
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_regularization_pull_with_huge_alpha():
    problem = lognormal_problem(
        delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-5, raster_n=32,
        corr_len=0.02, seed=7,
    )
    geo = geometric_mean_model(problem)
    model0 = geo.with_tensors(1.35 * geo.tensors, "detuned geometric")
    base = resolve_alpha(
        OptimizerConfig(alpha_scale=1e-4), 1.0, model0
    )
    config = OptimizerConfig(dual_mode="enhanced", max_cycles=15, lambda_factor=1.0,
                             stop_fraction=1e-9, alpha_scale=1e-4 * 1e6)
    state = run_optimization(problem, model0, config)
    drift = np.sqrt(np.sum((state.model.tensors - model0.tensors) ** 2))
    scale = np.sqrt(np.sum(model0.tensors**2))
    assert drift <= 1e-3 * scale


def test_model_symmetry_preserved_every_cycle():
    problem = lognormal_problem(
        delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-5, raster_n=32, seed=5,
    )
    geo = geometric_mean_model(problem)
    model0 = geo.with_tensors(1.3 * geo.tensors, "detuned")
    config = OptimizerConfig(dual_mode="enhanced", max_cycles=4, stop_fraction=0.01,
                             alpha_scale=1e-4)
    state = run_optimization(problem, model0, config)
    t = state.model.tensors
    assert np.allclose(t, t.transpose(0, 2, 1))


def test_determinism_bit_exact_history():
    kwargs = dict(delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-5, raster_n=32, seed=9)
    runs = []
    for _ in range(2):
        problem = lognormal_problem(**kwargs)
        geo = geometric_mean_model(problem)
        model0 = geo.with_tensors(1.3 * geo.tensors, "detuned")
        config = OptimizerConfig(dual_mode="enhanced", max_cycles=4, stop_fraction=0.01,
                                 alpha_scale=1e-4)
        state = run_optimization(problem, model0, config)
        runs.append(state.history_csv_text())
    assert runs[0] == runs[1]


def test_history_csv_columns(tmp_path):
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    model0 = geometric_mean_model(problem)
    config = OptimizerConfig(dual_mode="enhanced", max_cycles=2, alpha_scale=1e-4)
    state = run_optimization(problem, model0, config)
    path = tmp_path / "history.csv"
    state.write_history(path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "cycle,l2_error,j_of_U,abs_error,rel_error_pct,theta_tilde,I_eff,I_loc,lambda,step_norm"
    )
    assert len(lines) == state.cycles + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == ""  # no oracle: l2_error empty


def test_max_cycles_zero_gives_single_estimate():
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    model0 = geometric_mean_model(problem)
    config = OptimizerConfig(dual_mode="enhanced", max_cycles=0, alpha_scale=1e-4)
    state = run_optimization(problem, model0, config)
    assert state.cycles == 1
    assert state.history[0]["step_norm"] is None
    assert np.array_equal(state.model.tensors, model0.tensors)


@pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_per_cell_alpha_must_be_finite_and_nonnegative(alpha):
    values = np.full(16, 1e-6)
    values[3] = alpha
    with pytest.raises(ConfigurationError):
        OptimizerConfig(alpha=values).validate()


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_lambda_factor_must_be_finite_and_nonnegative(value):
    with pytest.raises(ConfigurationError):
        OptimizerConfig(lambda_factor=value).validate()


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        OptimizerConfig(jacobian_mode="dense").validate()
    with pytest.raises(ConfigurationError):
        OptimizerConfig(stop_fraction=0.0).validate()
    with pytest.raises(ConfigurationError):
        OptimizerConfig(depth=2).validate()
    with pytest.raises(ConfigurationError):
        OptimizerConfig(max_cycles=-2).validate()
    OptimizerConfig(max_cycles=0).validate()


def test_full_dual_is_solved_once_per_problem(monkeypatch):
    # the full dual does not depend on the model: the problem solves it on
    # the first request and every later primal/dual set-up reads it
    problem = cellwise_constant_problem()
    built = []
    build = fem.fine_operator

    def counted(problem):
        built.append(problem.fine_space().n_dofs)
        return build(problem)

    monkeypatch.setattr(fem, "fine_operator", counted)
    config = full_config()
    _, _, first = primal_dual(problem, constant_model(problem.hierarchy, 1.0), config)
    _, _, second = primal_dual(problem, constant_model(problem.hierarchy, 2.0), config)
    assert len(built) == 1
    assert second.z_global is first.z_global
    assert first.z_global is problem.fine_solution()[1]


@pytest.mark.parametrize("dual_mode", ["enhanced", "effective"])
def test_sweeps_sample_fine_advection_once(monkeypatch, dual_mode):
    # b_eps and b_delta are fixed data: two cycles of patch sweeps read both
    # from one sampling on the global micro grid
    problem = advection_problem(h_micro=2.0**-5)
    hierarchy = problem.hierarchy
    sample = problem.advection.values_on_lattice
    sample_delta = problem.delta_values
    calls, delta_calls = [], []

    def counted(xs, ys):
        calls.append(len(xs) * len(ys))
        return sample(xs, ys)

    def counted_delta(grid):
        delta_calls.append(grid.n_cells)
        return sample_delta(grid)

    monkeypatch.setattr(problem.advection, "values_on_lattice", counted)
    monkeypatch.setattr(problem, "delta_values", counted_delta)
    model = constant_model(hierarchy, 0.1)
    state = run_optimization(problem, model, OptimizerConfig(max_cycles=2, dual_mode=dual_mode))
    assert state.cycles == 2
    n_micro = hierarchy.fine_grid.n_cells
    assert calls == [4 * n_micro]
    # the micro-grid E_delta once, then per cycle the macro operator of the
    # primal/dual solve, which theta_H reuses; the first macro operator asks
    # for b_delta before the micro fine data that holds it is built
    assert sorted(delta_calls) == sorted([n_micro] + [hierarchy.macro_grid.n_cells] * state.cycles)


# ---------------------------------------------------------------------------
# L2 error against the reference


def gauss_point_l2_error(u_ref, U):
    """The L2 error by the 2x2 Gauss rule on the reference cells: the
    squared difference summed at the Gauss points."""
    grid = u_ref.space.grid
    _, w, phi, _ = fem._gauss_points_physical(grid)
    d4 = gather(grid, u_ref.values - fem.lattice_values(U, grid).ravel())
    return float(np.sqrt(np.sum(w * (d4 @ phi.T) ** 2)))


def test_l2_error_of_a_bilinear_field_is_exact():
    # u = x y lies in Q1 on every cell: its L2 norm over the unit square is
    # 1/3, and the mass block gives it within 1e-15
    problem = small_problem()
    fine = problem.fine_space()
    x, y = fine.grid.node_coords.T
    u_ref = fem.DiscreteField(fine, x * y)
    zero = fem.DiscreteField(problem.macro_space(), np.zeros(problem.macro_space().n_dofs))
    assert abs(optim.l2_error_against(u_ref, zero) - 1.0 / 3.0) <= 1e-15


def test_l2_error_matches_the_gauss_point_sum():
    # the reference against a macro solution: the mass-block error equals
    # the Gauss-point sum within 1e-14 relative
    problem = small_problem()
    model = geometric_mean_model(problem)
    _, U, _ = primal_dual(problem, model, OptimizerConfig())
    u_ref = problem.fine_solution()[0]
    expected = gauss_point_l2_error(u_ref, U)
    assert expected > 0.0
    assert abs(optim.l2_error_against(u_ref, U) - expected) <= 1e-14 * expected
