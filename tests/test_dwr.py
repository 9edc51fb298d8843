import numpy as np
import pytest

from conftest import advection_problem, lognormal_problem
from dwropt.dwr import (
    DualApproximation,
    ErrorBreakdown,
    _fine_data,
    error_identity,
    local_enhancement,
)
from dwropt.fem import (
    Functional,
    _gauss_points_physical,
    advection_element_matrices,
    apply_functional,
    assemble_diffusion,
    assemble_rhs,
    effective_operator,
    evaluate,
    fine_operator,
    gather,
    interpolate,
    problem_rhs,
    solve,
    solve_dual,
)
from dwropt.field import CellAveragedAdvection, CoefficientField
from dwropt.mesh import Domain, build_hierarchy
from dwropt.upscale import constant_model, geometric_mean_model


def grad_sq_percell(grid, u4):
    """int_cell |grad u|^2 (exact for bilinear u)."""
    _, w, _, dphi = _gauss_points_physical(grid)
    du = np.einsum("cp,qpd->cqd", u4, dphi)
    return np.einsum("q,cqd->c", w, du**2)


def solve_states(problem, model, h_fine):
    """Primal U on the macro space, fine primal and fine dual."""
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    fine = problem.fine_space(h_fine)
    fop = fine_operator(problem, fine)
    u_fine = solve(fop, problem_rhs(problem, fine))
    z_fine = solve_dual(fop, problem.functional)
    return U, u_fine, z_fine, op


def test_effective_dual_self_adjoint_case():
    problem = lognormal_problem()
    model = constant_model(problem.hierarchy, 1.0)
    space = problem.macro_space()
    op = effective_operator(problem, model, space)
    z = solve_dual(op, Functional.domain_integral())
    u = solve(op, assemble_rhs(space, 1.0))
    assert np.allclose(z.values, u.values, rtol=1e-12)


def test_effective_dual_duality_identity():
    problem = advection_problem(h_micro=2.0**-5)
    model = constant_model(problem.hierarchy, 0.1)
    space = problem.macro_space()
    op = effective_operator(problem, model, space)
    rhs = problem_rhs(problem, space)
    U = solve(op, rhs)
    z = solve_dual(op, problem.functional)
    assert np.isclose(
        apply_functional(problem.functional, U), float(rhs @ z.values), rtol=1e-10
    )


def test_zero_functional_zero_effective_dual():
    problem = lognormal_problem()
    model = constant_model(problem.hierarchy, 1.0)
    space = problem.macro_space()
    op = effective_operator(problem, model, space)
    z = solve_dual(op, np.zeros(space.n_dofs))
    assert not np.any(z.values)


def test_enhancement_vanishes_for_exact_model():
    # constant fine field equal to the model, dual solved on the micro space:
    # the patch residual is zero, hence the correction is zero
    hierarchy = build_hierarchy(Domain(), 0.5, 0.25, 0.125)
    from dwropt.fem import Problem

    problem = Problem(
        hierarchy=hierarchy,
        coefficient=CoefficientField.constant(2.0),
        functional=Functional.domain_integral(),
        source=1.0,
    )
    model = constant_model(hierarchy, 2.0)
    fine = problem.fine_space(hierarchy.h_micro)
    z_micro = solve_dual(fine_operator(problem, fine), problem.functional)
    _, _, z_k, _ = local_enhancement(problem, z_micro, 0, depth=1)
    assert np.abs(z_k.values).max() <= 1e-12 * max(np.abs(z_micro.values).max(), 1.0)


def test_enhancement_on_whole_domain_recovers_fine_dual():
    problem = lognormal_problem(delta=1.0, h_macro=0.25, h_micro=2.0**-5, raster_n=32)
    model = geometric_mean_model(problem.coefficient, problem.hierarchy)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    z_eff = solve_dual(op, problem.functional)
    fine = problem.fine_space(2.0**-5)
    z_fine = solve_dual(fine_operator(problem, fine), problem.functional)
    patch, patch_space, z_k, _ = local_enhancement(problem, z_eff, 0, depth=1)
    zi = evaluate(z_eff, patch_space.grid.node_coords)
    assert np.allclose(zi + z_k.values, z_fine.values, atol=1e-10 * np.abs(z_fine.values).max())


def test_enhancement_depth_improves_most_cells():
    problem = lognormal_problem(
        delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-5, raster_n=32, seed=19
    )
    hierarchy = problem.hierarchy
    model = geometric_mean_model(problem.coefficient, hierarchy)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    z_eff = solve_dual(op, problem.functional)
    fine = problem.fine_space(hierarchy.h_micro)
    z_fine = solve_dual(fine_operator(problem, fine), problem.functional)

    def cell_error(k, depth):
        patch, patch_space, z_k, _ = local_enhancement(problem, z_eff, k, depth)
        bbox = hierarchy.sampling_bbox(k)
        ids = patch_space.grid.subgrid_node_ids(bbox)
        zi = evaluate(z_eff, patch_space.grid.node_coords)
        approx = zi[ids] + z_k.values[ids]
        exact = z_fine.values[z_fine.space.grid.subgrid_node_ids(bbox)]
        cell_grid = hierarchy.micro_grid(bbox)
        diff4 = gather(cell_grid, exact - approx)
        return float(np.sum(grad_sq_percell(cell_grid, diff4)))

    improved = sum(
        cell_error(k, 1) <= cell_error(k, 0) * (1.0 + 1e-12)
        for k in range(hierarchy.n_sampling)
    )
    assert improved >= 0.9 * hierarchy.n_sampling


def test_indicators_vanish_for_constant_coefficient():
    hierarchy = build_hierarchy(Domain(), 0.5, 0.25, 0.125)
    from dwropt.fem import Problem

    problem = Problem(
        hierarchy=hierarchy,
        coefficient=CoefficientField.constant(3.0),
        functional=Functional.domain_integral(),
        source=1.0,
    )
    model = constant_model(hierarchy, 3.0)
    U, u_fine, z_fine, _ = solve_states(problem, model, hierarchy.h_micro)
    err = error_identity(problem, model, U, DualApproximation("full", z_fine))
    assert np.abs(err.eta).max() <= 1e-14
    assert abs(err.theta_delta) <= 1e-14


def test_exact_discrete_error_identity_diffusion():
    problem = lognormal_problem(
        delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-5, raster_n=32, seed=11
    )
    model = geometric_mean_model(problem.coefficient, problem.hierarchy)
    U, u_fine, z_fine, _ = solve_states(problem, model, problem.hierarchy.h_micro)
    err = error_identity(problem, model, U, DualApproximation("full", z_fine))
    lhs = apply_functional(problem.functional, u_fine) - apply_functional(
        problem.functional, U
    )
    rhs = err.theta_H + err.theta_delta
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_exact_discrete_error_identity_advection():
    problem = advection_problem(h_micro=2.0**-5)
    hierarchy = problem.hierarchy
    model = constant_model(hierarchy, 0.1)
    U, u_fine, z_fine, _ = solve_states(problem, model, hierarchy.h_micro)
    err = error_identity(problem, model, U, DualApproximation("full", z_fine))
    lhs = apply_functional(problem.functional, u_fine) - apply_functional(
        problem.functional, U
    )
    rhs = err.theta_H + err.theta_delta
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_theta_macro_vanishes_with_galerkin_dual():
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    model = geometric_mean_model(problem.coefficient, problem.hierarchy)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    z_eff = solve_dual(op, problem.functional)
    err = error_identity(problem, model, U, DualApproximation("effective", z_eff))
    assert abs(err.theta_H) <= 1e-10


def test_indicator_additivity():
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    model = geometric_mean_model(problem.coefficient, problem.hierarchy)
    U, _, z_fine, _ = solve_states(problem, model, problem.hierarchy.h_micro)
    err = error_identity(problem, model, U, DualApproximation("full", z_fine))
    assert np.isclose(err.theta_delta, err.eta.sum(), rtol=1e-12)


def test_indicators_linear_in_functional():
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    model = geometric_mean_model(problem.coefficient, problem.hierarchy)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    fine = problem.fine_space(problem.hierarchy.h_micro)
    fop = fine_operator(problem, fine)
    from dwropt.fem import functional_vector

    jvec = functional_vector(fine, problem.functional)
    z1 = solve_dual(fop, jvec)
    z3 = solve_dual(fop, 3.0 * jvec)
    e1 = error_identity(problem, model, U, DualApproximation("full", z1))
    e3 = error_identity(problem, model, U, DualApproximation("full", z3))
    assert np.allclose(3.0 * e1.eta, e3.eta, rtol=1e-12, atol=1e-16)
    assert np.isclose(3.0 * e1.theta_H, e3.theta_H, rtol=1e-10)


@pytest.mark.parametrize("fine_ratio", [1, 2], ids=["micro", "half_micro"])
def test_full_dual_effectivity_is_one(fine_ratio):
    # the two fine spacings a full dual may use: h_micro and h_micro / 2
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5, seed=23)
    model = geometric_mean_model(problem.coefficient, problem.hierarchy)
    U, u_fine, z_fine, _ = solve_states(problem, model, problem.hierarchy.h_micro / fine_ratio)
    j_ref = apply_functional(problem.functional, u_fine)
    err = error_identity(problem, model, U, DualApproximation("full", z_fine), j_reference=j_ref)
    assert err.i_eff is not None
    assert abs(err.i_eff - 1.0) <= 1e-9


def test_effectivity_single_cell_i_loc():
    eta = np.array([0.25])
    err = ErrorBreakdown(theta_H=0.0, eta=eta, j_of_U=1.0, j_reference=1.3)
    assert err.theta_delta == 0.25
    assert err.i_loc == 1.0
    assert err.i_eff == pytest.approx(0.25 / 0.3)


def test_effectivity_zero_true_error():
    eta = np.array([0.1, -0.1])
    err = ErrorBreakdown(theta_H=0.0, eta=eta, j_of_U=1.0, j_reference=1.0)
    assert err.i_eff is None


def test_enhanced_single_patch_degenerates_to_full():
    problem = lognormal_problem(delta=1.0, h_macro=0.25, h_micro=2.0**-5, raster_n=32)
    model = geometric_mean_model(problem.coefficient, problem.hierarchy)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    z_eff = solve_dual(op, problem.functional)
    fine = problem.fine_space(2.0**-5)
    z_fine = solve_dual(fine_operator(problem, fine), problem.functional)
    full = error_identity(problem, model, U, DualApproximation("full", z_fine))
    enh = error_identity(problem, model, U, DualApproximation("enhanced", z_eff, depth=1))
    assert np.isclose(full.eta[0], enh.eta[0], rtol=1e-9)


def test_enhanced_identity_runs_on_advection(tmp_path):
    problem = advection_problem(h_micro=2.0**-5)
    hierarchy = problem.hierarchy
    model = constant_model(hierarchy, 0.1)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    z_eff = solve_dual(op, problem.functional)
    err = error_identity(problem, model, U, DualApproximation("enhanced", z_eff, depth=1))
    assert np.isfinite(err.theta_delta)
    assert abs(err.theta_H) <= 1e-10
    path = tmp_path / "breakdown.csv"
    err.to_csv(path, hierarchy)
    text = path.read_text()
    assert text.startswith("cell_i,cell_j,eta_K")
    assert "# summary,theta_H=" in text


def _sampled_directly(problem, grid):
    """Fine data of ``grid`` sampled on the grid itself."""
    a_eps = problem.coefficient.tensors_at(grid.cell_centers)
    b_delta = CellAveragedAdvection(problem.hierarchy, problem.average_advection())
    fluct = advection_element_matrices(grid, problem.advection)
    return a_eps, fluct - advection_element_matrices(grid, b_delta)


@pytest.mark.parametrize("fine_ratio", [1, 2], ids=["micro", "full_dual_half_h"])
def test_fine_data_slice_equals_direct_sampling(fine_ratio):
    # the global fine data sliced to a patch must be bit-identical to
    # sampling the patch grid itself, on an interior, an edge and a corner
    # patch; fine_ratio 2 is the full-dual grid with h_fine = h_micro / 2
    problem = advection_problem(h_micro=2.0**-5, drift_max=1.5, confine_eddies=True)
    hierarchy = problem.hierarchy
    fine = hierarchy.fine_grid(hierarchy.h_micro / fine_ratio)
    g = hierarchy.sampling_grid
    for k in (g.cell_id(1, 2), g.cell_id(0, 3), g.cell_id(g.nx - 1, g.ny - 1)):
        grid = fine.subgrid(hierarchy.patch_of(k, 1).bbox)
        a_eps, fluct = _fine_data(problem, grid)
        a_ref, fluct_ref = _sampled_directly(problem, grid)
        assert fluct.shape == (grid.n_cells, 4, 4)
        assert np.array_equal(a_eps, a_ref)
        assert np.array_equal(fluct, fluct_ref)
