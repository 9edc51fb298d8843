import numpy as np
import pytest

from conftest import advection_problem, lognormal_problem
from dwropt import dwr, fem
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
    advection_elements,
    apply_functional,
    assemble_diffusion,
    assemble_rhs,
    effective_operator,
    fine_operator,
    gather,
    gauss_values,
    lattice_plan,
    lattice_values,
    problem_rhs,
    solve,
    solve_dual,
)
from dwropt.field import CoefficientField
from dwropt.mesh import Domain, build_hierarchy
from dwropt.optim import OptimizerConfig, assemble_system, primal_dual
from dwropt.upscale import constant_model, geometric_mean_model


def grad_sq_percell(grid, u4):
    """int_cell |grad u|^2 (exact for bilinear u)."""
    _, w, _, dphi = _gauss_points_physical(grid)
    du = np.einsum("cp,qpd->cqd", u4, dphi)
    return np.einsum("q,cqd->c", w, du**2)


def solve_states(problem, model):
    """Primal U on the macro space, fine primal and fine dual."""
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    fine = problem.fine_space()
    fop = fine_operator(problem)
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
    z_micro = solve_dual(fine_operator(problem), problem.functional)
    _, _, _, z_k, _ = local_enhancement(problem, z_micro, 0, depth=1)
    assert np.abs(z_k.values).max() <= 1e-12 * max(np.abs(z_micro.values).max(), 1.0)


def test_enhancement_on_whole_domain_recovers_fine_dual():
    problem = lognormal_problem(delta=1.0, h_macro=0.25, h_micro=2.0**-5, raster_n=32)
    model = geometric_mean_model(problem)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    z_eff = solve_dual(op, problem.functional)
    z_fine = solve_dual(fine_operator(problem), problem.functional)
    _, _, zi, z_k, _ = local_enhancement(problem, z_eff, 0, depth=1)
    assert np.allclose(zi + z_k.values, z_fine.values, atol=1e-10 * np.abs(z_fine.values).max())


def test_enhancement_depth_improves_most_cells():
    problem = lognormal_problem(
        delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-5, raster_n=32, seed=19
    )
    hierarchy = problem.hierarchy
    model = geometric_mean_model(problem)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    z_eff = solve_dual(op, problem.functional)
    z_fine = solve_dual(fine_operator(problem), problem.functional)

    def cell_error(k, depth):
        _, patch_space, zi, z_k, _ = local_enhancement(problem, z_eff, k, depth)
        bbox = hierarchy.sampling_bbox(k)
        approx = patch_space.grid.restrict(zi + z_k.values, bbox, nodal=True)
        exact = z_fine.space.grid.restrict(z_fine.values, bbox, nodal=True)
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
    U, u_fine, z_fine, op = solve_states(problem, model)
    err = error_identity(problem, model, op, U, DualApproximation("full", z_fine))
    assert np.abs(err.eta).max() <= 1e-14
    assert abs(err.theta_delta) <= 1e-14


def test_exact_discrete_error_identity_diffusion():
    problem = lognormal_problem(
        delta=2.0**-2, h_macro=2.0**-4, h_micro=2.0**-5, raster_n=32, seed=11
    )
    model = geometric_mean_model(problem)
    U, u_fine, z_fine, op = solve_states(problem, model)
    err = error_identity(problem, model, op, U, DualApproximation("full", z_fine))
    lhs = apply_functional(problem.functional, u_fine) - apply_functional(
        problem.functional, U
    )
    rhs = err.theta_H + err.theta_delta
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_exact_discrete_error_identity_advection():
    problem = advection_problem(h_micro=2.0**-5)
    hierarchy = problem.hierarchy
    model = constant_model(hierarchy, 0.1)
    U, u_fine, z_fine, op = solve_states(problem, model)
    err = error_identity(problem, model, op, U, DualApproximation("full", z_fine))
    lhs = apply_functional(problem.functional, u_fine) - apply_functional(
        problem.functional, U
    )
    rhs = err.theta_H + err.theta_delta
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_theta_macro_vanishes_with_galerkin_dual():
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    model = geometric_mean_model(problem)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    z_eff = solve_dual(op, problem.functional)
    err = error_identity(problem, model, op, U, DualApproximation("effective", z_eff))
    assert abs(err.theta_H) <= 1e-10


def test_indicator_additivity():
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    model = geometric_mean_model(problem)
    U, _, z_fine, op = solve_states(problem, model)
    err = error_identity(problem, model, op, U, DualApproximation("full", z_fine))
    assert np.isclose(err.theta_delta, err.eta.sum(), rtol=1e-12)


def test_indicators_linear_in_functional():
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    model = geometric_mean_model(problem)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    fine = problem.fine_space()
    fop = fine_operator(problem)
    from dwropt.fem import functional_vector

    jvec = functional_vector(fine, problem.functional)
    z1 = solve_dual(fop, jvec)
    z3 = solve_dual(fop, 3.0 * jvec)
    e1 = error_identity(problem, model, op, U, DualApproximation("full", z1))
    e3 = error_identity(problem, model, op, U, DualApproximation("full", z3))
    assert np.allclose(3.0 * e1.eta, e3.eta, rtol=1e-12, atol=1e-16)
    assert np.isclose(3.0 * e1.theta_H, e3.theta_H, rtol=1e-10)


def test_full_dual_effectivity_is_one():
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5, seed=23)
    model = geometric_mean_model(problem)
    U, u_fine, z_fine, op = solve_states(problem, model)
    j_ref = apply_functional(problem.functional, u_fine)
    err = error_identity(
        problem, model, op, U, DualApproximation("full", z_fine), j_reference=j_ref
    )
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
    model = geometric_mean_model(problem)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    z_eff = solve_dual(op, problem.functional)
    z_fine = solve_dual(fine_operator(problem), problem.functional)
    full = error_identity(problem, model, op, U, DualApproximation("full", z_fine))
    enh = error_identity(problem, model, op, U, DualApproximation("enhanced", z_eff, depth=1))
    assert np.isclose(full.eta[0], enh.eta[0], rtol=1e-9)


def test_enhanced_identity_runs_on_advection(tmp_path):
    problem = advection_problem(h_micro=2.0**-5)
    hierarchy = problem.hierarchy
    model = constant_model(hierarchy, 0.1)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    z_eff = solve_dual(op, problem.functional)
    err = error_identity(problem, model, op, U, DualApproximation("enhanced", z_eff, depth=1))
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
    fluct = advection_elements(grid, gauss_values(grid, problem.advection))
    cells = problem.hierarchy.sampling_grid.locate(grid.cell_centers, clip=True)
    b_delta = problem.average_advection()[cells]  # one vector per cell
    return a_eps, fluct - advection_elements(grid, b_delta, skew=False)


def test_fine_data_slice_equals_direct_sampling():
    # the global fine data sliced to a patch must be bit-identical to
    # sampling the patch grid itself, on an interior, an edge and a corner
    # patch
    problem = advection_problem(h_micro=2.0**-5, drift_max=1.5, confine_eddies=True)
    hierarchy = problem.hierarchy
    fine = hierarchy.fine_grid
    g = hierarchy.sampling_grid
    for k in (g.cell_id(1, 2), g.cell_id(0, 3), g.cell_id(g.nx - 1, g.ny - 1)):
        grid = fine.subgrid(hierarchy.patch_of(k, 1).bbox)
        a_eps, fluct = _fine_data(problem, grid)
        a_ref, fluct_ref = _sampled_directly(problem, grid)
        assert fluct.shape == (grid.n_cells, 4, 4)
        assert np.array_equal(a_eps, a_ref)
        assert np.array_equal(fluct, fluct_ref)


@pytest.mark.parametrize("advective", [False, True], ids=["diffusion", "advective"])
def test_full_dual_theta_h_is_summed_per_fine_cell(advective):
    # the full dual's theta_H contracts the effective element matrices with
    # z and the interpolated U cell by cell: it builds no operator and no
    # plan on the fine grid, and equals rhs.z - z.(A_eff U) with A_eff
    # assembled there, to rounding
    if advective:
        problem = advection_problem(h_micro=2.0**-5, drift_max=1.5)
        model = constant_model(problem.hierarchy, 0.1)
    else:
        problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
        model = geometric_mean_model(problem)
    op, U, dual = primal_dual(problem, model, OptimizerConfig(dual_mode="full"))
    lattice_plan.cache_clear()
    theta_H = dwr._theta_H(problem, model, op, U, dual.z_global)
    assert lattice_plan.cache_info().currsize == 0
    fine, z = problem.fine_space(), dual.z_global.values
    rhs_z = problem_rhs(problem, fine) @ z
    a_eff = effective_operator(problem, model, fine).matrix
    assembled = rhs_z - z @ (a_eff @ lattice_values(U, fine.grid).ravel())
    assert abs(theta_H - assembled) <= 1e-12 * abs(rhs_z)
    lattice_plan.cache_clear()


def test_sweeps_keep_one_plan_per_patch_shape():
    # depth-1 and depth-0 sweeps on the 4 x 8 sampling grid meet five patch
    # shapes; with the macro grid they build six lattice plans, each once
    lattice_plan.cache_clear()
    problem = advection_problem(h_micro=2.0**-5, drift_max=1.5)
    hierarchy = problem.hierarchy
    model = constant_model(hierarchy, 0.1)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    z = solve_dual(op, problem.functional)
    patterns = set()
    for depth in (1, 0):
        error_identity(problem, model, op, U, DualApproximation("enhanced", z, depth))
        for k in range(hierarchy.n_sampling):
            space = problem.space(hierarchy.micro_grid(hierarchy.patch_of(k, depth).bbox))
            patterns.add((space.grid.shape, space.dirichlet_nodes.tobytes()))
    shapes = {shape for shape, _ in patterns}
    assert len(shapes) == 5 and macro.grid.shape not in shapes
    built = lattice_plan.cache_info()
    assert built.misses == built.currsize == 6
    for shape in shapes | {macro.grid.shape}:
        lattice_plan(shape)
    assert lattice_plan.cache_info().misses == 6


def test_sweep_caches_stay_within_their_caps():
    # a depth-1 and a depth-0 sweep on the figure-5 domain key one
    # interpolation table per patch side (two and three sampling cells) and
    # the sampling cell's side, 8 bytes per entry each, and one interior
    # block pattern per shape of the patches whose boundary is all
    # constrained, about 76 bytes per interior node
    fem.lattice_matrix.cache_clear()
    fem.interior_block.cache_clear()
    problem = advection_problem(h_micro=2.0**-5, drift_max=1.5)
    hierarchy = problem.hierarchy
    model = constant_model(hierarchy, 0.1)
    macro = problem.macro_space()
    op = effective_operator(problem, model, macro)
    U = solve(op, problem_rhs(problem, macro))
    z = solve_dual(op, problem.functional)
    shapes = set()
    for depth in (1, 0):
        error_identity(problem, model, op, U, DualApproximation("enhanced", z, depth))
        for k in range(hierarchy.n_sampling):
            grid = hierarchy.micro_grid(hierarchy.patch_of(k, depth).bbox)
            if problem.space(grid).dirichlet_nodes.size == 2 * (grid.nx + grid.ny):
                shapes.add(grid.shape)
    side = round(hierarchy.delta / hierarchy.h_micro)
    ratio = round(hierarchy.h_macro / hierarchy.h_micro)
    keys = {(n * side + 1, ratio) for n in (1, 2, 3)}
    tables = fem.lattice_matrix.cache_info()
    assert tables.misses == tables.currsize == len(keys) <= tables.maxsize
    for n, ratio in keys:
        assert fem.lattice_matrix(n, ratio).nbytes == 8 * n * ((n - 1) // ratio + 1)
    assert fem.lattice_matrix.cache_info().misses == len(keys)
    blocks = fem.interior_block.cache_info()
    assert blocks.misses == blocks.currsize == len(shapes) == 3 <= blocks.maxsize
    for shape in shapes:
        assert (shape[0] + 1) * (shape[1] + 1) <= fem.BLOCK_CACHE_NODES
        interior = (shape[0] - 1) * (shape[1] - 1)
        block = fem.interior_block(shape)
        assert sum(a.nbytes for a in (block.indptr, block.indices, block.data)) <= 76 * interior
    assert fem.interior_block.cache_info().misses == len(shapes)


@pytest.mark.parametrize("mode", ["enhanced", "full", "effective"])
def test_sweeps_without_jacobian_build_no_response_contraction(monkeypatch, mode):
    # error_identity and a sweep without Jacobian (the last cycle) read the
    # center cell alone; only a Jacobian sweep builds the contraction
    def refuse(self):
        raise AssertionError("the response contraction was built")

    monkeypatch.setattr(dwr._PatchContext, "_contraction", refuse)
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    model = geometric_mean_model(problem)
    op, U, dual = primal_dual(problem, model, OptimizerConfig(dual_mode=mode))
    err = error_identity(problem, model, op, U, dual)
    eta, triplets = assemble_system(problem, model, U, op, dual, want_jacobian=False)
    assert triplets is None and np.array_equal(eta, err.eta)
    with pytest.raises(AssertionError, match="contraction"):
        assemble_system(problem, model, U, op, dual)
