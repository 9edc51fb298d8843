import numpy as np
import pytest

from conftest import advection_problem, figure5_domain, lognormal_problem
from dwropt.errors import ConfigurationError, SingularOperatorError
from dwropt.fem import (
    DiscreteField,
    FeSpace,
    Functional,
    SparseOperator,
    apply_functional,
    assemble_advection,
    assemble_diffusion,
    assemble_rhs,
    effective_operator,
    evaluate,
    fine_operator,
    functional_vector,
    interpolate,
    problem_rhs,
    q1_blocks,
    solve,
    solve_dual,
)
from dwropt.field import CoefficientField, gen_gaussian_raster
from dwropt.mesh import Domain, Grid, build_hierarchy
from dwropt.upscale import constant_model


def unit_space(n, dirichlet=("left", "right", "bottom", "top")):
    grid = Grid((0.0, 0.0), (1.0 / n, 1.0 / n), (n, n))
    return FeSpace(grid, Domain(), dirichlet)


def test_q1_element_blocks_match_hand_values():
    k, mass = q1_blocks(1.0, 1.0)
    laplace = k[0, 0] + k[1, 1]
    classical = (
        np.array(
            [
                [4.0, -1.0, -1.0, -2.0],
                [-1.0, 4.0, -2.0, -1.0],
                [-1.0, -2.0, 4.0, -1.0],
                [-2.0, -1.0, -1.0, 4.0],
            ]
        )
        / 6.0
    )
    assert np.allclose(laplace, classical)
    assert np.allclose(mass.sum(), 1.0)


def test_interior_laplacian_diagonal():
    space = unit_space(8)
    op = assemble_diffusion(space, CoefficientField.constant(1.0))
    node = 4 * 9 + 4
    assert np.isclose(op.matrix[node, node], 8.0 / 3.0)


def test_effective_model_linearity():
    hierarchy = build_hierarchy(Domain(), 0.5, 0.25, 0.125)
    space = FeSpace(hierarchy.macro_grid, Domain(), ("left", "right", "bottom", "top"))
    one = assemble_diffusion(space, constant_model(hierarchy, 1.0))
    three = assemble_diffusion(space, constant_model(hierarchy, 3.0))
    assert np.allclose(three.matrix.toarray(), 3.0 * one.matrix.toarray())


def test_stiffness_symmetry():
    problem = lognormal_problem()
    space = problem.fine_space(problem.hierarchy.h_micro)
    op = assemble_diffusion(space, problem.coefficient)
    diff = np.abs((op.matrix - op.matrix.T).toarray()).max()
    assert diff <= 1e-12 * np.abs(op.matrix.toarray()).max()


def test_zero_advection_matrix():
    from dwropt.field import AdvectionField

    space = unit_space(4)
    op = assemble_advection(space, AdvectionField.zero())
    assert op.matrix.nnz == 0 or np.abs(op.matrix.toarray()).max() == 0.0


class _ConstantB:
    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=float)

    def values_at(self, points):
        return np.broadcast_to(self.vec, (len(np.atleast_2d(points)), 2)).copy()


def test_constant_advection_applied_to_linear_field():
    n = 8
    space = unit_space(n)
    op = assemble_advection(space, _ConstantB((2.0, 0.0)))
    u = space.grid.node_coords[:, 0]
    result = op.matrix @ u
    jvec = functional_vector(space, Functional.domain_integral())
    free_interior = space.free_nodes
    assert np.allclose(result[free_interior], 2.0 * jvec[free_interior], rtol=1e-12, atol=1e-14)


def test_divergence_free_skew_symmetry():
    problem = advection_problem(h_micro=2.0**-5)
    space = problem.fine_space(2.0**-5)
    op = assemble_advection(space, problem.advection)
    rng = np.random.default_rng(3)
    scale = np.abs(op.matrix).sum()
    for _ in range(5):
        u = np.zeros(space.n_dofs)
        interior = np.setdiff1d(
            space.free_nodes,
            np.nonzero(
                (space.grid.node_coords[:, 0] % 1.0 == 0.0)
                | (space.grid.node_coords[:, 1] % 2.0 == 0.0)
            )[0],
        )
        u[interior] = rng.standard_normal(len(interior))
        assert abs(u @ (op.matrix @ u)) <= 1e-10 * scale * (u @ u)


def test_rhs_constant_source_interior_entries():
    n = 8
    space = unit_space(n)
    rhs = assemble_rhs(space, 1.0)
    node = 3 * (n + 1) + 3
    assert np.isclose(rhs[node], (1.0 / n) ** 2)


def test_rhs_edge_flux_partition_of_unity():
    domain = figure5_domain()
    hierarchy = build_hierarchy(domain, 0.25, 0.125, 0.0625)
    space = FeSpace(hierarchy.macro_grid, domain, ("gamma_d",))
    rhs = assemble_rhs(space, 0.0, (("gamma_e", 1.0),))
    bottom = np.nonzero(space.grid.node_coords[:, 1] == 0.0)[0]
    assert np.isclose(rhs[bottom].sum(), 1.0)
    assert np.isclose(rhs.sum(), 1.0)


def test_rhs_zero():
    space = unit_space(4)
    assert not np.any(assemble_rhs(space, 0.0))


def test_rhs_unknown_marker_rejected():
    space = unit_space(4)
    with pytest.raises(ConfigurationError, match="unknown boundary marker"):
        assemble_rhs(space, 0.0, (("gamma_x", 1.0),))


def test_solve_identity_operator():
    import scipy.sparse as sp

    space = unit_space(4)
    op = SparseOperator(sp.identity(space.n_dofs, format="csr"), space)
    rhs = np.arange(space.n_dofs, dtype=float)
    x = solve(op, rhs)
    free = space.free_nodes
    assert np.allclose(x.values[free], rhs[free])
    assert np.allclose(x.values[space.dirichlet_nodes], 0.0)


def test_solver_residual_contract():
    problem = lognormal_problem()
    space = problem.fine_space(2.0**-6)
    op = fine_operator(problem, space)
    rhs = problem_rhs(problem, space)
    u = solve(op, rhs)
    free = space.free_nodes
    res = op.matrix[free][:, free] @ u.values[free] - rhs[free]
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs[free])


def test_transposed_solve_residual_contract_with_advection():
    # the patch dual's path: a transposed solve with a non-symmetric operator
    problem = advection_problem()
    model = constant_model(problem.hierarchy, 0.1)
    space = problem.fine_space(2.0**-6)
    op = effective_operator(problem, model, space)
    free = space.free_nodes
    a_ff = op.matrix[free][:, free]
    assert abs(a_ff - a_ff.T).max() > 1e-3 * abs(a_ff).max()
    rhs = functional_vector(space, problem.functional)
    z = op.solve_constrained(rhs, transpose=True)
    res = a_ff.T @ z[free] - rhs[free]
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs[free])


def test_factorization_fills_less_than_default_ordering():
    from scipy.sparse.linalg import splu

    problem = lognormal_problem()
    space = problem.fine_space(2.0**-6)
    op = fine_operator(problem, space)
    free = space.free_nodes
    default = splu(op.matrix[free][:, free].tocsc())
    assert op._factorize().nnz < default.nnz


def test_factorization_cached_across_solves():
    space = unit_space(8)
    op = assemble_diffusion(space, CoefficientField.constant(1.0))
    solve(op, assemble_rhs(space, 1.0))
    assert op.factorization_count == 1
    solve(op, assemble_rhs(space, 2.0))
    solve_dual(op, Functional.domain_integral())
    assert op.factorization_count == 1


def test_singular_operator_reported():
    import scipy.sparse as sp

    space = unit_space(4)
    op = SparseOperator(sp.csr_matrix((space.n_dofs, space.n_dofs)), space)
    with pytest.raises(SingularOperatorError, match="dof"):
        solve(op, np.ones(space.n_dofs))


def test_poisson_functional_richardson_ratio():
    j = Functional.domain_integral()
    reference = None
    values = {}
    for n in (8, 16, 128):
        space = unit_space(n)
        op = assemble_diffusion(space, CoefficientField.constant(1.0))
        u = solve(op, assemble_rhs(space, 1.0))
        values[n] = apply_functional(j, u)
    reference = values[128]
    e8 = abs(values[8] - reference)
    e16 = abs(values[16] - reference)
    assert 3.3 <= e8 / e16 <= 4.7


def test_solve_dual_symmetric_equals_solve():
    space = unit_space(8)
    op = assemble_diffusion(space, CoefficientField.constant(2.0))
    j = Functional.domain_integral()
    z = solve_dual(op, j)
    u = solve(op, functional_vector(space, j))
    assert np.allclose(z.values, u.values)


def test_zero_functional_zero_dual():
    space = unit_space(8)
    op = assemble_diffusion(space, CoefficientField.constant(1.0))
    z = solve_dual(op, np.zeros(space.n_dofs))
    assert not np.any(z.values)


def test_primal_dual_duality_with_advection():
    problem = advection_problem(h_micro=2.0**-5)
    space = problem.fine_space(2.0**-5)
    op = fine_operator(problem, space)
    rhs = problem_rhs(problem, space)
    u = solve(op, rhs)
    z = solve_dual(op, problem.functional)
    ju = apply_functional(problem.functional, u)
    assert np.isclose(ju, float(rhs @ z.values), rtol=1e-10)


def test_apply_functional_constant_field():
    space = unit_space(8)
    u = DiscreteField(space, np.ones(space.n_dofs))
    assert np.isclose(apply_functional(Functional.domain_integral(), u), 1.0)


def test_apply_functional_point_value():
    space = unit_space(8)
    u = DiscreteField(space, space.grid.node_coords[:, 0].copy())
    j = Functional.point_value((0.25, 0.5))
    assert np.isclose(apply_functional(j, u), 0.25)


def test_apply_functional_boundary_integral():
    domain = figure5_domain()
    hierarchy = build_hierarchy(domain, 0.25, 0.125, 0.0625)
    space = FeSpace(hierarchy.macro_grid, domain, ("gamma_d",))
    u = DiscreteField(space, np.ones(space.n_dofs))
    assert np.isclose(apply_functional(Functional.boundary_integral("gamma_b"), u), 1.0)


def test_point_functional_outside_raises():
    space = unit_space(4)
    with pytest.raises(Exception):
        functional_vector(space, Functional.point_value((2.0, 0.5)))


def test_galerkin_orthogonality():
    problem = lognormal_problem()
    space = problem.macro_space()
    model = constant_model(problem.hierarchy, 1.5)
    op = effective_operator(problem, model, space)
    rhs = problem_rhs(problem, space)
    u = solve(op, rhs)
    rng = np.random.default_rng(5)
    for _ in range(4):
        phi = np.zeros(space.n_dofs)
        phi[space.free_nodes] = rng.standard_normal(len(space.free_nodes))
        residual = float(rhs @ phi) - float(phi @ (op.matrix @ u.values))
        assert abs(residual) <= 1e-10 * max(1.0, abs(float(rhs @ phi)))


def test_nested_space_form_consistency():
    hierarchy = build_hierarchy(Domain(), 0.5, 0.25, 0.0625)
    domain = Domain()
    model = constant_model(hierarchy, 1.0)
    rng = np.random.default_rng(2)
    model = model.with_tensors(
        np.array([np.diag(d) for d in rng.uniform(0.5, 2.0, size=(4, 2))]), "random"
    )
    coarse = FeSpace(hierarchy.macro_grid, domain, ())
    fine = FeSpace(hierarchy.fine_grid(0.0625), domain, ())
    a_coarse = assemble_diffusion(coarse, model)
    a_fine = assemble_diffusion(fine, model)
    u = DiscreteField(coarse, rng.standard_normal(coarse.n_dofs))
    v = DiscreteField(coarse, rng.standard_normal(coarse.n_dofs))
    coarse_val = float(v.values @ (a_coarse.matrix @ u.values))
    uf = interpolate(u, fine)
    vf = interpolate(v, fine)
    fine_val = float(vf.values @ (a_fine.matrix @ uf.values))
    assert np.isclose(coarse_val, fine_val, rtol=1e-12)


def test_energy_identity_nonnegative():
    problem = lognormal_problem()
    space = problem.fine_space(2.0**-6)
    op = assemble_diffusion(space, problem.coefficient)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u = rng.standard_normal(space.n_dofs)
        assert u @ (op.matrix @ u) >= 0.0


@pytest.mark.parametrize("ratio", [2.0, 2.0 / 3.0], ids=["coarser", "not_nested"])
def test_fine_data_rejects_spacing_not_dividing_h(ratio):
    # fine data lives on h_micro / n only, and nothing is sampled before
    # the spacing is checked
    class Unsampled:
        def tensors_at(self, points):
            raise AssertionError("the fine coefficient was sampled")

    problem = lognormal_problem(h_macro=2.0**-3, h_micro=2.0**-5)
    problem.coefficient = Unsampled()
    with pytest.raises(ConfigurationError, match="does not divide"):
        problem.fine_data(ratio * problem.hierarchy.h_micro)


def test_interpolation_exact_on_nested_refinement():
    problem = lognormal_problem()
    coarse = problem.macro_space()
    fine = problem.fine_space(problem.hierarchy.h_micro)
    rng = np.random.default_rng(6)
    u = DiscreteField(coarse, rng.standard_normal(coarse.n_dofs))
    uf = interpolate(u, fine)
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    assert np.allclose(evaluate(u, pts), evaluate(uf, pts), rtol=1e-13, atol=1e-14)


def test_patch_space_interior_cut_is_constrained():
    problem = lognormal_problem()
    hierarchy = problem.hierarchy
    patch = hierarchy.patch_of(0, 1)
    grid = hierarchy.micro_grid(patch.bbox)
    space = problem.space(grid)
    coords = grid.node_coords
    cut = (coords[:, 0] == patch.bbox[2]) | (coords[:, 1] == patch.bbox[3])
    assert np.all(np.isin(np.nonzero(cut)[0], space.dirichlet_nodes))


def test_neumann_markers_stay_free():
    domain = figure5_domain()
    hierarchy = build_hierarchy(domain, 0.25, 0.125, 0.0625)
    space = FeSpace(hierarchy.macro_grid, domain, ("gamma_d",))
    coords = hierarchy.macro_grid.node_coords
    # Dirichlet wins at the segment interface, so the split node is constrained
    on_dirichlet = (coords[:, 0] == 0.0) & (coords[:, 1] <= 1.0)
    assert np.all(np.isin(np.nonzero(on_dirichlet)[0], space.dirichlet_nodes))
    top = np.nonzero(coords[:, 1] == 2.0)[0]
    assert np.all(np.isin(top, space.free_nodes))
    upper_left = np.nonzero((coords[:, 0] == 0.0) & (coords[:, 1] > 1.0))[0]
    assert np.all(np.isin(upper_left, space.free_nodes))


def test_concurrent_solves_share_factorization():
    from concurrent.futures import ThreadPoolExecutor

    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    space = problem.fine_space(2.0**-5)
    op = fine_operator(problem, space)
    rng = np.random.default_rng(1)
    rhss = [rng.standard_normal(space.n_dofs) for _ in range(8)]
    serial = [op.solve_constrained(r) for r in rhss]
    assert op.factorization_count == 1
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(op.solve_constrained, rhss))
    assert op.factorization_count == 1
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_field_exports(tmp_path):
    space = unit_space(4)
    u = DiscreteField(space, np.linspace(0.0, 1.0, space.n_dofs))
    csv_path = tmp_path / "u.csv"
    vtk_path = tmp_path / "u.vtk"
    u.to_csv(csv_path)
    u.to_vtk(vtk_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == space.n_dofs + 1
    assert "STRUCTURED_POINTS" in vtk_path.read_text()
