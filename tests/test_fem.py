from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import advection_problem, figure5_domain, lognormal_problem
from dwropt import fem
from dwropt.cli import ExperimentConfig, build_initial_model, build_problem, read_config
from dwropt.dwr import _fine_data
from dwropt.errors import ConfigurationError, SingularOperatorError
from dwropt.fem import (
    DiscreteField,
    FeSpace,
    Functional,
    Problem,
    SparseOperator,
    advection_elements,
    apply_functional,
    assemble_advection,
    assemble_diffusion,
    assemble_rhs,
    diffusion_element_matrices,
    effective_operator,
    element_operator,
    evaluate,
    fine_operator,
    functional_vector,
    gauss_values,
    lattice_values,
    nested_dissection,
    problem_rhs,
    q1_blocks,
    solve,
    solve_dual,
)
from dwropt.field import CoefficientField, gen_gaussian_raster
from dwropt.mesh import Domain, Grid, build_hierarchy
from dwropt.upscale import constant_model

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    space = problem.fine_space()
    op = assemble_diffusion(space, problem.coefficient)
    diff = np.abs((op.matrix - op.matrix.T).toarray()).max()
    assert diff <= 1e-12 * np.abs(op.matrix.toarray()).max()


class _ConstantB:
    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=float)

    def values_on_lattice(self, xs, ys):
        return np.broadcast_to(self.vec, (len(ys), len(xs), 2)).copy()


def test_constant_advection_applied_to_linear_field():
    n = 8
    space = unit_space(n)
    op = assemble_advection(space, gauss_values(space.grid, _ConstantB((2.0, 0.0))))
    u = space.grid.node_coords[:, 0]
    result = op.matrix @ u
    jvec = functional_vector(space, Functional.domain_integral())
    free_interior = space.free_nodes
    assert np.allclose(result[free_interior], 2.0 * jvec[free_interior], rtol=1e-12, atol=1e-14)


def test_divergence_free_skew_symmetry():
    problem = advection_problem(h_micro=2.0**-5)
    space = problem.fine_space()
    op = assemble_advection(space, gauss_values(space.grid, problem.advection))
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


@pytest.mark.parametrize(
    "dirichlet, message",
    [(("left", "gamma_x"), "unknown boundary marker 'gamma_x'"), ((), "at least one Dirichlet")],
)
def test_problem_rejects_unknown_or_no_dirichlet_marker(dirichlet, message):
    # without a Dirichlet node the diffusion problem is singular
    with pytest.raises(ConfigurationError, match=message):
        Problem(
            hierarchy=build_hierarchy(Domain(), 0.5, 0.25, 0.125),
            coefficient=CoefficientField.constant(1.0),
            functional=Functional.domain_integral(),
            dirichlet=dirichlet,
        )


def test_solve_identity_operator():
    space = unit_space(4)
    op = SparseOperator(sp.identity(space.n_dofs, format="csr"), space)
    rhs = np.arange(space.n_dofs, dtype=float)
    x = solve(op, rhs)
    free = space.free_nodes
    assert np.allclose(x.values[free], rhs[free])
    assert np.allclose(x.values[space.dirichlet_nodes], 0.0)


def test_solver_residual_contract():
    problem = lognormal_problem()
    space = problem.fine_space()
    op = fine_operator(problem)
    rhs = problem_rhs(problem, space)
    u = solve(op, rhs)
    free = space.free_nodes
    res = op.matrix[free][:, free] @ u.values[free] - rhs[free]
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs[free])


def test_transposed_solve_residual_contract_with_advection():
    # the patch dual's path: a transposed solve with a non-symmetric operator
    problem = advection_problem()
    model = constant_model(problem.hierarchy, 0.1)
    space = problem.fine_space()
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
    space = problem.fine_space()
    op = fine_operator(problem)
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
    space = unit_space(4)
    op = SparseOperator(sp.csr_matrix((space.n_dofs, space.n_dofs)), space)
    with pytest.raises(SingularOperatorError, match="dof"):
        solve(op, np.ones(space.n_dofs))


def test_factor_memory_error_is_not_a_singular_operator(monkeypatch):
    # only SuperLU's RuntimeError means a singular system; any other failure
    # inside the factor propagates as itself
    space = unit_space(4)
    op = assemble_diffusion(space, CoefficientField.constant(1.0))

    def out_of_memory(matrix, **kw):
        raise MemoryError

    monkeypatch.setattr(fem, "splu", out_of_memory)
    with pytest.raises(MemoryError):
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
    space = problem.fine_space()
    op = fine_operator(problem)
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
    fine = FeSpace(hierarchy.fine_grid, domain, ())
    a_coarse = assemble_diffusion(coarse, model)
    a_fine = assemble_diffusion(fine, model)
    u = DiscreteField(coarse, rng.standard_normal(coarse.n_dofs))
    v = DiscreteField(coarse, rng.standard_normal(coarse.n_dofs))
    coarse_val = float(v.values @ (a_coarse.matrix @ u.values))
    uf = lattice_values(u, fine.grid).ravel()
    vf = lattice_values(v, fine.grid).ravel()
    fine_val = float(vf @ (a_fine.matrix @ uf))
    assert np.isclose(coarse_val, fine_val, rtol=1e-12)


def test_energy_identity_nonnegative():
    problem = lognormal_problem()
    space = problem.fine_space()
    op = assemble_diffusion(space, problem.coefficient)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u = rng.standard_normal(space.n_dofs)
        assert u @ (op.matrix @ u) >= 0.0


def test_interpolation_exact_on_nested_refinement():
    problem = lognormal_problem()
    coarse = problem.macro_space()
    fine = problem.fine_space()
    rng = np.random.default_rng(6)
    u = DiscreteField(coarse, rng.standard_normal(coarse.n_dofs))
    uf = DiscreteField(fine, lattice_values(u, fine.grid).ravel())
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


def _marked_edges_loop(space, marker):
    """Per-edge reference for ``marked_boundary_edges``: each boundary edge
    takes the first segment of its side whose split lies above its midpoint."""
    g, pairs, lengths = space.grid, [], []
    for side in ("left", "right", "bottom", "top"):
        dom_side = space._domain_side_of(side)
        if dom_side is None:
            continue
        ids, axis = space._side_nodes(side)
        h, base = g.spacing[axis], g.origin[axis]
        for e in range(len(ids) - 1):
            mid = base + (e + 0.5) * h
            segments = space.domain.boundary[dom_side]
            if next(m for m, split in segments if split is None or mid < split) == marker:
                pairs.append((ids[e], ids[e + 1]))
                lengths.append(h)
    return np.array(pairs, dtype=int).reshape(-1, 2), np.array(lengths, dtype=float)


SPLIT_DOMAIN = Domain(
    extent=(1.0, 2.0),
    boundary={
        # 0.3125 and 0.5625 are edge midpoints at spacing 0.125
        "left": (("gamma_a", 0.3125), ("gamma_b", 1.0), ("gamma_c", None)),
        "right": (("right", None),),
        "bottom": (("gamma_b", 0.5625), ("gamma_d", None)),
        "top": (("top", None),),
    },
)


@pytest.mark.parametrize(
    "origin, shape, empty",
    [((0.0, 0.0), (8, 16), set()), ((0.0, 0.75), (2, 4), {"gamma_a", "gamma_d", "right", "top"}),
     ((0.5, 0.5), (2, 2), set(SPLIT_DOMAIN.markers()))],
    ids=["domain", "patch_at_split", "interior_patch"],
)
def test_marked_boundary_edges_match_per_edge_loop(origin, shape, empty):
    space = FeSpace(Grid(origin, (0.125, 0.125), shape), SPLIT_DOMAIN, ())
    for marker in SPLIT_DOMAIN.markers():
        pairs, lengths = space.marked_boundary_edges(marker)
        ref_pairs, ref_lengths = _marked_edges_loop(space, marker)
        assert np.array_equal(pairs, ref_pairs)
        assert np.array_equal(lengths, ref_lengths)
        assert (lengths.size == 0) == (marker in empty)


def test_edge_with_midpoint_on_split_takes_the_upper_segment():
    space = FeSpace(Grid((0.0, 0.0), (0.125, 0.125), (8, 16)), SPLIT_DOMAIN, ())
    # left edge y in [0.25, 0.375] and bottom edge x in [0.5, 0.625]
    for edge, upper, lower in (((18, 27), "gamma_b", "gamma_a"), ((4, 5), "gamma_d", "gamma_b")):
        assert list(edge) in space.marked_boundary_edges(upper)[0].tolist()
        assert list(edge) not in space.marked_boundary_edges(lower)[0].tolist()


def patch_elements(problem, k):
    """Patch space around cell ``k`` and its fine element array: diffusion
    plus, for advective problems, the transport fluctuation."""
    hierarchy = problem.hierarchy
    grid = hierarchy.micro_grid(hierarchy.patch_of(k, 1).bbox)
    a_eps, fluct = _fine_data(problem, grid)
    elem = diffusion_element_matrices(grid, a_eps)
    return problem.space(grid), elem if fluct is None else elem + fluct


def coo_operator(grid, elems):
    """Sum of the COO to CSR assemblies of each (ncells, 4, 4) element array
    on ``grid``: the reference the lattice plan must reproduce bit for bit."""
    cn = grid.cell_nodes
    rows, cols = np.repeat(cn, 4, axis=1).ravel(), np.tile(cn, (1, 4)).ravel()
    shape = (grid.n_nodes, grid.n_nodes)
    parts = [sp.coo_matrix((e.ravel(), (rows, cols)), shape=shape).tocsr() for e in elems]
    return sum(parts[1:], parts[0])


def assert_bit_identical(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize(
    "case, k",
    [("interior", 5), ("neumann", 0), ("advective", 13)],
)
def test_patch_plan_assembles_the_coo_matrix_entry_for_entry(case, k):
    # the plan's scatter sums the element entries in the order of the COO to
    # CSR conversion: the same pattern and the same values, bit for bit.
    # Cell 0 of the figure-5 domain touches the Neumann side gamma_e.
    problem = {
        "interior": lognormal_problem,
        "neumann": lambda: advection_problem(h_micro=2.0**-5, target_max=0.0),
        "advective": lambda: advection_problem(h_micro=2.0**-5, drift_max=1.5),
    }[case]()
    space, elem = patch_elements(problem, k)
    assert_bit_identical(element_operator(space, elem).matrix, coo_operator(space.grid, [elem]))


@pytest.mark.parametrize("config", ["diffusion_small", "advdiff_small"])
def test_macro_and_fine_operators_assemble_the_coo_matrix(config):
    # the macro operator (diffusion plus, with transport, the plain b_delta
    # form) and the fine operator (one element array: diffusion plus, with
    # transport, F and the plain b_delta form, E_eps = F + E_delta) of a
    # shipped config go through a lattice plan too: each equals the sum of
    # the COO assemblies of its element arrays, bit for bit
    cfg = ExperimentConfig.from_ini(CONFIGS / f"{config}.ini")
    problem, _ = build_problem(read_config(cfg))
    model = build_initial_model(cfg, problem)
    macro = problem.macro_space()
    grid = macro.grid
    elems = [diffusion_element_matrices(grid, model.tensors_at(grid.cell_centers))]
    if problem.is_advective:
        elems.append(advection_elements(grid, problem.delta_values(grid), skew=False))
    n_forms = 2 if config == "advdiff_small" else 1
    assert len(elems) == n_forms
    planned = effective_operator(problem, model, macro).matrix
    assert_bit_identical(planned, coo_operator(grid, elems))

    fine = problem.fine_space()
    grid, a_eps, fluct = problem.fine_data()
    elem = diffusion_element_matrices(grid, a_eps)
    if fluct is not None:
        elem = elem + fluct + advection_elements(grid, problem.delta_values(grid), skew=False)
    assert (fluct is not None) == (n_forms == 2) and grid.shape == fine.grid.shape
    assert_bit_identical(fine_operator(problem).matrix, coo_operator(grid, [elem]))


def test_dissection_ordered_factor_matches_minimum_degree_factor():
    # the advective patches of cells 10 and 14 touch only the Neumann side
    # gamma_a; factored in the nested-dissection order, each block solves as
    # its minimum-degree factor does, plain and transposed, and fills no more
    from scipy.sparse.linalg import splu

    problem = advection_problem(h_micro=2.0**-5, drift_max=1.5)
    rng = np.random.default_rng(3)
    for k in (10, 14):
        space, elem = patch_elements(problem, k)
        op = element_operator(space, elem)
        free = space.free_nodes
        mmd = splu(op.matrix[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A")
        assert op._factorize().nnz <= mmd.nnz
        rhs = rng.standard_normal(space.n_dofs)
        for transpose in (False, True):
            x = op.solve_constrained(rhs, transpose=transpose)
            x_mmd = mmd.solve(rhs[free], trans="T" if transpose else "N")
            assert np.all(x[space.dirichlet_nodes] == 0.0)
            assert np.linalg.norm(x[free] - x_mmd) <= 1e-12 * np.linalg.norm(x_mmd)


@pytest.mark.parametrize("cells", [(1, 6), (4, 8), (5, 7), (6, 3), (32, 64)])
def test_dissection_order_lists_each_free_node_once(cells):
    # node lattices of 2 x 7, 5 x 9, 6 x 8, 7 x 4 and 33 x 65 nodes on the
    # figure-5 domain, whose Dirichlet marker gamma_d covers the lower half
    # of the left side
    domain = figure5_domain()
    grid = Grid((0.0, 0.0), (1.0 / cells[0], 2.0 / cells[1]), cells)
    n_x, n_y = cells[0] + 1, cells[1] + 1
    order = nested_dissection(n_x, n_y)
    assert np.array_equal(np.sort(order), np.arange(n_x * n_y))
    # the first separator is the middle line across the longer side, last
    if n_x >= n_y:
        assert np.array_equal(order[-n_y:], np.arange(n_y) * n_x + n_x // 2)
    else:
        assert np.array_equal(order[-n_x:], (n_y // 2) * n_x + np.arange(n_x))
    space = FeSpace(grid, domain, ("gamma_d",))
    assert 0 < space.dirichlet_nodes.size < n_y
    op = SparseOperator(sp.identity(space.n_dofs, format="csr"), space)
    assert op.free.size == space.free_nodes.size
    assert np.array_equal(np.sort(op.free), space.free_nodes)
    assert np.array_equal(op.free, order[np.isin(order, space.free_nodes)])


def recursive_dissection(n_x, n_y, leaf):
    """The nested-dissection order built block by block, recursively: the
    reference that the level-by-level build must reproduce."""
    order = []

    def dissect(i0, i1, j0, j1):  # the block [i0, i1) x [j0, j1)
        if i1 <= i0 or j1 <= j0:
            return
        if i1 - i0 <= leaf and j1 - j0 <= leaf:
            for j in range(j0, j1):
                order.extend(range(j * n_x + i0, j * n_x + i1))
        elif i1 - i0 >= j1 - j0:
            m = (i0 + i1) // 2
            dissect(i0, m, j0, j1)
            dissect(m + 1, i1, j0, j1)
            order.extend(range(j0 * n_x + m, j1 * n_x + m, n_x))
        else:
            m = (j0 + j1) // 2
            dissect(i0, i1, j0, m)
            dissect(i0, i1, m + 1, j1)
            order.extend(range(m * n_x + i0, m * n_x + i1))

    dissect(0, n_x, 0, n_y)
    return np.array(order, dtype=np.int32)


@pytest.mark.parametrize("nodes", [(2, 7), (5, 9), (6, 8), (7, 4), (33, 65), (257, 257)])
def test_dissection_order_is_the_recursive_order(nodes):
    # the lattices of test_dissection_order_lists_each_free_node_once and the
    # 257 x 257-node reference lattice of diffusion_small, with the default
    # leaf and those of scripts/factor_sweep.py: the same order, bit for bit
    for leaf in (fem.ND_LEAF, 3, 4, 6):
        order = nested_dissection(*nodes, leaf)
        assert order.dtype == np.int32
        assert np.array_equal(order, recursive_dissection(*nodes, leaf)), leaf


def assert_double_precision(problem, u, z):
    """u and z agree with the solves of a float64 SuperLU factor of the fine
    operator's free block within 1e-12 relative, in the max norm."""
    op = fine_operator(problem)
    block = op.matrix[op.free][:, op.free].tocsc()  # as factor_alone slices it
    lu = splu(block, permc_spec="NATURAL", panel_size=fem.SUPERLU_PANEL_SIZE)
    rhs = problem_rhs(problem, op.space)[op.free]
    j = functional_vector(op.space, problem.functional)[op.free]
    for x, x_64 in ((u, lu.solve(rhs)), (z, lu.solve(j, trans="T"))):
        assert np.all(x.values[op.space.dirichlet_nodes] == 0.0)
        assert np.abs(x.values[op.free] - x_64).max() <= 1e-12 * np.abs(x_64).max()


@pytest.mark.parametrize("config", ["diffusion_tiny", "advdiff_small"])
def test_fine_solution_leaves_no_fine_lattice_in_the_shared_caches(config):
    # the reference factor slices its block from an operator assembled
    # through an uncached plan: afterwards neither the plan cache nor the
    # interior-block cache holds the global fine lattice (diffusion_tiny's
    # 65 x 65 nodes, all boundary nodes constrained, would fit both); u and
    # z equal the refined solves of a freshly built fine operator factored
    # alone, bit for bit, and a float64 factor's solves within 1e-12
    problem, _ = build_problem(read_config(ExperimentConfig.from_ini(CONFIGS / f"{config}.ini")))
    fem.lattice_plan.cache_clear()
    fem.interior_block.cache_clear()
    u, z = problem.fine_solution()
    shape = problem.fine_space().grid.shape
    for cache in (fem.lattice_plan, fem.interior_block):
        misses = cache.cache_info().misses
        cache(shape)
        assert cache.cache_info().misses == misses + 1, cache
    op = fine_operator(problem)
    op.factor_alone()
    assert np.array_equal(u.values, solve(op, problem_rhs(problem, op.space)).values)
    assert np.array_equal(z.values, solve_dual(op, problem.functional).values)
    assert op.factorization_count == 1 and op._lu.L.dtype == np.float32
    assert len(op.refinement_steps) == 2 and max(op.refinement_steps) < fem.REFINE_STEPS
    assert_double_precision(problem, u, z)
    fem.lattice_plan.cache_clear()
    fem.interior_block.cache_clear()


def checkerboard_tiny():
    """diffusion_tiny on a checkerboard of contrast 1e4, tiles of 2^-3."""
    cfg = ExperimentConfig.from_ini(CONFIGS / "diffusion_tiny.ini")
    for key, value in (("kind", "checkerboard"), ("a", "1"), ("b", "1e4"), ("tile", "2^-3")):
        cfg.set("field", key, value)
    return build_problem(read_config(cfg))[0]


@pytest.mark.parametrize("case", ["diffusion_tiny", "advdiff_small", "checkerboard_1e4"])
def test_refined_fine_solution_matches_a_double_factor(case):
    # the reference u and the full dual z, solved with a single-precision LU
    # refined in double precision, agree with a float64 factor of the same
    # block within 1e-12 relative (max norm): on a lognormal, an advective
    # and a high-contrast problem
    if case == "checkerboard_1e4":
        problem = checkerboard_tiny()
    else:
        problem, _ = build_problem(read_config(ExperimentConfig.from_ini(CONFIGS / f"{case}.ini")))
    u, z = problem.fine_solution()
    assert_double_precision(problem, u, z)


def recorded_factors(monkeypatch):
    """The dtype of every matrix that ``fem.splu`` factors from now on."""
    dtypes, factor = [], fem.splu

    def recording(matrix, **kw):
        dtypes.append(matrix.dtype)
        return factor(matrix, **kw)

    monkeypatch.setattr(fem, "splu", recording)
    return dtypes


def unrefinable_operator():
    """An operator on a 5 x 5-cell unit square whose 16-dof free block is
    dense, with condition number 1e10: beyond what a float32 LU refines."""
    space = unit_space(5)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    dense = np.zeros((space.n_dofs, space.n_dofs))
    dense[np.ix_(space.free_nodes, space.free_nodes)] = (q * np.logspace(0, -10, 16)) @ q.T
    return SparseOperator(sp.csr_matrix(dense), space)


def scaled_operator(scale):
    """The Laplacian of a 6 x 6-cell unit square times ``scale``."""
    space = unit_space(6)
    tensors = np.tile(scale * np.eye(2), (space.grid.n_cells, 1, 1))
    return element_operator(space, diffusion_element_matrices(space.grid, tensors))


@pytest.mark.parametrize("case", ["unrefinable", "underflow", "overflow"])
def test_block_that_fails_single_precision_gets_one_double_factor(monkeypatch, case):
    # a block whose refined solve fails the backward-error test releases its
    # single-precision LU and is factored once in float64; a block with a
    # nonzero outside the float32 range gets no single factor at all.  The
    # solves equal those of a plain float64 SuperLU factor, bit for bit
    op = {
        "unrefinable": unrefinable_operator,
        "underflow": lambda: scaled_operator(1e-40),
        "overflow": lambda: scaled_operator(1e39),
    }[case]()
    block = op.free_block()
    dtypes = recorded_factors(monkeypatch)
    rng = np.random.default_rng(7)
    rhs = [rng.standard_normal(op.space.n_dofs) for _ in range(2)]
    op.factor_alone()
    x = op.solve_constrained(rhs[0])
    y = op.solve_constrained(rhs[1], transpose=True)
    if case == "unrefinable":
        assert dtypes == [np.float32, np.float64] and op.factorization_count == 2
        assert len(op.refinement_steps) == 1
    else:
        assert dtypes == [np.float64] and op.factorization_count == 1
        assert op.refinement_steps == []
    lu = splu(block, permc_spec="NATURAL", panel_size=fem.SUPERLU_PANEL_SIZE)
    free = op.free
    assert np.array_equal(x[free], lu.solve(rhs[0][free]))
    assert np.array_equal(y[free], lu.solve(rhs[1][free], trans="T"))
    assert np.all(x[op.space.dirichlet_nodes] == 0.0) and np.all(y[op.space.dirichlet_nodes] == 0.0)


def test_one_fine_lattice_serves_the_fine_space_data_and_solution():
    # the fine space, the fine data and the fine solution (the reference and
    # the full dual) share one Grid: the hierarchy's cached global micro grid
    problem = advection_problem(h_micro=2.0**-5, drift_max=1.5)
    hierarchy = problem.hierarchy
    assert problem.fine_space().grid is problem.fine_data()[0] is hierarchy.fine_grid
    assert hierarchy.fine_grid.spacing == (hierarchy.h_micro, hierarchy.h_micro)
    assert hierarchy.fine_grid.bbox == (0.0, 0.0, 1.0, 2.0)
    u, z = problem.fine_solution()
    assert u.space is z.space is problem.fine_space()


def test_fine_data_keeps_the_fluctuation_and_not_e_eps():
    # fine_data holds (grid, a_eps, F) and no skew element array E_eps of
    # b_eps; F + E_delta gives E_eps back within 1e-15 relative per entry,
    # relative to the larger of the two summands (where E_delta cancels most
    # of E_eps, no bound relative to E_eps alone holds), zeros exactly
    problem = advection_problem(h_micro=2.0**-5, drift_max=1.5)
    grid, a_eps, fluct = problem.fine_data()
    e_eps = advection_elements(grid, gauss_values(grid, problem.advection))
    e_delta = advection_elements(grid, problem.delta_values(grid), skew=False)
    kept = [x for x in problem._fine if isinstance(x, np.ndarray)]
    assert len(kept) == 2 and a_eps.shape == (grid.n_cells, 2, 2)
    assert not any(x.shape == e_eps.shape and np.allclose(x, e_eps) for x in kept)
    error = np.abs(fluct + e_delta - e_eps)
    assert np.all(error <= 1e-15 * np.maximum(np.abs(e_eps), np.abs(e_delta)))
    assert np.all(error[e_eps == 0.0] == 0.0)


@pytest.mark.parametrize("where", ["patch", "macro", "fine"])
def test_closed_form_transport_elements_equal_the_gauss_point_form(where):
    # b_delta is one vector per sampling cell: its element matrices from the
    # closed form b[0] g[0] + b[1] g[1] equal the 2x2 Gauss-point form with
    # b_delta at every Gauss point, plain and skew, within 1e-15 relative to
    # each cell's largest entry, on a patch, the macro grid and the fine grid
    problem = advection_problem(h_micro=2.0**-5, drift_max=1.5)
    hierarchy = problem.hierarchy
    grid = {
        "patch": hierarchy.micro_grid(hierarchy.patch_of(5, 1).bbox),
        "macro": hierarchy.macro_grid,
        "fine": hierarchy.fine_grid,
    }[where]
    b_cell = problem.delta_values(grid)
    assert b_cell.shape == (grid.n_cells, 2) and np.ptp(b_cell[:, 0]) > 0.0
    b_gauss = np.repeat(b_cell[:, None, :], 4, axis=1)
    for skew in (False, True):
        closed = advection_elements(grid, b_cell, skew=skew)
        gauss = advection_elements(grid, b_gauss, skew=skew)
        largest = np.abs(gauss).max(axis=(1, 2))[:, None, None]
        assert np.all(largest > 0.0)
        assert np.all(np.abs(closed - gauss) <= 1e-15 * largest)


@pytest.mark.parametrize("case", ["skew_b_eps", "plain_b_delta"])
def test_transport_elements_give_the_per_gauss_point_form(case):
    # z4^T E u4 of every fine cell, E from advection_elements, equals the
    # per-Gauss-point form of fem.advection_form_percell within 1e-14 of the
    # cell's largest term z4_p E_pq u4_q: skew with the Gauss-point values
    # of b_eps, plain with b_delta given once per cell (repeated at the
    # Gauss points for the reference)
    problem = advection_problem(h_micro=2.0**-5, drift_max=1.5)
    grid = problem.hierarchy.fine_grid
    rng = np.random.default_rng(3)
    u4, z4 = (fem.gather(grid, rng.standard_normal(grid.n_nodes)) for _ in range(2))
    if case == "skew_b_eps":
        b = b_gauss = gauss_values(grid, problem.advection)
    else:
        b = problem.delta_values(grid)
        b_gauss = np.repeat(b[:, None, :], 4, axis=1)
    skew = case == "skew_b_eps"
    terms = z4[:, :, None] * advection_elements(grid, b, skew=skew) * u4[:, None, :]
    reference = fem.advection_form_percell(grid, b_gauss, u4, z4, skew=skew)
    largest = np.abs(terms).max(axis=(1, 2))
    assert np.all(largest > 0.0)
    assert np.all(np.abs(terms.sum(axis=(1, 2)) - reference) <= 1e-14 * largest)


def test_concurrent_solves_share_factorization():
    from concurrent.futures import ThreadPoolExecutor

    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    space = problem.fine_space()
    op = fine_operator(problem)
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


def lattice_grids(problem):
    """Lattice windows nested in the macro grid of ``problem``: an interior
    and a corner patch (the corner one ends on the macro grid's last row and
    column, where evaluation clamps), a sampling cell, and the global micro
    grid, on which the reference error and the full dual's theta_H read U."""
    h = problem.hierarchy
    return {
        "interior_patch": h.micro_grid(h.patch_of(5, 1).bbox),
        "corner_patch": h.micro_grid(h.patch_of(h.n_sampling - 1, 1).bbox),
        "center_cell": h.micro_grid(h.sampling_bbox(6)),
        "reference": h.fine_grid,
    }


@pytest.mark.parametrize(
    "case", ["interior_patch", "corner_patch", "center_cell", "reference"]
)
def test_lattice_values_match_point_evaluation(case):
    # the separable interpolation of a macro field onto a nested lattice is
    # the point evaluation of its nodes up to rounding, clamped last row and
    # column included
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    macro = problem.macro_space()
    field = DiscreteField(macro, np.random.default_rng(3).standard_normal(macro.n_dofs))
    grid = lattice_grids(problem)[case]
    values = lattice_values(field, grid)
    assert values.shape == (grid.ny + 1, grid.nx + 1)
    expected = evaluate(field, grid.node_coords)
    assert np.max(np.abs(values.ravel() - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_lattice_values_reject_a_window_off_the_lattice():
    problem = lognormal_problem(raster_n=32, h_micro=2.0**-5)
    macro = problem.macro_space()
    field = DiscreteField(macro, np.ones(macro.n_dofs))
    h = problem.hierarchy.h_micro
    with pytest.raises(ConfigurationError):
        lattice_values(field, Grid((0.0, 0.0), (h, h), (3, 4)))


def free_block_cases():
    """(name, operator) pairs: patch operators of depth 0 and 1 on an
    interior, a Dirichlet-corner, a Neumann-side and an advective cell, and
    the macro and fine operators of the shipped configs."""
    problems = {
        "lognormal": lognormal_problem(),
        "neumann": advection_problem(h_micro=2.0**-5, target_max=0.0),
        "advective": advection_problem(h_micro=2.0**-5, drift_max=1.5),
    }
    cells = {"interior": ("lognormal", 5), "dirichlet_corner": ("lognormal", 0),
             "neumann_side": ("neumann", 0), "advective": ("advective", 13)}
    cases = []
    for name, (which, k) in cells.items():
        problem = problems[which]
        h = problem.hierarchy
        for depth in (0, 1):
            grid = h.micro_grid(h.patch_of(k, depth).bbox)
            a_eps, fluct = _fine_data(problem, grid)
            elem = diffusion_element_matrices(grid, a_eps)
            op = element_operator(problem.space(grid), elem if fluct is None else elem + fluct)
            cases.append((f"{name}_depth{depth}", op))
    for config in ("diffusion_small", "advdiff_small"):
        cfg = ExperimentConfig.from_ini(CONFIGS / f"{config}.ini")
        problem, _ = build_problem(read_config(cfg))
        model = build_initial_model(cfg, problem)
        cases.append((f"{config}_macro", effective_operator(problem, model, problem.macro_space())))
        cases.append((f"{config}_fine", fine_operator(problem)))
    return cases


def test_free_block_is_the_sliced_block():
    # the factored block is matrix[free][:, free] in CSC form, bit for bit;
    # an operator whose lattice boundary is all constrained (every diffusion
    # patch, the diffusion_small macro grid, the depth-0 advective patch,
    # whose depth-1 patch reaches the left side) gathers it through the
    # interior pattern of its shape
    gathered = {"interior_depth0", "interior_depth1", "dirichlet_corner_depth0",
                "dirichlet_corner_depth1", "advective_depth0", "diffusion_small_macro"}
    for name, op in free_block_cases():
        block, sliced = op.free_block(), op.matrix[op.free][:, op.free].tocsc()
        assert block.format == "csc" and block.shape == sliced.shape, name
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block, attr), getattr(sliced, attr)), (name, attr)
        pattern = fem.interior_block(op.space.grid.shape).indices
        assert np.shares_memory(block.indices, pattern) == (name in gathered), name


def test_bincount_adds_as_add_at_into_zeros():
    # every scatter-add of the package is an np.bincount: it adds in index
    # order, so it gives np.add.at into zeros bit for bit
    rng = np.random.default_rng(5)
    index = rng.integers(0, 50, size=2000)
    weights = rng.standard_normal(2000) * 10.0 ** rng.integers(-8, 8, size=2000)
    expected = np.zeros(60)
    np.add.at(expected, index, weights)
    assert np.array_equal(np.bincount(index, weights=weights, minlength=60), expected)
