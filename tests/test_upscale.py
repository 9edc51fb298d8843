import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import coefficient_problem, read_model_csv
from dwropt import fem, upscale
from dwropt.errors import NumericalError
from dwropt.field import CoefficientField, gen_gaussian_raster
from dwropt.mesh import Domain, build_hierarchy
from dwropt.upscale import (
    EffectiveModel,
    arithmetic_mean_model,
    constant_model,
    geometric_mean_model,
    _periodic_dof_map,
    homogenized_effective_model,
    homogenized_model,
    periodic_cell_matrix,
)
from dwropt.fem import diffusion_element_matrices


def hierarchy(delta=0.5, h_macro=0.25, h_micro=0.0625):
    return build_hierarchy(Domain(), delta, h_macro, h_micro)


def test_arithmetic_constant():
    h = hierarchy()
    model = arithmetic_mean_model(coefficient_problem(CoefficientField.constant(2.5), h))
    assert np.allclose(model.tensors, 2.5 * np.eye(2))
    assert model.provenance == "arithmetic"


def test_arithmetic_checkerboard_equal_areas():
    h = hierarchy(h_micro=0.125)
    field = CoefficientField.checkerboard(a=1.0, b=3.0, tile=0.125)
    model = arithmetic_mean_model(coefficient_problem(field, h))
    assert np.allclose(model.tensors, 2.0 * np.eye(2))


def test_arithmetic_laminate_equal_layers():
    h = hierarchy(h_micro=0.0625)
    field = CoefficientField.laminate(axis=0, a=1.0, b=4.0, layer_width=0.0625)
    model = arithmetic_mean_model(coefficient_problem(field, h))
    assert np.allclose(model.tensors, 2.5 * np.eye(2))


def test_geometric_constant():
    h = hierarchy()
    model = geometric_mean_model(coefficient_problem(CoefficientField.constant(2.5), h))
    assert np.allclose(model.tensors, 2.5 * np.eye(2))


def test_geometric_checkerboard_sqrt():
    h = hierarchy(h_micro=0.125)
    field = CoefficientField.checkerboard(a=1.0, b=4.0, tile=0.125)
    model = geometric_mean_model(coefficient_problem(field, h))
    assert np.allclose(model.tensors, 2.0 * np.eye(2))


def test_geometric_lognormal_equals_pixel_mean():
    # diagonal entry is gamma * exp(10 * mean(g) / 255) with the plain pixel
    # average over the sampling cell
    h = build_hierarchy(Domain(), 0.25, 0.125, 2.0**-6)
    raster = gen_gaussian_raster(64, 64, 0.05, seed=13)
    gamma = 0.1
    field = CoefficientField.lognormal(raster, gamma)
    model = geometric_mean_model(coefficient_problem(field, h))
    values = raster.values.astype(float)
    for k in range(h.n_sampling):
        i, j = h.sampling_grid.cell_ij(k)
        block = values[j * 16 : (j + 1) * 16, i * 16 : (i + 1) * 16]
        expect = gamma * np.exp(10.0 * block.mean() / 255.0)
        assert np.isclose(model.tensors[k, 0, 0], expect, rtol=1e-12)
        assert np.isclose(model.tensors[k, 1, 1], expect, rtol=1e-12)


def test_geometric_below_arithmetic_on_diagonal():
    h = build_hierarchy(Domain(), 0.25, 0.125, 2.0**-6)
    raster = gen_gaussian_raster(64, 64, 0.02, seed=3)
    field = CoefficientField.lognormal(raster, 0.5)
    geo = geometric_mean_model(coefficient_problem(field, h))
    ari = arithmetic_mean_model(coefficient_problem(field, h))
    assert np.all(geo.tensors[:, 0, 0] <= ari.tensors[:, 0, 0] * (1 + 1e-12))
    assert np.all(geo.tensors[:, 1, 1] <= ari.tensors[:, 1, 1] * (1 + 1e-12))


def test_homogenized_constant_field():
    h = hierarchy()
    t = homogenized_model(coefficient_problem(CoefficientField.constant(3.0), h), 0)
    assert np.allclose(t, 3.0 * np.eye(2), atol=1e-12)


@pytest.mark.parametrize(
    "failure, reported",
    [(RuntimeError("Factor is exactly singular"), NumericalError), (MemoryError(), MemoryError)],
    ids=["singular", "out_of_memory"],
)
def test_cell_problem_factor_failure(monkeypatch, failure, reported):
    # a singular cell problem is a numerical failure; any other failure
    # inside the factor propagates as itself
    def failing(matrix):
        raise failure

    monkeypatch.setattr(upscale, "splu", failing)
    problem = coefficient_problem(CoefficientField.constant(3.0), hierarchy())
    with pytest.raises(reported) as caught:
        homogenized_model(problem, 0)
    assert type(caught.value) is reported


def test_homogenized_laminate_matches_classical_formula():
    # equal layers {1, 4} aligned with the micro mesh: harmonic mean across,
    # arithmetic along: diag(1.6, 2.5) to 1e-10
    h = build_hierarchy(Domain(), 1.0, 0.5, 0.0625)
    field = CoefficientField.laminate(axis=0, a=1.0, b=4.0, layer_width=0.125)
    t = homogenized_model(coefficient_problem(field, h), 0)
    assert np.allclose(t, np.diag([1.6, 2.5]), atol=1e-10)


def test_homogenized_bounds_for_random_field():
    h = build_hierarchy(Domain(), 0.5, 0.25, 2.0**-5)
    raster = gen_gaussian_raster(32, 32, 0.05, seed=4)
    field = CoefficientField.lognormal(raster, 1.0)
    hom = homogenized_effective_model(coefficient_problem(field, h))
    ari = arithmetic_mean_model(coefficient_problem(field, h))
    centers = h.micro_grid((0, 0, 1, 1)).cell_centers
    samples = field.tensors_at(centers)[:, 0, 0]
    parents = h.sampling_grid.locate(centers, clip=True)
    for k in range(h.n_sampling):
        vals = samples[parents == k]
        harmonic = 1.0 / np.mean(1.0 / vals)
        assert harmonic * (1 - 1e-10) <= hom.tensors[k, 0, 0] <= ari.tensors[k, 0, 0] * (1 + 1e-10)


def test_homogenized_symmetric():
    h = build_hierarchy(Domain(), 0.5, 0.25, 2.0**-5)
    raster = gen_gaussian_raster(32, 32, 0.03, seed=6)
    field = CoefficientField.lognormal(raster, 1.0)
    t = homogenized_model(coefficient_problem(field, h), 2)
    assert abs(t[0, 1] - t[1, 0]) <= 1e-10 * np.abs(t).max()


def test_upscalers_rotation_swap():
    # an x-laminate and the corresponding y-laminate swap diagonal entries
    h = build_hierarchy(Domain(), 1.0, 0.5, 0.125)
    fx = CoefficientField.laminate(axis=0, a=1.0, b=4.0, layer_width=0.25)
    fy = CoefficientField.laminate(axis=1, a=1.0, b=4.0, layer_width=0.25)
    tx = homogenized_model(coefficient_problem(fx, h), 0)
    ty = homogenized_model(coefficient_problem(fy, h), 0)
    assert np.allclose(tx[0, 0], ty[1, 1], atol=1e-10)
    assert np.allclose(tx[1, 1], ty[0, 0], atol=1e-10)
    for builder in (arithmetic_mean_model, geometric_mean_model):
        mx = builder(coefficient_problem(fx, h)).tensors[0]
        my = builder(coefficient_problem(fy, h)).tensors[0]
        assert np.isclose(mx[0, 0], my[1, 1])
        assert np.isclose(mx[1, 1], my[0, 0])


def test_homogenized_cellwise_constant_field_is_identity_map():
    h = build_hierarchy(Domain(), 0.5, 0.25, 0.125)
    field = CoefficientField.checkerboard(a=2.0, b=7.0, tile=0.5)
    hom = homogenized_effective_model(coefficient_problem(field, h))
    expect = [2.0, 7.0, 7.0, 2.0]
    for k in range(4):
        assert np.allclose(hom.tensors[k], expect[k] * np.eye(2), atol=1e-10)


def test_model_csv_round_trip(tmp_path):
    h = hierarchy()
    rng = np.random.default_rng(9)
    tensors = rng.standard_normal((h.n_sampling, 2, 2))
    tensors = 0.5 * (tensors + tensors.transpose(0, 2, 1))
    model = EffectiveModel(h, tensors, provenance="random")
    path = tmp_path / "model.csv"
    model.to_csv(path)
    back = read_model_csv(path, h)
    assert np.array_equal(model.tensors, back.tensors)


def test_model_rejects_nonfinite():
    h = hierarchy()
    bad = np.zeros((h.n_sampling, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        EffectiveModel(h, bad)


def test_min_eigenvalue_report():
    h = hierarchy()
    model = constant_model(h, np.diag([2.0, -1.0]))
    assert np.allclose(model.min_eigenvalues(), -1.0)


def coo_cell_matrix(grid, tensors):
    """The periodic cell matrix assembled from COO triplets of periodic dof
    ids, dof 0 pinned: the reference the folded lattice operator must match."""
    cn = _periodic_dof_map(grid)[grid.cell_nodes]
    n_dof = grid.nx * grid.ny
    rows = np.repeat(cn, 4, axis=1).ravel()
    cols = np.tile(cn, (1, 4)).ravel()
    data = diffusion_element_matrices(grid, tensors).ravel()
    keep = (rows != 0) & (cols != 0)
    rows = np.concatenate([rows[keep], [0]])
    cols = np.concatenate([cols[keep], [0]])
    data = np.concatenate([data[keep], [1.0]])
    return sp.coo_matrix((data, (rows, cols)), shape=(n_dof, n_dof)).tocsc()


@pytest.mark.parametrize("k", [0, 5, 15])
def test_folded_cell_operator_equals_the_coo_cell_matrix(k):
    # the lattice operator of a sampling cell folded onto the periodic dofs
    # has the pattern of the COO assembly and its values up to rounding
    h = hierarchy(delta=0.25, h_macro=0.125, h_micro=2.0**-5)
    field = CoefficientField.lognormal(gen_gaussian_raster(32, 32, 0.05, seed=4), gamma=0.5)
    problem = coefficient_problem(field, h)
    fine, a_eps, _ = problem.fine_data()
    bbox = h.sampling_bbox(k)
    grid = fine.subgrid(bbox)
    tensors = fine.restrict(a_eps, bbox)
    folded = periodic_cell_matrix(problem, grid, diffusion_element_matrices(grid, tensors))
    coo = coo_cell_matrix(grid, tensors)
    assert folded.format == "csc"
    assert np.array_equal(folded.indptr, coo.indptr)
    assert np.array_equal(folded.indices, coo.indices)
    assert np.max(np.abs(folded.data - coo.data)) <= 1e-14 * np.max(np.abs(coo.data))


def gauss_point_homogenized(problem, k):
    """The homogenized tensor of sampling cell k with the corrector loads
    from the corner signs of int d_b(phi_p) and the flux averaged at the 2x2
    Gauss points, on the COO cell matrix."""
    fine, a_eps, _ = problem.fine_data()
    bbox = problem.hierarchy.sampling_bbox(k)
    grid = fine.subgrid(bbox)
    tensors = fine.restrict(a_eps, bbox)
    cn = _periodic_dof_map(grid)[grid.cell_nodes]
    lu = splu(coo_cell_matrix(grid, tensors))
    hx, hy = grid.spacing
    ex = 0.5 * hy * np.array([-1.0, 1.0, -1.0, 1.0])
    ey = 0.5 * hx * np.array([-1.0, -1.0, 1.0, 1.0])
    _, wq, _, dphi = fem._gauss_points_physical(grid)
    grads = []
    for i in range(2):
        load = -(tensors[:, 0, i, None] * ex + tensors[:, 1, i, None] * ey)
        rhs = np.bincount(cn.ravel(), weights=load.ravel(), minlength=grid.nx * grid.ny)
        rhs[0] = 0.0
        w = lu.solve(rhs)
        grads.append(np.einsum("cp,qpd->cqd", (w - w.mean())[cn], dphi) + np.eye(2)[i])
    flux = [np.einsum("cab,cqb->cqa", tensors, g) for g in grads]
    out = [[np.einsum("q,cqa,cqa->", wq, flux[i], grads[j]) for j in range(2)] for i in range(2)]
    return np.array(out) / ((bbox[2] - bbox[0]) * (bbox[3] - bbox[1]))


@pytest.mark.parametrize("case", ["lognormal", "checkerboard"])
def test_homogenized_tensor_matches_the_gauss_point_flux_average(case):
    # the tensor from the cell's element matrices equals the Gauss-point
    # flux average within 1e-12 of its largest entry
    h = hierarchy(delta=0.25, h_macro=0.125, h_micro=2.0**-5)
    field = {
        "lognormal": CoefficientField.lognormal(gen_gaussian_raster(32, 32, 0.05, seed=4), 1.0),
        "checkerboard": CoefficientField.checkerboard(a=1.0, b=100.0, tile=2.0**-4),
    }[case]
    problem = coefficient_problem(field, h)
    for k in (0, 5, 15):
        expected = gauss_point_homogenized(problem, k)
        error = np.abs(homogenized_model(problem, k) - expected).max()
        assert error <= 1e-12 * np.abs(expected).max()
