import numpy as np
import pytest

from conftest import coefficient_problem
from dwropt.errors import ConfigurationError, NumericalError, OutOfDomainError
from dwropt.field import (
    AdvectionField,
    CoefficientField,
    RasterField,
    correlated_noise,
    gen_gaussian_raster,
    stream_advection,
)
from dwropt.fem import Functional, Problem
from dwropt.mesh import Domain, build_hierarchy


class ConstantAdvection:
    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float)

    def values_at(self, points):
        return np.broadcast_to(self.vector, (len(np.atleast_2d(points)), 2)).copy()


def eval_coefficient(field, x):
    """Tensor value of ``field`` at a single point."""
    return field.tensors_at(np.asarray(x, dtype=float).reshape(1, 2))[0]


def divergence_fd(b, points):
    """Centered-difference divergence probe at the field's own ``fd_step``."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    d = b.params["fd_step"]
    return (
        b.values_at(p + [d, 0.0])[:, 0] - b.values_at(p - [d, 0.0])[:, 0]
        + b.values_at(p + [0.0, d])[:, 1] - b.values_at(p - [0.0, d])[:, 1]
    ) / (2.0 * d)


def b_delta_of(b, hierarchy):
    """b_delta of ``b`` as the problem reduces it from its micro-grid data."""
    problem = Problem(
        hierarchy=hierarchy,
        coefficient=CoefficientField.constant(1.0),
        functional=Functional.domain_integral(),
        advection=b,
    )
    return problem.average_advection()


# ---------------------------------------------------------------------------
# rasters


def test_raster_determinism():
    a = gen_gaussian_raster(64, 64, 0.05, seed=3)
    b = gen_gaussian_raster(64, 64, 0.05, seed=3)
    assert np.array_equal(a.values, b.values)
    c = gen_gaussian_raster(64, 64, 0.05, seed=4)
    assert not np.array_equal(a.values, c.values)


def test_raster_spans_full_8bit_range():
    r = gen_gaussian_raster(128, 128, 0.02, seed=1)
    assert r.values.dtype == np.uint8
    assert r.values.min() == 0
    assert r.values.max() == 255


def test_large_correlation_smooths_noise():
    # smoothing with a kernel much wider than the raster must shrink the
    # sample std by at least 10x compared with the unconvolved noise
    raw = correlated_noise(64, 64, 0.0, seed=11)
    smooth = correlated_noise(64, 64, 10 * 64.0, seed=11)
    assert smooth.std() <= raw.std() / 10.0


def test_paper_scale_raster_parameters():
    r = gen_gaussian_raster(1024, 1024, 0.0025, seed=0)
    assert r.values.shape == (1024, 1024)
    assert r.values.min() == 0 and r.values.max() == 255


def test_invalid_raster_parameters():
    with pytest.raises(ConfigurationError):
        gen_gaussian_raster(0, 4, 0.1, seed=0)
    with pytest.raises(ConfigurationError):
        gen_gaussian_raster(4, 4, -1.0, seed=0)


def test_pgm_round_trip(tmp_path):
    r = gen_gaussian_raster(33, 17, 0.05, seed=9)
    path = tmp_path / "field.pgm"
    r.to_pgm(path)
    back = RasterField.from_pgm(path)
    assert np.array_equal(r.values, back.values)
    assert back.values.dtype == np.uint8


@pytest.mark.parametrize(
    "content, message",
    [
        (b"P5\n4 4\n255\n" + bytes(10), "size 4 x 4, maxval 255, 10 pixels"),
        (b"P5\n4 x4\n255\n" + bytes(16), "invalid literal for int"),
        (b"P5\n4 4\n", "invalid literal for int"),
        (b"P5\n-4 -4\n255\n" + bytes(16), "size -4 x -4"),
    ],
    ids=["truncated", "malformed_size", "no_maxval", "negative_size"],
)
def test_broken_pgm_is_a_configuration_error(tmp_path, content, message):
    path = tmp_path / "field.pgm"
    path.write_bytes(content)
    with pytest.raises(ConfigurationError, match=message):
        RasterField.from_pgm(path)


def test_missing_pgm_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read the PGM file"):
        RasterField.from_pgm(tmp_path / "missing.pgm")


def test_raster_lookup_out_of_extent():
    r = RasterField(values=np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(OutOfDomainError):
        r.nearest([(1.5, 0.5)])


# ---------------------------------------------------------------------------
# coefficient fields


def test_constant_coefficient():
    f = CoefficientField.constant(3.0)
    assert np.allclose(eval_coefficient(f, (0.3, 0.9)), 3.0 * np.eye(2))


@pytest.mark.parametrize(
    "tensor", [-1.0, 0.0, [[0.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]],
    ids=["negative", "zero", "semidefinite", "indefinite"],
)
def test_constant_coefficient_must_be_positive_definite(tensor):
    with pytest.raises(ConfigurationError, match="positive definite"):
        CoefficientField.constant(tensor)


def test_lognormal_endpoints():
    values = np.zeros((2, 2), dtype=np.uint8)
    values[0, 0] = 0
    values[1, 1] = 255
    f = CoefficientField.lognormal(RasterField(values=values), gamma=0.5)
    low = eval_coefficient(f, (0.2, 0.2))
    high = eval_coefficient(f, (0.8, 0.8))
    assert np.allclose(low, 0.5 * np.eye(2))
    assert np.allclose(high, 0.5 * np.exp(10.0) * np.eye(2))


def test_laminate_layers():
    f = CoefficientField.laminate(axis=0, a=1.0, b=4.0, layer_width=0.25)
    assert np.allclose(eval_coefficient(f, (0.1, 0.9)), np.diag([1.0, 1.0]))
    assert np.allclose(eval_coefficient(f, (0.3, 0.1)), np.diag([4.0, 4.0]))


def test_checkerboard_parity():
    f = CoefficientField.checkerboard(a=2.0, b=5.0, tile=0.5)
    assert np.allclose(eval_coefficient(f, (0.25, 0.25)), 2.0 * np.eye(2))
    assert np.allclose(eval_coefficient(f, (0.75, 0.25)), 5.0 * np.eye(2))
    assert np.allclose(eval_coefficient(f, (0.75, 0.75)), 2.0 * np.eye(2))


def test_tensors_always_symmetric():
    raster = gen_gaussian_raster(32, 32, 0.1, seed=5)
    fields = [
        CoefficientField.constant([[2.0, 0.5], [0.5, 1.0]]),
        CoefficientField.laminate(1, 1.0, 3.0, 0.125),
        CoefficientField.checkerboard(1.0, 9.0, 0.25),
        CoefficientField.lognormal(raster, 0.1),
    ]
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 0.95, size=(50, 2))
    for f in fields:
        t = f.tensors_at(pts)
        assert np.allclose(t, t.transpose(0, 2, 1))


def test_lognormal_spd_and_condition():
    raster = gen_gaussian_raster(64, 64, 0.02, seed=2)
    f = CoefficientField.lognormal(raster, gamma=0.05)
    pts = np.random.default_rng(1).uniform(0.0, 1.0, size=(200, 2))
    t = f.tensors_at(pts)
    eigs = np.linalg.eigvalsh(t)
    assert np.all(eigs > 0.0)
    assert t.max() / t[t > 0].min() <= np.exp(10.0) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# advection fields


def test_constant_stream_gives_zero_field():
    psi = RasterField(values=np.full((17, 17), 3.7))
    b = stream_advection(psi, scale=2.0, taper_width=0.2, fd_step=0.01)
    pts = np.random.default_rng(0).uniform(0.3, 0.7, size=(40, 2))
    vals = b.values_at(pts)
    assert np.allclose(vals, 0.0, atol=1e-12)


def test_stream_divergence_probe():
    psi = RasterField(values=correlated_noise(33, 33, 2.0, seed=7))
    b = stream_advection(psi, scale=50.0, taper_width=0.1, fd_step=2.0**-9)
    xs = np.linspace(0.0, 1.0, 101)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    interior = np.all((pts > 0.01) & (pts < 0.99), axis=1)
    div = divergence_fd(b, pts[interior])
    bmax = b.max_magnitude()
    assert bmax > 0.0
    assert np.abs(div).max() <= 1e-8 * bmax


def test_stream_vanishes_on_boundary():
    psi = RasterField(values=correlated_noise(33, 33, 2.0, seed=8))
    b = stream_advection(psi, scale=10.0, taper_width=0.1, fd_step=2.0**-8)
    ts = np.linspace(0.0, 1.0, 57)
    edges = np.concatenate(
        [
            np.column_stack([ts, np.zeros_like(ts)]),
            np.column_stack([ts, np.ones_like(ts)]),
            np.column_stack([np.zeros_like(ts), ts]),
            np.column_stack([np.ones_like(ts), ts]),
        ]
    )
    assert np.allclose(b.values_at(edges), 0.0, atol=0.0)


def test_stream_scaled_to_paper_range():
    psi = RasterField(values=correlated_noise(65, 65, 2.0, seed=3))
    raw = stream_advection(psi, scale=1.0, taper_width=0.05, fd_step=2.0**-9)
    target = 300.0
    scale = target / raw.max_magnitude()
    b = stream_advection(psi, scale=scale, taper_width=0.05, fd_step=2.0**-9)
    m = b.max_magnitude()
    assert 0.0 < m <= target * (1.0 + 1e-9)
    assert m > 0.9 * target


def test_degenerate_taper_rejected():
    psi = RasterField(values=np.zeros((9, 9)))
    with pytest.raises(ConfigurationError):
        stream_advection(psi, 1.0, taper_width=0.001, fd_step=0.01)
    with pytest.raises(ConfigurationError):
        stream_advection(psi, 1.0, taper_width=0.6, fd_step=0.01)


# ---------------------------------------------------------------------------
# cell averages


def test_average_of_constant_field():
    h = build_hierarchy(Domain(), 0.25, 0.125, 0.0625)
    avg = b_delta_of(ConstantAdvection((2.0, -1.5)), h)
    assert np.allclose(avg, np.array([2.0, -1.5]))


def test_average_of_curl_over_domain_vanishes():
    # with a single sampling cell covering the whole domain, the mean of a
    # tapered curl field is zero by the divergence theorem
    h = build_hierarchy(Domain(), 1.0, 0.125, 2.0**-6)
    psi = RasterField(values=correlated_noise(33, 33, 3.0, seed=12))
    b = stream_advection(psi, scale=100.0, taper_width=0.1, fd_step=2.0**-7)
    avg = b_delta_of(b, h)

    # fine-quadrature oracle: dense midpoint average
    n = 512
    xs = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, xs)
    oracle = b.values_at(np.column_stack([gx.ravel(), gy.ravel()])).mean(axis=0)
    bmax = b.max_magnitude()
    assert np.abs(avg).max() <= 5e-3 * bmax
    assert np.abs(avg - oracle).max() <= 5e-3 * bmax


def test_average_of_odd_symmetric_field():
    h = build_hierarchy(Domain(), 1.0, 0.5, 0.125)

    class Odd:
        def values_at(self, points):
            p = np.atleast_2d(points)
            return np.column_stack([p[:, 0] - 0.5, (p[:, 1] - 0.5) ** 3])

    avg = b_delta_of(Odd(), h)
    assert np.abs(avg).max() <= 1e-12


def test_geometric_mean_requires_positive_diagonal():
    from dwropt.upscale import geometric_mean_model

    h = build_hierarchy(Domain(), 0.5, 0.25, 0.125)
    bad = CoefficientField.laminate(0, 0.0, 1.0, 0.125)
    with pytest.raises(NumericalError, match="sampling cell"):
        geometric_mean_model(coefficient_problem(bad, h))
