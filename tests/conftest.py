"""Shared problem builders for the test suite."""

import numpy as np

from dwropt.fem import Functional, Problem
from dwropt.field import (
    CoefficientField,
    RasterField,
    SumAdvection,
    correlated_noise,
    gen_gaussian_raster,
    stream_advection,
)
from dwropt.mesh import Domain, build_hierarchy
from dwropt.upscale import EffectiveModel


def read_model_csv(path, hierarchy):
    """The model a ``model_*.csv`` holds: one row per sampling cell, each
    cell exactly once."""
    with open(path) as fh:
        assert fh.readline() == "cell_i,cell_j,a11,a12,a21,a22\n"
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    cells = hierarchy.sampling_grid.cell_id(rows[:, 0].astype(int), rows[:, 1].astype(int))
    assert np.array_equal(np.sort(cells), np.arange(hierarchy.n_sampling))
    tensors = np.empty((hierarchy.n_sampling, 2, 2))
    tensors[cells] = rows[:, 2:].reshape(-1, 2, 2)
    return EffectiveModel(hierarchy, tensors, provenance="read back")


def lognormal_problem(
    delta=2.0**-2,
    h_macro=2.0**-4,
    h_micro=2.0**-6,
    raster_n=64,
    corr_len=0.03,
    seed=7,
    gamma=0.05,
    functional=None,
):
    """Unit-square log-normal diffusion problem with f = 1 and j = domain
    integral unless overridden."""
    domain = Domain()
    hierarchy = build_hierarchy(domain, delta, h_macro, h_micro)
    raster = gen_gaussian_raster(raster_n, raster_n, corr_len, seed=seed)
    coeff = CoefficientField.lognormal(raster, gamma=gamma)
    problem = Problem(
        hierarchy=hierarchy,
        coefficient=coeff,
        functional=functional or Functional.domain_integral(),
        source=1.0,
    )
    return problem


def coefficient_problem(coefficient, hierarchy):
    """Diffusion problem with the fine-scale tensor ``coefficient`` on
    ``hierarchy``: the problem data the upscalers read."""
    return Problem(hierarchy, coefficient, Functional.domain_integral())


def figure5_domain():
    """1 x 2 rectangle with the five-marker boundary: Dirichlet on the lower
    left part, flux data on the bottom, the goal on the top edge."""
    return Domain(
        extent=(1.0, 2.0),
        boundary={
            "left": (("gamma_d", 1.0), ("gamma_c", None)),
            "right": (("gamma_a", None),),
            "bottom": (("gamma_e", None),),
            "top": (("gamma_b", None),),
        },
    )


def advection_problem(
    delta=0.25,
    h_macro=2.0**-4,
    h_micro=2.0**-6,
    psi_n=(33, 65),
    corr_px=2.0,
    seed=21,
    gamma=0.1,
    target_max=100.0,
    taper_width=0.125,
    drift_max=0.0,
    confine_eddies=False,
):
    """Advection-diffusion problem on the figure-5 rectangle: flux inflow at
    the bottom, goal functional on the top edge, random eddy transport.

    With ``confine_eddies`` the eddy stream function is pinched to the
    sampling lattice (zero cell-average transport) and an optional weak
    smooth drift of magnitude ``drift_max`` is superposed.
    """
    domain = figure5_domain()
    hierarchy = build_hierarchy(domain, delta, h_macro, h_micro)
    psi = RasterField(
        values=correlated_noise(psi_n[0], psi_n[1], corr_px, seed=seed),
        size=(1.0, 2.0),
    )
    fd_step = 0.5 * h_micro
    cell = delta if confine_eddies else None
    raw = stream_advection(psi, 1.0, taper_width, fd_step=fd_step, cell_size=cell)
    scale = target_max / raw.max_magnitude()
    eddies = stream_advection(psi, scale, taper_width, fd_step=fd_step, cell_size=cell)
    if drift_max > 0.0:
        psi_lo = RasterField(
            values=correlated_noise(9, 17, 1.0, seed=seed + 1), size=(1.0, 2.0)
        )
        raw_drift = stream_advection(psi_lo, 1.0, taper_width, fd_step=fd_step)
        dscale = drift_max / raw_drift.max_magnitude()
        b = SumAdvection(
            stream_advection(psi_lo, dscale, taper_width, fd_step=fd_step), eddies
        )
    else:
        b = eddies
    problem = Problem(
        hierarchy=hierarchy,
        coefficient=CoefficientField.constant(gamma),
        functional=Functional.boundary_integral("gamma_b"),
        advection=b,
        source=0.0,
        neumann=(("gamma_e", 1.0),),
        dirichlet=("gamma_d",),
    )
    return problem
