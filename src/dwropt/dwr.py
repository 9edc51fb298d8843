"""Dual problems, the macro/model error split, local model-error indicators
and the locally enhanced dual reconstruction.

Every form here is evaluated with the element machinery of :mod:`dwropt.fem`,
so with the fully resolved discrete dual the identity

    <j, u_fine> - <j, U> = theta_H + sum_K eta_K

holds to linear-solver precision.  With the effective dual in the macro space
theta_H vanishes by Galerkin orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    DiscreteField,
    SparseOperator,
    advection_form_percell,
    apply_functional,
    assemble_advection,
    assemble_diffusion,
    diffusion_form_percell,
    diffusion_form_stack,
    evaluate,
    functional_vector,
    gather,
    gauss_point_coords,
    interpolate,
    problem_rhs,
)
from .field import CellAveragedAdvection
from .mesh import Grid


@dataclass
class DualApproximation:
    """Approximation of the fine-scale dual solution.

    ``full``: a global fine-space dual; ``effective``: the macro-space dual of
    the effective operator; ``enhanced``: the effective dual plus per-patch
    micro corrections (computed on demand, never stored globally).  ``depth``
    is the enhancement patch depth; the other modes ignore it.
    """

    mode: str
    z_global: object
    depth: int = 1


def _patch_operator(problem, model, patch_space):
    """Fine-coefficient operator on a patch; for advective problems the
    transport term uses the fluctuation b_fine - b_delta, each part
    discretized with its own form (skew / plain)."""
    op = assemble_diffusion(patch_space, problem.coefficient)
    if problem.is_advective:
        adv_fine = assemble_advection(patch_space, problem.advection)
        adv_cell = assemble_advection(
            patch_space, CellAveragedAdvection(problem.hierarchy, model.advection)
        )
        return SparseOperator(
            op.matrix + adv_fine.matrix - adv_cell.matrix, patch_space, symmetric=False
        )
    return op


def local_enhancement(problem, model, z_eff, k, depth):
    """Patch-local micro correction of the effective dual around cell ``k``.

    Solves the patch dual problem for the correction z_k with zero Dirichlet
    data on interior patch boundaries and on Dirichlet markers, and natural
    (homogeneous Neumann) conditions where the patch touches Neumann
    boundaries of the primal problem.  Returns (patch, patch_space, z_k).
    """
    hierarchy = problem.hierarchy
    patch = hierarchy.patch_of(k, depth)
    grid = hierarchy.micro_grid(patch.bbox)
    space = problem.space(grid)
    op = _patch_operator(problem, model, space)
    zi = evaluate(z_eff, grid.node_coords)
    rhs = functional_vector(space, problem.functional) - op.matrix.T @ zi
    values = op.solve_constrained(rhs, transpose=True)
    return patch, space, DiscreteField(space, values)


@dataclass
class ErrorBreakdown:
    """Macro residual, model-error indicators and effectivity summary."""

    theta_H: float
    theta_delta: float
    eta: np.ndarray
    j_of_U: float
    j_reference: float = None
    i_eff: float = None
    i_loc: float = None

    @property
    def estimate(self):
        """Total error estimate theta_H + theta_delta."""
        return self.theta_H + self.theta_delta

    def to_csv(self, path, hierarchy):
        grid = hierarchy.sampling_grid
        with open(path, "w", newline="\n") as fh:
            fh.write("cell_i,cell_j,eta_K\n")
            for k in range(hierarchy.n_sampling):
                i, j = grid.cell_ij(k)
                fh.write(f"{i},{j},{self.eta[k]:.17g}\n")
            i_eff = "" if self.i_eff is None else f"{self.i_eff:.17g}"
            i_loc = "" if self.i_loc is None else f"{self.i_loc:.17g}"
            fh.write(
                f"# summary,theta_H={self.theta_H:.17g},theta_delta={self.theta_delta:.17g},"
                f"I_eff={i_eff},I_loc={i_loc}\n"
            )


def indicator_oscillation(eta):
    """I_loc = sum |eta_K| / |sum eta_K| (>= 1 whenever the sum is nonzero)."""
    total = abs(float(np.sum(eta)))
    if total == 0.0:
        return None
    return float(np.sum(np.abs(eta))) / total


def _advection_fluctuation_percell(grid, u4, z4, b_eps_vals, b_delta_vals):
    """((b_eps - b_delta) . grad u, z) per cell, each field with its own
    discrete form (skew for the fine field, plain for the cell averages)."""
    out = advection_form_percell(grid, b_eps_vals, u4, z4, skew=True)
    if b_delta_vals is not None:
        out = out - advection_form_percell(grid, b_delta_vals, u4, z4, skew=False)
    return out


def _theta_macro(problem, model, U, z):
    """Residual of the effective problem tested with a field z living on the
    same space family as U (macro) or any nested refinement."""
    space = z.space
    grid = space.grid
    rhs = problem_rhs(problem, space)
    u4 = gather(grid, interpolate(U, space).values if space is not U.space else U.values)
    z4 = gather(grid, z.values)
    tensors = model.tensors_at(grid.cell_centers)
    total = float(rhs @ z.values) - float(np.sum(diffusion_form_percell(grid, tensors, u4, z4)))
    if model.advection is not None:
        b = CellAveragedAdvection(problem.hierarchy, model.advection)
        bvals = b.values_at(gauss_point_coords(grid).reshape(-1, 2)).reshape(grid.n_cells, 4, 2)
        total -= float(np.sum(advection_form_percell(grid, bvals, u4, z4, skew=False)))
    return total


def _advection_values(problem, model, grid):
    """Gauss-point values of b_eps and b_delta on a grid (None, None when the
    problem carries no transport)."""
    if not problem.is_advective:
        return None, None
    pts = gauss_point_coords(grid).reshape(-1, 2)
    b_eps = problem.advection.values_at(pts).reshape(grid.n_cells, 4, 2)
    b_delta = None
    if model.advection is not None:
        b = CellAveragedAdvection(problem.hierarchy, model.advection)
        b_delta = b.values_at(pts).reshape(grid.n_cells, 4, 2)
    return b_eps, b_delta


def _subgrid(grid, bbox):
    """Grid with the spacing of ``grid`` tiling ``bbox``."""
    nx = int(round((bbox[2] - bbox[0]) / grid.spacing[0]))
    ny = int(round((bbox[3] - bbox[1]) / grid.spacing[1]))
    return Grid((bbox[0], bbox[1]), grid.spacing, (nx, ny))


class _PatchContext:
    """Per-cell data shared by the indicator eta_K and its Jacobian row: the
    patch micro grid, U and the dual z* on it, and the fine-coefficient
    differences."""

    def __init__(self, problem, model, U, k, patch, grid, zstar):
        self.k = k
        self.patch = patch
        self.grid = grid
        self.zstar = zstar
        hierarchy = problem.hierarchy
        parents = hierarchy.sampling_grid.locate(grid.cell_centers, clip=True)
        self.d_tensors = model.tensors[parents] - problem.coefficient.tensors_at(
            grid.cell_centers
        )
        self.u4 = self.nodal4(U)
        self.z4 = gather(grid, zstar)
        self.b_eps_vals, self.b_delta_vals = _advection_values(problem, model, grid)
        self.cell_slices = {
            q: grid.subgrid_cell_ids(hierarchy.sampling_bbox(q)) for q in patch.members
        }

    def nodal4(self, field):
        """Per-cell nodal values of a field evaluated on the patch grid."""
        return gather(self.grid, evaluate(field, self.grid.node_coords))

    def _fluctuation(self, u4, ids):
        return float(
            np.sum(
                _advection_fluctuation_percell(
                    self.grid,
                    u4[ids],
                    self.z4[ids],
                    self.b_eps_vals[ids],
                    None if self.b_delta_vals is None else self.b_delta_vals[ids],
                )
            )
        )

    def indicator_and_stack(self):
        """(eta_K, direct-term stack) over the center cell's region."""
        ids = self.cell_slices[self.k]
        stack = diffusion_form_stack(self.grid, self.u4[ids], self.z4[ids])
        eta = float(np.einsum("cab,cab->", self.d_tensors[ids], stack))
        if self.b_eps_vals is not None:
            eta -= self._fluctuation(self.u4, ids)
        return eta, stack.sum(axis=0)

    def response_term(self, u4r, q):
        """int_Q (A_delta - A_eps) grad R . grad z* [- (b_eps - b_delta) . grad R z*]."""
        ids = self.cell_slices[q]
        out = float(
            np.sum(diffusion_form_percell(self.grid, self.d_tensors[ids], u4r[ids], self.z4[ids]))
        )
        if self.b_eps_vals is not None:
            out -= self._fluctuation(u4r, ids)
        return out


def _patch_context(problem, model, U, dual, k):
    """Context of sampling cell ``k``.  The enhanced dual lives on the
    enhancement patch of depth ``dual.depth``; the full and effective duals
    are restricted to the depth-1 patch, which bounds the Jacobian band."""
    hierarchy = problem.hierarchy
    z = dual.z_global
    if dual.mode == "enhanced":
        patch, patch_space, z_k = local_enhancement(problem, model, z, k, dual.depth)
        grid = patch_space.grid
        zstar = evaluate(z, grid.node_coords) + z_k.values
    elif dual.mode == "full":
        patch = hierarchy.patch_of(k, 1)
        grid = _subgrid(z.space.grid, patch.bbox)
        zstar = z.values[z.space.grid.subgrid_node_ids(patch.bbox)]
    elif dual.mode == "effective":
        patch = hierarchy.patch_of(k, 1)
        grid = hierarchy.micro_grid(patch.bbox)
        zstar = evaluate(z, grid.node_coords)
    else:
        raise ValueError(f"unknown dual mode '{dual.mode}'")
    return _PatchContext(problem, model, U, k, patch, grid, zstar)


def indicator_sweep(problem, model, U, dual):
    """The one pass over the sampling cells behind every indicator: yields
    (context, eta_K, direct-term stack) per cell.  Patch reconstructions are
    built per cell, consumed, and discarded."""
    for k in range(problem.hierarchy.n_sampling):
        ctx = _patch_context(problem, model, U, dual, k)
        eta_k, stack = ctx.indicator_and_stack()
        yield ctx, eta_k, stack


def error_identity(problem, model, U, dual, j_reference=None):
    """Macro residual theta_H, local indicators eta_K and their sum.

    The indicators substitute the computable U for the exact effective
    solution; the sign convention estimates <j, u_fine> - <j, U>.
    """
    eta = np.array([eta_k for _, eta_k, _ in indicator_sweep(problem, model, U, dual)])
    theta_h = _theta_macro(problem, model, U, dual.z_global)
    j_u = apply_functional(problem.functional, U)
    out = ErrorBreakdown(
        theta_H=theta_h,
        theta_delta=float(np.sum(eta)),
        eta=eta,
        j_of_U=j_u,
        j_reference=j_reference,
        i_loc=indicator_oscillation(eta),
    )
    if j_reference is not None:
        effectivity(out, j_reference, j_u)
    return out


def effectivity(err, j_ref, j_u):
    """Effectivity of the total estimate and indicator oscillation.

    I_eff compares theta_H + theta_delta against the true functional error;
    with the fully resolved discrete dual the two agree to solver precision.
    I_loc is the oscillation ratio sum|eta_K| / |sum eta_K|.
    """
    true_err = abs(j_ref - j_u)
    err.i_loc = indicator_oscillation(err.eta)
    if true_err == 0.0:
        err.i_eff = None
    else:
        err.i_eff = abs(err.estimate) / true_err
    err.j_reference = j_ref
    return err.i_eff, err.i_loc
