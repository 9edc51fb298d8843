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
    apply_functional,
    diffusion_element_matrices,
    diffusion_form_percell,
    diffusion_form_stack,
    effective_operator,
    element_operator,
    evaluate,
    functional_vector,
    gather,
    interpolate,
    problem_rhs,
)


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


def _fine_data(problem, grid):
    """The fine data of a patch grid, shared by the patch operator and the
    indicator forms: the fine tensor per cell and, for advective problems,
    the element matrices of the transport fluctuation (b_eps - b_delta) .
    grad u (None without transport).  Both are slices of the problem's global
    fine data on the grid's spacing."""
    fine_grid, a_eps, _, fluct = problem.fine_data(grid.spacing[0])
    ids = fine_grid.subgrid_cell_ids(grid.bbox)
    return a_eps[ids], None if fluct is None else fluct[ids]


def local_enhancement(problem, z_eff, k, depth):
    """Patch-local micro correction of the effective dual around cell ``k``.

    Solves the patch dual problem for the correction z_k with zero Dirichlet
    data on interior patch boundaries and on Dirichlet markers, and natural
    (homogeneous Neumann) conditions where the patch touches Neumann
    boundaries of the primal problem.  The patch operator is the fine
    diffusion plus the transport fluctuation.  Returns (patch, patch_space,
    z_k, fine data of the patch grid).
    """
    hierarchy = problem.hierarchy
    patch = hierarchy.patch_of(k, depth)
    grid = hierarchy.micro_grid(patch.bbox)
    space = problem.space(grid)
    data = _fine_data(problem, grid)
    a_eps, fluct = data
    elem = diffusion_element_matrices(grid, a_eps)
    if fluct is not None:
        elem = elem + fluct
    op = element_operator(space, elem)
    zi = evaluate(z_eff, grid.node_coords)
    rhs = functional_vector(space, problem.functional) - op.matrix.T @ zi
    values = op.solve_constrained(rhs, transpose=True)
    return patch, space, DiscreteField(space, values), data


@dataclass
class ErrorBreakdown:
    """Macro residual theta_H, local indicators eta_K and the functional
    values, from which the estimate and its effectivity derive."""

    theta_H: float
    eta: np.ndarray
    j_of_U: float
    j_reference: float = None

    @property
    def theta_delta(self):
        """Model-error estimate sum_K eta_K."""
        return float(np.sum(self.eta))

    @property
    def estimate(self):
        """Total error estimate theta_H + theta_delta."""
        return self.theta_H + self.theta_delta

    @property
    def i_eff(self):
        """|theta_H + theta_delta| / |j_reference - j(U)|; None without a
        reference or with a zero true error.  With the fully resolved
        discrete dual it is one to solver precision."""
        if self.j_reference is None:
            return None
        true_err = abs(self.j_reference - self.j_of_U)
        if true_err > 0.0:
            return abs(self.estimate) / true_err
        return None

    @property
    def i_loc(self):
        """Indicator oscillation sum |eta_K| / |sum eta_K| (>= 1); None when
        the sum vanishes."""
        total = abs(self.theta_delta)
        if total == 0.0:
            return None
        return float(np.sum(np.abs(self.eta))) / total

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


def _theta_macro(problem, model, U, z):
    """Residual of the effective problem, rhs(z) - (A_eff U, z), on the space
    of z: the macro space of U or any nested refinement of it."""
    space = z.space
    u = U.values if space is U.space else interpolate(U, space).values
    operator = effective_operator(problem, model, space)
    return float(problem_rhs(problem, space) @ z.values - z.values @ (operator.matrix @ u))


class _PatchContext:
    """Per-cell data shared by the indicator eta_K and its Jacobian row: the
    patch micro grid, U and the dual z* on it, the fine tensors A_eps, the
    differences A_delta - A_eps and the transport fluctuation element
    matrices."""

    def __init__(self, problem, model, U, k, patch, grid, zstar, data):
        self.k = k
        self.patch = patch
        self.grid = grid
        self.zstar = zstar
        hierarchy = problem.hierarchy
        parents = hierarchy.sampling_grid.locate(grid.cell_centers, clip=True)
        self.a_eps, self.fluct = data
        self.d_tensors = model.tensors[parents] - self.a_eps
        self.u4 = self.nodal4(U)
        self.z4 = gather(grid, zstar)
        self.cell_slices = {
            q: grid.subgrid_cell_ids(hierarchy.sampling_bbox(q)) for q in patch.members
        }

    def nodal4(self, field):
        """Per-cell nodal values of a field evaluated on the patch grid."""
        return gather(self.grid, evaluate(field, self.grid.node_coords))

    def _fluctuation(self, u4, ids):
        """((b_eps - b_delta) . grad u, z*) over the cells ``ids``."""
        return float(np.einsum("cp,cpq,cq->", self.z4[ids], self.fluct[ids], u4[ids]))

    def indicator_and_stack(self):
        """(eta_K, direct-term stack) over the center cell's region."""
        ids = self.cell_slices[self.k]
        stack = diffusion_form_stack(self.grid, self.u4[ids], self.z4[ids])
        eta = float(np.einsum("cab,cab->", self.d_tensors[ids], stack))
        if self.fluct is not None:
            eta -= self._fluctuation(self.u4, ids)
        return eta, stack.sum(axis=0)

    def response_term(self, u4r, q):
        """int_Q (A_delta - A_eps) grad R . grad z* [- (b_eps - b_delta) . grad R z*]."""
        ids = self.cell_slices[q]
        out = float(
            np.sum(diffusion_form_percell(self.grid, self.d_tensors[ids], u4r[ids], self.z4[ids]))
        )
        if self.fluct is not None:
            out -= self._fluctuation(u4r, ids)
        return out


def _patch_context(problem, model, U, dual, k):
    """Context of sampling cell ``k``.  The enhanced dual lives on the
    enhancement patch of depth ``dual.depth`` and shares the fine data of its
    patch operator; the full and effective duals are restricted to the
    depth-1 patch, which bounds the Jacobian band."""
    hierarchy = problem.hierarchy
    z = dual.z_global
    if dual.mode == "enhanced":
        patch, patch_space, z_k, data = local_enhancement(problem, z, k, dual.depth)
        grid = patch_space.grid
        zstar = evaluate(z, grid.node_coords) + z_k.values
        return _PatchContext(problem, model, U, k, patch, grid, zstar, data)
    patch = hierarchy.patch_of(k, 1)
    if dual.mode == "full":
        grid = z.space.grid.subgrid(patch.bbox)
        zstar = z.values[z.space.grid.subgrid_node_ids(patch.bbox)]
    elif dual.mode == "effective":
        grid = hierarchy.micro_grid(patch.bbox)
        zstar = evaluate(z, grid.node_coords)
    else:
        raise ValueError(f"unknown dual mode '{dual.mode}'")
    return _PatchContext(problem, model, U, k, patch, grid, zstar, _fine_data(problem, grid))


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
    return ErrorBreakdown(
        theta_H=_theta_macro(problem, model, U, dual.z_global),
        eta=eta,
        j_of_U=apply_functional(problem.functional, U),
        j_reference=j_reference,
    )
