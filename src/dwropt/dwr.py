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
    advection_elements,
    apply_functional,
    diffusion_element_matrices,
    diffusion_form_stack,
    element_operator,
    functional_vector,
    gather,
    lattice_matrix,
    lattice_values,
    problem_rhs,
    serial_product,
)
from .mesh import _exact_ratio


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
    fine data."""
    fine_grid, a_eps, fluct = problem.fine_data()
    return (
        fine_grid.restrict(a_eps, grid.bbox),
        None if fluct is None else fine_grid.restrict(fluct, grid.bbox),
    )


def _patch_elements(grid, a_eps, fluct):
    """Element matrices of the patch operator: the fine diffusion plus the
    transport fluctuation."""
    elem = diffusion_element_matrices(grid, a_eps)
    return elem if fluct is None else elem + fluct


def local_enhancement(problem, z_eff, k, depth):
    """Patch-local micro correction of the effective dual around cell ``k``.

    Solves the patch dual problem for the correction z_k with zero Dirichlet
    data on interior patch boundaries and on Dirichlet markers, and natural
    (homogeneous Neumann) conditions where the patch touches Neumann
    boundaries of the primal problem.  The patch operator is the fine
    diffusion plus the transport fluctuation.  Returns (patch, patch_space,
    z_eff at the patch nodes, z_k, (A_eps, fluctuation and patch operator
    element matrices)); the enhanced dual on the patch is the sum of the
    middle two.
    """
    hierarchy = problem.hierarchy
    patch = hierarchy.patch_of(k, depth)
    grid = hierarchy.micro_grid(patch.bbox)
    space = problem.space(grid)
    a_eps, fluct = _fine_data(problem, grid)
    elem = _patch_elements(grid, a_eps, fluct)
    op = element_operator(space, elem)
    zi = lattice_values(z_eff, grid).ravel()
    rhs = functional_vector(space, problem.functional) - op.matrix.T @ zi
    values = op.solve_constrained(rhs, transpose=True)
    return patch, space, zi, DiscreteField(space, values), (a_eps, fluct, elem)


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
        i_eff = "" if self.i_eff is None else f"{self.i_eff:.17g}"
        i_loc = "" if self.i_loc is None else f"{self.i_loc:.17g}"
        summary = (
            f"# summary,theta_H={self.theta_H:.17g},theta_delta={self.theta_delta:.17g},"
            f"I_eff={i_eff},I_loc={i_loc}\n"
        )
        hierarchy.sampling_grid.write_cell_table(
            path, "cell_i,cell_j,eta_K", self.eta[:, None], summary
        )


def _theta_H(problem, model, operator, U, z):
    """Residual of the effective problem, rhs(z) - (A_eff U, z), on the space
    of z.  On the macro space (effective and enhanced duals) A_eff is
    ``operator``, the one U was solved with.  The full dual lives on the fine
    grid, where (A_eff U, z) is summed cellwise, z4^T E u4 with E the
    effective element matrices, and no operator is assembled."""
    space = z.space
    if space is operator.space:
        rhs = problem_rhs(problem, space) @ z.values
        return float(rhs - z.values @ (operator.matrix @ U.values))
    rhs = serial_product(problem_rhs(problem, space), z.values)
    grid = space.grid
    elem = diffusion_element_matrices(grid, model.tensors_at(grid.cell_centers))
    if problem.is_advective:
        elem += advection_elements(grid, problem.delta_values(grid), skew=False)
    u4 = gather(grid, lattice_values(U, grid).ravel())
    return float(rhs - np.einsum("cp,cpq,cq->", gather(grid, z.values), elem, u4))


class _PatchContext:
    """Per-cell data shared by the indicator eta_K and its Jacobian row.

    A context keeps the patch, its micro grid, the dual z* at the patch
    nodes and the fine data of the patch cells (A_eps, the transport
    fluctuation element matrices and, from the enhancement, the patch
    operator's element matrices).  Of U and z* per cell and of A_delta -
    A_eps it keeps the center cell's alone (``u4``, ``z4``, ``d_tensors``,
    the patch cells' rows restricted to the sampling cell), which is all
    eta_K reads.  The response terms of the Jacobian row read the whole
    patch; their contraction is built on the first :meth:`response_terms`
    call, so a sweep without Jacobian never builds it."""

    def __init__(self, problem, model, U, k, patch, grid, zstar, data):
        self.k = k
        self.patch = patch
        self.grid = grid
        self.zstar = zstar
        self.a_eps, self.fluct, self._elem = data
        self._delta = problem.hierarchy.delta
        self._tensors = model.tensors[list(patch.members)]
        self._macro = U.space.grid
        self._bbox = bbox = problem.hierarchy.sampling_bbox(k)
        center = grid.subgrid(bbox)
        self.d_tensors = model.tensors[k] - grid.restrict(self.a_eps, bbox)
        self.u4 = gather(center, lattice_values(U, center).ravel())
        self.z4 = gather(center, grid.restrict(zstar, bbox, nodal=True))
        self._terms = None

    def indicator_and_stack(self):
        """(eta_K, direct-term stack) over the center cell's region."""
        stack = diffusion_form_stack(self.grid, self.u4, self.z4)
        eta = float(np.einsum("cab,cab->", self.d_tensors, stack))
        if self.fluct is not None:
            fluct = self.grid.restrict(self.fluct, self._bbox)
            eta -= float(np.einsum("cp,cpq,cq->", self.z4, fluct, self.u4))
        return eta, stack.sum(axis=0)

    def _contraction(self):
        """(members, macro nodes of the patch) matrix C: row m of C @ R is
        the term of member m for the values R of a macro field at the
        patch's macro nodes.
        The weights z*^T (E_delta - E) of every patch cell, with E_delta the
        diffusion element matrices of its member's tensor and E those of the
        patch operator, are summed per member and node, then contracted with
        the interpolation from the member's macro nodes (one
        :func:`lattice_matrix` per axis)."""
        grid = self.grid
        side = _exact_ratio(self._delta, grid.spacing[0], "sampling cell")
        ratio = _exact_ratio(self._macro.spacing[0], grid.spacing[0], "macro cell")
        nx, ny, q = grid.nx // side, grid.ny // side, side // ratio
        elem = self._elem
        if elem is None:
            elem = _patch_elements(grid, self.a_eps, self.fluct)
        z4 = gather(grid, self.zstar)
        # axes: member row, member column, cell row, cell column, corner
        by_member = z4.reshape(ny, side, nx, side, 4).transpose(0, 2, 1, 3, 4)
        member = diffusion_element_matrices(grid, self._tensors).reshape(ny, nx, 4, 4)
        weights = (by_member.reshape(ny, nx, side * side, 4) @ member).reshape(by_member.shape)
        patch_weights = np.einsum("cp,cpq->cq", z4, elem).reshape(ny, side, nx, side, 4)
        weights -= patch_weights.transpose(0, 2, 1, 3, 4)
        # per member, the corners' weights summed per node in cell order
        nodal = np.zeros((ny, nx, side + 1, side + 1))
        nodal[..., 1:, 1:] += weights[..., 3]
        nodal[..., 1:, :-1] += weights[..., 2]
        nodal[..., :-1, 1:] += weights[..., 1]
        nodal[..., :-1, :-1] += weights[..., 0]
        table = lattice_matrix(side + 1, ratio)
        per_member = table.T @ nodal @ table
        contraction = np.zeros((ny, nx, ny * q + 1, nx * q + 1))
        for j in range(ny):
            for i in range(nx):
                contraction[j, i, j * q : j * q + q + 1, i * q : i * q + q + 1] = per_member[j, i]
        return contraction.reshape(ny * nx, -1)

    def response_terms(self, fields):
        """(members, fields) array of int_Q (A_delta - A_eps) grad R . grad z*
        [- (b_eps - b_delta) . grad R z*] for every patch member Q and macro
        field R of ``fields``: one product of the contraction with the
        fields' values at the patch's macro nodes."""
        if self._terms is None:
            self._terms = self._contraction()
        values = np.column_stack([f.values for f in fields])
        return self._terms @ self._macro.restrict(values, self.patch.bbox, nodal=True)


def _patch_context(problem, model, U, dual, k):
    """Context of sampling cell ``k``.  The enhanced dual lives on the
    enhancement patch of depth ``dual.depth`` and shares the fine data of its
    patch operator; the full and effective duals are restricted to the
    depth-1 patch, which bounds the Jacobian band."""
    hierarchy = problem.hierarchy
    z = dual.z_global
    if dual.mode == "enhanced":
        patch, patch_space, zi, z_k, data = local_enhancement(problem, z, k, dual.depth)
        grid = patch_space.grid
        zstar = zi + z_k.values
        return _PatchContext(problem, model, U, k, patch, grid, zstar, data)
    patch = hierarchy.patch_of(k, 1)
    grid = hierarchy.micro_grid(patch.bbox)
    if dual.mode == "full":
        zstar = z.space.grid.restrict(z.values, patch.bbox, nodal=True)
    elif dual.mode == "effective":
        zstar = lattice_values(z, grid).ravel()
    else:
        raise ValueError(f"unknown dual mode '{dual.mode}'")
    data = _fine_data(problem, grid) + (None,)
    return _PatchContext(problem, model, U, k, patch, grid, zstar, data)


def indicator_sweep(problem, model, U, dual):
    """The one pass over the sampling cells behind every indicator: yields
    (context, eta_K, direct-term stack) per cell.  Patch reconstructions are
    built per cell, consumed, and discarded."""
    for k in range(problem.hierarchy.n_sampling):
        ctx = _patch_context(problem, model, U, dual, k)
        eta_k, stack = ctx.indicator_and_stack()
        yield ctx, eta_k, stack


def error_breakdown(problem, model, operator, U, dual, eta, j_reference=None):
    """Breakdown of one primal/dual solve: ``operator`` is the effective
    operator U was solved with and ``eta`` the indicators of its sweep."""
    return ErrorBreakdown(
        theta_H=_theta_H(problem, model, operator, U, dual.z_global),
        eta=eta,
        j_of_U=apply_functional(problem.functional, U),
        j_reference=j_reference,
    )


def error_identity(problem, model, operator, U, dual, j_reference=None):
    """Macro residual theta_H, local indicators eta_K and their sum, for U
    solved with the effective ``operator``.

    The indicators substitute the computable U for the exact effective
    solution; the sign convention estimates <j, u_fine> - <j, U>.
    """
    eta = np.array([eta_k for _, eta_k, _ in indicator_sweep(problem, model, U, dual)])
    return error_breakdown(problem, model, operator, U, dual, eta, j_reference)
