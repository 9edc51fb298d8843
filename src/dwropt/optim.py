"""Model optimization: residual vector, approximate block Jacobian, damped
Gauss-Newton update and the outer optimization loop.

The residual stacks every local model-error indicator eta_K on top of the
regularization entries sqrt(alpha_K) (A_K - A0_K)_ij.  The Jacobian column of
parameter (K, i, j) holds the direct term int_K dU/dx_j dz*/dx_i (only in row
K), the primal-response term on the cells of the patch around K, and the
regularization diagonal; the response of the dual reconstruction is neglected
by design.  The exact directional derivative, including every response term,
is available in :func:`full_gateaux` for verification at test scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .dwr import DualApproximation, error_breakdown, indicator_sweep
from .errors import ConfigurationError, NumericalError
from .fem import (
    DiscreteField,
    advection_form_percell,
    diffusion_element_matrices,
    diffusion_form_percell,
    effective_operator,
    element_operator,
    evaluate,
    gather,
    gauss_point_coords,
    lattice_values,
    problem_rhs,
    q1_blocks,
    serial_product,
    solve,
    solve_dual,
)

_IJ = ((0, 0), (0, 1), (1, 0), (1, 1))

# The columns of history.csv, which are also the keys of a history row.
HISTORY_COLUMNS = (
    "cycle", "l2_error", "j_of_U", "abs_error", "rel_error_pct", "theta_tilde",
    "I_eff", "I_loc", "lambda", "step_norm",
)

# The loop stops as diverged once |theta| exceeds this multiple of its
# first-cycle value.
DIVERGENCE_FACTOR = 10.0


@dataclass
class OptimizerConfig:
    """Knobs of the Gauss-Newton loop.

    ``alpha=None`` auto-scales the regularization to
    ``alpha_scale * |theta|^2 / mean ||A0_K||_F^2`` at the first cycle.
    ``lambda_factor`` multiplies the mean absolute diagonal of the normal
    matrix.  ``stop_fraction`` is the target reduction of |theta| relative to
    its first-cycle value.
    """

    alpha: object = None
    alpha_scale: float = 1e-4
    lambda_factor: float = 1.0
    jacobian_mode: str = "patch"
    dual_mode: str = "enhanced"
    depth: int = 1
    max_cycles: int = 15
    stop_fraction: float = 0.05

    def validate(self):
        if self.jacobian_mode not in ("patch", "diagonal"):
            raise ConfigurationError(f"unknown jacobian mode '{self.jacobian_mode}'")
        if self.dual_mode not in ("enhanced", "full", "effective"):
            raise ConfigurationError(f"unknown dual mode '{self.dual_mode}'")
        if not 0.0 < self.stop_fraction <= 1.0:
            raise ConfigurationError("stop_fraction must lie in (0, 1]")
        if not np.isfinite(self.lambda_factor) or self.lambda_factor < 0.0:
            raise ConfigurationError("lambda_factor must be finite and nonnegative")
        if self.depth not in (0, 1):
            raise ConfigurationError("enhancement depth must be 0 or 1")
        if self.max_cycles < 0:
            raise ConfigurationError("max_cycles must be nonnegative")
        if not np.isfinite(self.alpha_scale) or self.alpha_scale < 0.0:
            raise ConfigurationError("alpha_scale must be finite and nonnegative")
        if self.alpha is not None:
            alpha = np.asarray(self.alpha, dtype=float)
            if not np.all(np.isfinite(alpha)) or np.any(alpha < 0.0):
                raise ConfigurationError("alpha must be finite and nonnegative")


def regularization_residual(model, model0, alpha):
    """Entries sqrt(alpha_K) (A - A0)_Kij, cell-major then row then column."""
    diff = (model.tensors - model0.tensors).reshape(-1, 4)
    return (np.sqrt(alpha)[:, None] * diff).ravel()


def response_rhs(problem, macro_space, U, k, i, j):
    """Load of the primal response equation for parameter (K, i, j):
    -int_K dU/dx_j dphi/dx_i, assembled only over macro cells inside K."""
    grid = macro_space.grid
    cell_nodes = grid.restrict(grid.cell_nodes, problem.hierarchy.sampling_bbox(k))
    kblocks, _ = q1_blocks(*grid.spacing)
    loads = -np.einsum("pq,cq->cp", kblocks[i, j], U.values[cell_nodes]).ravel()
    return np.bincount(cell_nodes.ravel(), weights=loads, minlength=macro_space.n_dofs)


def response_U(problem, operator, U, k, i, j):
    """Primal response D_Kij U, reusing the cached factorization of the
    effective operator."""
    return solve(operator, response_rhs(problem, operator.space, U, k, i, j))


def primal_dual(problem, model, config):
    """Effective operator, primal solution U and dual approximation of
    ``model`` on the macro space.  The full dual does not depend on the
    model and is problem data (:meth:`dwropt.fem.Problem.fine_solution`)."""
    macro_space = problem.macro_space()
    operator = effective_operator(problem, model, macro_space)
    U = solve(operator, problem_rhs(problem, macro_space))
    if config.dual_mode == "full":
        z = problem.fine_solution()[1]
    else:
        z = solve_dual(operator, problem.functional)
    return operator, U, DualApproximation(config.dual_mode, z, config.depth)


def assemble_system(problem, model, U, operator, dual, jacobian_mode="patch",
                    want_jacobian=True):
    """One indicator sweep: local indicators eta_K and (optionally) the
    eta-block of the approximate Jacobian, built from the same per-cell
    contexts.

    The Jacobian is returned in COO triplet form restricted to the eta rows;
    the regularization rows are appended later once alpha is fixed.
    """
    eta = np.zeros(problem.hierarchy.n_sampling)
    rows, cols, vals = [], [], []
    for ctx, eta_k, direct in indicator_sweep(problem, model, U, dual):
        k = ctx.k
        eta[k] = eta_k
        if not want_jacobian:
            continue
        members = ctx.patch.members
        # row m, column 2i + j: the term of member m for parameter (k, i, j)
        terms = ctx.response_terms([response_U(problem, operator, U, k, i, j) for i, j in _IJ])
        terms[members.index(k)] += direct.ravel()
        band = members if jacobian_mode == "patch" else (k,)
        for q in band:
            rows.extend([q] * 4)
            cols.extend(range(4 * k, 4 * k + 4))
            vals.extend(terms[members.index(q)])
    if not want_jacobian:
        return eta, None
    return eta, (rows, cols, vals)


def build_jacobian(n, triplets, alpha):
    """Sparse Jacobian (eta rows + regularization rows) x (4n parameters)."""
    rows, cols, vals = triplets
    eta_rows = sp.coo_matrix((vals, (rows, cols)), shape=(n, 4 * n))
    return sp.vstack([eta_rows, sp.diags(np.repeat(np.sqrt(alpha), 4))], format="csr")


def lm_step(jac, residual_flat, lambda_factor):
    """Damped normal-equation step: (J^T J + lambda I) delta = -J^T G with
    lambda = lambda_factor * mean |diag(J^T J)|, a sparse solve (J^T J couples
    only parameters of overlapping patches).  Returns (delta, lambda, m)."""
    grad = jac.T @ residual_flat
    if not np.any(grad):
        return np.zeros(jac.shape[1]), 0.0, 0.0
    jtj = (jac.T @ jac).tocsc()
    m = float(np.abs(jtj.diagonal()).mean())
    lam = lambda_factor * m
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            delta = spsolve(jtj + lam * sp.identity(jac.shape[1], format="csc"), -grad)
        except MatrixRankWarning as exc:
            raise NumericalError(f"damped normal equations singular (lambda={lam}): {exc}") from exc
    return delta, lam, m


def apply_update(model, delta, cycle):
    """Symmetrized model update A <- A + 0.5 (dA + dA^T)."""
    dt = delta.reshape(-1, 2, 2)
    dt = 0.5 * (dt + dt.transpose(0, 2, 1))
    return model.with_tensors(model.tensors + dt, f"optimized(cycle {cycle})"), float(
        np.sqrt(np.sum(dt**2))
    )


def resolve_alpha(config, theta_abs, model0):
    """Per-cell regularization weights; auto mode scales with the estimator."""
    n = model0.hierarchy.n_sampling
    if config.alpha is None:
        mean_norm = float(np.mean(np.sum(model0.tensors**2, axis=(1, 2))))
        if mean_norm == 0.0 or theta_abs == 0.0:
            return np.zeros(n)
        return np.full(n, config.alpha_scale * theta_abs**2 / mean_norm)
    a = np.asarray(config.alpha, dtype=float)
    if a.ndim == 0:
        return np.full(n, float(a))
    if a.shape != (n,):
        raise ConfigurationError(f"alpha must be scalar or length {n}")
    return a.copy()


@dataclass
class GaussNewtonState:
    """Outcome of the optimization loop: final model, one row per cycle, the
    resolved regularization and the ``NumericalError`` that stopped it, if any.

    A row maps every name of ``HISTORY_COLUMNS`` (None where not computed)
    plus ``cost``, the squared residual norm, and ``indefinite``, the number
    of cells whose model tensor has a negative eigenvalue."""

    model: object
    initial_model: object
    alpha: np.ndarray = None
    history: list = dc_field(default_factory=list)
    stop_reason: str = "max_cycles"
    failure: Exception = None

    @property
    def cycles(self):
        return len(self.history)

    def history_csv_text(self):
        lines = [",".join(HISTORY_COLUMNS)]
        for row in self.history:
            lines.append(",".join(
                "" if row[c] is None else f"{row[c]:.17g}" for c in HISTORY_COLUMNS
            ))
        return "\n".join(lines) + "\n"

    def write_history(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(self.history_csv_text())


def l2_error_against(u_ref, U):
    """L2 norm of u_ref - U on the reference space: sqrt(sum of d4^T M d4)
    over its cells, d4 the cell's nodal values of u_ref - U and M the exact
    Q1 mass block."""
    grid = u_ref.space.grid
    d4 = gather(grid, u_ref.values - lattice_values(U, grid).ravel())
    _, mass = q1_blocks(*grid.spacing)
    return float(np.sqrt(np.sum(serial_product(d4, mass) * d4)))


def run_optimization(problem, initial_model, config, oracle=None):
    """Gauss-Newton model-optimization loop.

    Per cycle: solve the effective primal and dual, sweep the sampling cells
    for indicators, patch reconstructions and Jacobian entries, then take one
    damped step.  Stops when |theta| falls below ``stop_fraction`` of its
    first-cycle value, diverges past ``DIVERGENCE_FACTOR`` times it, theta or
    the step turns non-finite, a solve raises a ``NumericalError`` (stop
    reason "numerical failure: <message>"), or the cycle budget is exhausted.
    ``oracle`` is an optional (u_ref, j_ref) pair used only for reporting.
    """
    config.validate()
    model = initial_model
    state = GaussNewtonState(model=model, initial_model=initial_model)
    theta1 = None
    n_rows = max(config.max_cycles, 1)

    try:
        for cycle in range(1, n_rows + 1):
            operator, U, dual = primal_dual(problem, model, config)
            want_jac = cycle < n_rows
            eta, triplets = assemble_system(
                problem, model, U, operator, dual, config.jacobian_mode, want_jacobian=want_jac
            )
            err = error_breakdown(
                problem, model, operator, U, dual, eta, None if oracle is None else oracle[1]
            )
            theta = err.theta_delta
            if cycle == 1:
                theta1 = abs(theta)
                state.alpha = resolve_alpha(config, theta1, initial_model)
            g = regularization_residual(model, initial_model, state.alpha)
            row = dict.fromkeys(HISTORY_COLUMNS)
            row.update(
                cycle=cycle,
                j_of_U=err.j_of_U,
                theta_tilde=theta,
                I_eff=err.i_eff,
                I_loc=err.i_loc,
                cost=float(eta @ eta + g @ g),
                indefinite=int(np.sum(model.min_eigenvalues() < 0.0)),
            )
            if oracle is not None:
                u_ref, j_ref = oracle
                row["l2_error"] = l2_error_against(u_ref, U)
                abs_err = abs(j_ref - err.j_of_U)
                row["abs_error"] = abs_err
                row["rel_error_pct"] = 100.0 * abs_err / abs(j_ref) if j_ref != 0.0 else None
            state.history.append(row)
            state.model = model

            if cycle == 1 and theta1 == 0.0:
                state.stop_reason = "initial estimator zero"
                break
            if abs(theta) <= config.stop_fraction * theta1:
                state.stop_reason = "converged"
                break
            if not np.isfinite(theta) or abs(theta) > DIVERGENCE_FACTOR * theta1:
                state.stop_reason = "diverged"
                break
            if not want_jac:
                state.stop_reason = "max_cycles"
                break

            jac = build_jacobian(problem.hierarchy.n_sampling, triplets, state.alpha)
            delta, lam, _ = lm_step(jac, np.concatenate([eta, g]), config.lambda_factor)
            if not np.all(np.isfinite(delta)):
                state.stop_reason = "diverged"
                break
            model, step_norm = apply_update(model, delta, cycle)
            row["lambda"] = lam
            row["step_norm"] = step_norm
    except NumericalError as exc:  # a singular macro, patch or normal-equation solve
        state.stop_reason = f"numerical failure: {exc}"
        state.failure = exc
    return state


# ---------------------------------------------------------------------------
# exact-derivative path (verification at test scale)


def _eta_independent(problem, model, k, grid, u_values, zstar_values):
    """Indicator eta_K recomputed with an independent quadrature pass:
    3x3 Gauss gradients for the diffusion part (exact for the same integral),
    per-Gauss-point forms for the advection part, sampling b_eps and b_delta
    itself at the assembly's 2x2 points."""
    pts3, wts3 = np.polynomial.legendre.leggauss(3)
    pts3 = 0.5 * (pts3 + 1.0)
    wts3 = 0.5 * wts3
    hx, hy = grid.spacing
    d_tensors = model.tensors[k] - problem.coefficient.tensors_at(grid.cell_centers)
    u4 = gather(grid, u_values)
    z4 = gather(grid, zstar_values)
    total = 0.0
    for qx, wx in zip(pts3, wts3):
        for qy, wy in zip(pts3, wts3):
            du = np.stack(
                [
                    (-(1 - qy) * u4[:, 0] + (1 - qy) * u4[:, 1] - qy * u4[:, 2] + qy * u4[:, 3]) / hx,
                    (-(1 - qx) * u4[:, 0] - qx * u4[:, 1] + (1 - qx) * u4[:, 2] + qx * u4[:, 3]) / hy,
                ],
                axis=1,
            )
            dz = np.stack(
                [
                    (-(1 - qy) * z4[:, 0] + (1 - qy) * z4[:, 1] - qy * z4[:, 2] + qy * z4[:, 3]) / hx,
                    (-(1 - qx) * z4[:, 0] - qx * z4[:, 1] + (1 - qx) * z4[:, 2] + qx * z4[:, 3]) / hy,
                ],
                axis=1,
            )
            flux = np.einsum("cab,cb->ca", d_tensors, du)
            total += wx * wy * hx * hy * float(np.einsum("ca,ca->", flux, dz))
    if problem.is_advective:
        pts = gauss_point_coords(grid).reshape(-1, 2)
        b_eps = problem.advection.values_at(pts).reshape(grid.n_cells, 4, 2)
        cells = problem.hierarchy.sampling_grid.locate(pts, clip=True)
        b_delta = problem.average_advection()[cells].reshape(grid.n_cells, 4, 2)
        fluct = advection_form_percell(grid, b_eps, u4, z4, skew=True)
        fluct = fluct - advection_form_percell(grid, b_delta, u4, z4, skew=False)
        total -= float(np.sum(fluct))
    return total


def cost_value(problem, model, model0, alpha, config):
    """Cost functional |G|^2 recomputed from scratch with the independent
    indicator quadrature."""
    hierarchy = problem.hierarchy
    _, U, dual = primal_dual(problem, model, config)
    total = 0.0
    for ctx, _, _ in indicator_sweep(problem, model, U, dual):
        bbox = hierarchy.sampling_bbox(ctx.k)
        cell_grid = ctx.grid.subgrid(bbox)
        zstar = ctx.grid.restrict(ctx.zstar, bbox, nodal=True)
        u_vals = evaluate(U, cell_grid.node_coords)
        total += _eta_independent(problem, model, ctx.k, cell_grid, u_vals, zstar) ** 2
    diff = (model.tensors - model0.tensors).reshape(-1, 4)
    total += float(np.sum(alpha[:, None] * diff**2))
    return total


def full_gateaux(problem, model, model0, alpha, direction, config):
    """Cost and its exact directional derivative, including every response.

    Implements the full derivative of the reduced cost: the direct tensor
    term, the primal response w, and (for the enhanced dual) the responses of
    the macro dual and of each patch reconstruction.  Diffusion problems
    only; intended for verification on small instances.
    """
    if problem.is_advective:
        raise ConfigurationError("the exact-derivative path supports diffusion problems only")
    hierarchy = problem.hierarchy
    n = hierarchy.n_sampling
    direction = np.asarray(direction, dtype=float).reshape(n, 2, 2)
    operator, U, dual = primal_dual(problem, model, config)
    macro_space = operator.space
    kblocks, _ = q1_blocks(*macro_space.grid.spacing)
    macro_parents = hierarchy.macro_parent
    u4m = gather(macro_space.grid, U.values)

    # primal response w: (A grad w, grad phi) = -(dir grad U, grad phi)
    dir_cells = direction[macro_parents]
    loads = -np.einsum("cab,abpq,cq->cp", dir_cells, kblocks, u4m)
    cell_nodes = macro_space.grid.cell_nodes.ravel()
    w = solve(operator, np.bincount(cell_nodes, weights=loads.ravel(), minlength=macro_space.n_dofs))

    dz_eff = None
    if config.dual_mode != "full":
        # dual response: (A grad phi, grad DZ) = -(dir grad phi, grad Z)
        z4m = gather(macro_space.grid, dual.z_global.values)
        loads = -np.einsum("cab,bapq,cq->cp", dir_cells, kblocks, z4m)
        rhs_dz = np.bincount(cell_nodes, weights=loads.ravel(), minlength=macro_space.n_dofs)
        dz_eff = DiscreteField(macro_space, operator.solve_constrained(rhs_dz, transpose=True))

    cost = 0.0
    deriv = 0.0
    for ctx, eta_k, stack in indicator_sweep(problem, model, U, dual):
        k = ctx.k
        cost += eta_k**2
        t_direct = float(np.einsum("ab,ab->", direction[k], stack))
        t_resp = float(ctx.response_terms([w])[ctx.patch.members.index(k), 0])
        t_dual = 0.0
        if dz_eff is not None:
            dzi = evaluate(dz_eff, ctx.grid.node_coords)
            if config.dual_mode == "enhanced":
                # patch-reconstruction response: (A_eps grad phi, grad DZ_K) =
                # -(A_eps grad phi, grad DZ) on the patch
                elem = diffusion_element_matrices(ctx.grid, ctx.a_eps)
                patch_op = element_operator(problem.space(ctx.grid), elem)
                dzi = dzi + patch_op.solve_constrained(-(patch_op.matrix.T @ dzi), transpose=True)
            dz4 = ctx.grid.restrict(gather(ctx.grid, dzi), hierarchy.sampling_bbox(k))
            t_dual = float(np.sum(diffusion_form_percell(ctx.grid, ctx.d_tensors, ctx.u4, dz4)))
        deriv += 2.0 * eta_k * (t_direct + t_resp + t_dual)
    diff = model.tensors - model0.tensors
    cost += float(np.sum(alpha[:, None, None] * diff**2))
    deriv += 2.0 * float(np.sum(alpha[:, None, None] * diff * direction))
    return cost, deriv
