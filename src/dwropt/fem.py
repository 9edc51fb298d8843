"""Bilinear (Q1) finite elements on structured rectangular grids.

Element integrals of basis-function products are exact (the 2x2 Gauss rule is
exact for every polynomial appearing here).  Variable diffusion tensors are
sampled once per cell (midpoint); advection fields are sampled at the 2x2
Gauss points.  Every bilinear form in the package is evaluated through the
element machinery in this module, which is what makes the discrete error
identity hold to solver precision.

The advection form is assembled in cellwise skew-symmetrized fashion,
0.5 * [(b . grad u, v) - (b . grad v, u)].  For divergence-free fields that
vanish on the boundary the two variants coincide; the skew form realizes the
adjoint structure of the transport operator exactly at the discrete level.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, OutOfDomainError, SingularOperatorError
from .field import CellAveragedAdvection
from .mesh import SIDES, _exact_ratio

# 1-d exact integrals of the hat functions N0 = 1 - t, N1 = t on [0, 1]
_M1 = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0       # int N_i N_j
_S1 = np.array([[1.0, -1.0], [-1.0, 1.0]])           # int N_i' N_j'
_G1 = np.array([[-0.5, -0.5], [0.5, 0.5]])           # int N_i' N_j

_GP = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def _pack(x_part, y_part):
    """Tensor-product 4x4 block: out[p, q] with p = a + 2b, q = c + 2d."""
    return np.einsum("ac,bd->badc", x_part, y_part).reshape(4, 4)


@lru_cache(maxsize=64)
def q1_blocks(hx, hy):
    """Exact element blocks on an hx x hy rectangle.

    ``k[a, b]`` is the 4x4 matrix of int d_a(phi_p) d_b(phi_q); ``mass`` the
    mass matrix.  Node order: lower-left, lower-right, upper-left, upper-right.
    """
    k = np.empty((2, 2, 4, 4))
    k[0, 0] = (hy / hx) * _pack(_S1, _M1)
    k[1, 1] = (hx / hy) * _pack(_M1, _S1)
    k[0, 1] = np.einsum("ac,db->badc", _G1, _G1).reshape(4, 4)
    k[1, 0] = k[0, 1].T
    mass = hx * hy * _pack(_M1, _M1)
    return k, mass


def _shape_values(u, v):
    n_u = np.array([1.0 - u, u])
    n_v = np.array([1.0 - v, v])
    d_u = np.array([-1.0, 1.0])
    phi = np.array([n_u[a] * n_v[b] for b in range(2) for a in range(2)])
    dphi = np.array(
        [[d_u[a] * n_v[b], n_u[a] * d_u[b]] for b in range(2) for a in range(2)]
    )
    return phi, dphi


def _gauss_tables():
    """Unit-coordinate data of the 2x2 Gauss rule: (points, weights, phi,
    dphi) with shapes (4, 2), (4,), (4, 4) and (4, 4, 2); weights sum to 1."""
    pts = [(u, v) for v in _GP for u in _GP]
    shapes = [_shape_values(u, v) for u, v in pts]
    return (
        np.array(pts),
        np.full(len(pts), 0.25),
        np.array([phi for phi, _ in shapes]),
        np.array([dphi for _, dphi in shapes]),
    )


_GAUSS = _gauss_tables()


@dataclass(frozen=True)
class Functional:
    """Quantity-of-interest functional.

    Kinds: ``domain_integral`` (integral of the solution), ``point_value``
    (evaluation at a point), ``boundary_integral`` (integral over a marked
    boundary part).
    """

    kind: str
    point: tuple = None
    marker: str = None

    @classmethod
    def domain_integral(cls):
        return cls("domain_integral")

    @classmethod
    def point_value(cls, x0):
        return cls("point_value", point=(float(x0[0]), float(x0[1])))

    @classmethod
    def boundary_integral(cls, marker):
        return cls("boundary_integral", marker=marker)


class FeSpace:
    """Q1 space on a grid, with Dirichlet nodes derived from boundary markers.

    Grid boundary nodes that do not lie on the domain boundary (patch cuts)
    are always constrained to zero; nodes on the domain boundary are
    constrained when their marker is listed in ``dirichlet_markers``.
    """

    def __init__(self, grid, domain, dirichlet_markers=()):
        self.grid = grid
        self.domain = domain
        self.dirichlet_markers = frozenset(dirichlet_markers)
        self._classify()

    @property
    def n_dofs(self):
        return self.grid.n_nodes

    def _domain_side_of(self, grid_side):
        """Domain side name if the given grid side lies on the domain
        boundary, else None."""
        tol = 1e-9 * max(self.domain.extent)
        bb = self.grid.bbox
        coord = {"left": bb[0], "right": bb[2], "bottom": bb[1], "top": bb[3]}[grid_side]
        target = {
            "left": self.domain.xmin,
            "right": self.domain.xmax,
            "bottom": self.domain.ymin,
            "top": self.domain.ymax,
        }[grid_side]
        return grid_side if abs(coord - target) <= tol else None

    def _classify(self):
        g = self.grid
        nx, ny = g.nx, g.ny
        coords = g.node_coords
        ix = np.arange(g.n_nodes) % (nx + 1)
        iy = np.arange(g.n_nodes) // (nx + 1)
        constrained = np.zeros(g.n_nodes, dtype=bool)
        side_tests = {
            "left": ix == 0,
            "right": ix == nx,
            "bottom": iy == 0,
            "top": iy == ny,
        }
        for side, on_side in side_tests.items():
            if not np.any(on_side):
                continue
            dom_side = self._domain_side_of(side)
            if dom_side is None:
                constrained |= on_side  # interior patch cut
                continue
            axis = 1 if side in ("left", "right") else 0
            idx = np.nonzero(on_side)[0]
            for node in idx:
                markers = self.domain.markers_at(dom_side, coords[node, axis])
                if any(m in self.dirichlet_markers for m in markers):
                    constrained[node] = True
        self.dirichlet_nodes = np.nonzero(constrained)[0]
        self.free_nodes = np.nonzero(~constrained)[0]

    def marked_boundary_edges(self, marker):
        """Boundary edges carrying ``marker``: (m, 2) node pairs and lengths.

        Edges are classified by their midpoint coordinate along the side.  A
        marker that exists on the domain but does not touch this space's grid
        (a patch restriction) yields an empty match.
        """
        if marker not in self.domain.markers():
            raise ConfigurationError(f"unknown boundary marker '{marker}'")
        g = self.grid
        pairs, lengths = [], []
        for side in SIDES:
            dom_side = self._domain_side_of(side)
            if dom_side is None:
                continue
            if side in ("left", "right"):
                i = 0 if side == "left" else g.nx
                ids = np.arange(g.ny + 1) * (g.nx + 1) + i
                h = g.spacing[1]
                base = g.origin[1]
            else:
                j = 0 if side == "bottom" else g.ny
                ids = j * (g.nx + 1) + np.arange(g.nx + 1)
                h = g.spacing[0]
                base = g.origin[0]
            for e in range(len(ids) - 1):
                mid = base + (e + 0.5) * h
                if self.domain.marker_of(dom_side, mid) == marker:
                    pairs.append((ids[e], ids[e + 1]))
                    lengths.append(h)
        if not pairs:
            return np.zeros((0, 2), dtype=int), np.zeros(0)
        return np.array(pairs, dtype=int), np.array(lengths)


@dataclass
class DiscreteField:
    """Nodal coefficient vector on a finite-element space."""

    space: FeSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.n_dofs,):
            raise ConfigurationError(
                f"coefficient length {self.values.shape} does not match dof count {self.space.n_dofs}"
            )

    def to_csv(self, path):
        coords = self.space.grid.node_coords
        with open(path, "w", newline="\n") as fh:
            fh.write("x,y,value\n")
            for (x, y), v in zip(coords, self.values):
                fh.write(f"{x:.17g},{y:.17g},{v:.17g}\n")

    def to_vtk(self, path):
        g = self.space.grid
        with open(path, "w", newline="\n") as fh:
            fh.write("# vtk DataFile Version 3.0\n")
            fh.write("dwropt nodal field\n")
            fh.write("ASCII\nDATASET STRUCTURED_POINTS\n")
            fh.write(f"DIMENSIONS {g.nx + 1} {g.ny + 1} 1\n")
            fh.write(f"ORIGIN {g.origin[0]:.17g} {g.origin[1]:.17g} 0\n")
            fh.write(f"SPACING {g.spacing[0]:.17g} {g.spacing[1]:.17g} 1\n")
            fh.write(f"POINT_DATA {g.n_nodes}\n")
            fh.write("SCALARS value double 1\nLOOKUP_TABLE default\n")
            for v in self.values:
                fh.write(f"{v:.17g}\n")


class SparseOperator:
    """Square sparse operator with a cached LU factorization of its
    Dirichlet-constrained block, computed on first use and reused by every
    primal, dual (transposed) and response solve.  Every Q1 operator here has
    a structurally symmetric pattern, so the columns are ordered by minimum
    degree on A^T + A, which fills far less than SuperLU's default COLAMD.
    """

    def __init__(self, matrix, space):
        self.matrix = sp.csr_matrix(matrix)
        self.space = space
        self.factorization_count = 0
        self._lu = None

    def _factorize(self):
        if self._lu is None:
            free = self.space.free_nodes
            a_ff = self.matrix[free][:, free].tocsc()
            try:
                self._lu = splu(a_ff, permc_spec="MMD_AT_PLUS_A")
            except Exception as exc:  # scipy raises bare RuntimeError
                raise SingularOperatorError(
                    f"factorization of the {a_ff.shape[0]}-dof constrained system failed: {exc}"
                ) from exc
            self.factorization_count += 1
        return self._lu

    def solve_constrained(self, rhs, transpose=False):
        """Solution with homogeneous Dirichlet data: zero on the constrained
        nodes, the factored block solved (or its transpose) on the free ones."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.space.n_dofs,):
            raise ConfigurationError(
                f"rhs length {rhs.shape} does not match dof count {self.space.n_dofs}"
            )
        free = self.space.free_nodes
        x = np.zeros(self.space.n_dofs)
        x[free] = self._factorize().solve(rhs[free], trans="T" if transpose else "N")
        return x


# ---------------------------------------------------------------------------
# assembly


def element_operator(space, elem):
    """Operator scattered from (ncells, 4, 4) element matrices on the grid of
    ``space``; ``elem[c, p, q]`` couples test node p with trial node q."""
    cn = space.grid.cell_nodes
    n = space.n_dofs
    rows = np.repeat(cn, 4, axis=1).ravel()
    cols = np.tile(cn, (1, 4)).ravel()
    matrix = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return SparseOperator(matrix, space)


def diffusion_element_matrices(grid, tensors):
    """(ncells, 4, 4) element stiffness for cellwise-sampled tensors."""
    k, _ = q1_blocks(*grid.spacing)
    return np.einsum("cab,abpq->cpq", tensors, k)


def assemble_diffusion(space, coeff):
    """Stiffness operator for a tensor coefficient sampled once per element
    (midpoint).  ``coeff`` may be any object with a ``tensors_at(points)``
    method (a CoefficientField or an EffectiveModel)."""
    grid = space.grid
    tensors = coeff.tensors_at(grid.cell_centers)
    return element_operator(space, diffusion_element_matrices(grid, tensors))


def _gauss_points_physical(grid):
    pts, w, phi, dphi = _GAUSS
    hx, hy = grid.spacing
    offsets = np.column_stack([pts[:, 0] * hx - 0.5 * hx, pts[:, 1] * hy - 0.5 * hy])
    coords = grid.cell_centers[:, None, :] + offsets[None, :, :]
    dphi_scaled = dphi / np.array([hx, hy])
    return coords, w * hx * hy, phi, dphi_scaled


def gauss_values(grid, b):
    """Values of ``b`` (``values_at`` protocol) at the 2x2 Gauss points of
    every cell: (ncells, 4, 2)."""
    coords = gauss_point_coords(grid)
    return b.values_at(coords.reshape(-1, 2)).reshape(grid.n_cells, 4, 2)


def advection_elements(grid, b_values, skew=True):
    """(ncells, 4, 4) element matrices of (b . grad u, v) from the Gauss-point
    values of b (see :func:`gauss_values`): skew-symmetrized, or the plain
    Galerkin form with ``skew=False``."""
    _, w, phi, dphi = _gauss_points_physical(grid)
    wb = w[:, None] * b_values
    raw = np.einsum("ql,cqm->clm", phi, np.einsum("cqd,qmd->cqm", wb, dphi))
    if skew:
        return 0.5 * (raw - raw.transpose(0, 2, 1))
    return raw


def advection_element_matrices(grid, b):
    """Element matrices of (b . grad u, v) with ``b`` sampled at the 2x2
    Gauss points of every cell.

    The form follows the field's ``prefers_skew`` attribute: skew-symmetrized
    for divergence-free fine-scale fields, plain Galerkin for cellwise-constant
    effective transport.
    """
    return advection_elements(grid, gauss_values(grid, b), getattr(b, "prefers_skew", True))


def assemble_advection(space, b):
    """Advection operator for a vector field ``b`` (see
    :func:`advection_element_matrices`)."""
    return element_operator(space, advection_element_matrices(space.grid, b))


def assemble_rhs(space, f, neumann=()):
    """Load vector of (f, v) plus boundary flux terms int_G flux * v."""
    grid = space.grid
    rhs = np.zeros(space.n_dofs)
    if callable(f):
        coords, w, phi, _ = _gauss_points_physical(grid)
        fv = np.asarray(f(coords.reshape(-1, 2)), dtype=float).reshape(grid.n_cells, len(w))
        elem = np.einsum("q,cq,qp->cp", w, fv, phi)
        np.add.at(rhs, grid.cell_nodes.ravel(), elem.ravel())
    elif f != 0.0:
        quarter = f * grid.spacing[0] * grid.spacing[1] * 0.25
        np.add.at(rhs, grid.cell_nodes.ravel(), quarter)
    for marker, flux in neumann:
        pairs, lengths = space.marked_boundary_edges(marker)
        contrib = 0.5 * flux * lengths
        np.add.at(rhs, pairs[:, 0], contrib)
        np.add.at(rhs, pairs[:, 1], contrib)
    return rhs


def functional_vector(space, j):
    """Nodal vector representing the functional: <j, u_h> = vector . coeffs."""
    if j.kind == "domain_integral":
        return assemble_rhs(space, 1.0)
    if j.kind == "point_value":
        vec = np.zeros(space.n_dofs)
        grid = space.grid
        p = np.asarray(j.point, dtype=float).reshape(1, 2)
        if not bool(space.domain.contains(p)[0]):
            raise OutOfDomainError(f"functional point {j.point} lies outside the domain")
        bb = grid.bbox
        tol = 1e-12 * max(space.domain.extent)
        inside_grid = (
            bb[0] - tol <= p[0, 0] <= bb[2] + tol and bb[1] - tol <= p[0, 1] <= bb[3] + tol
        )
        if not inside_grid:
            return vec  # patch restriction: the point lies outside this grid
        cell = grid.locate(p, clip=True)[0]
        x0, y0 = grid.cell_bbox(cell)[:2]
        u = (p[0, 0] - x0) / grid.spacing[0]
        v = (p[0, 1] - y0) / grid.spacing[1]
        phi, _ = _shape_values(u, v)
        vec[grid.cell_nodes[cell]] = phi
        return vec
    if j.kind == "boundary_integral":
        vec = np.zeros(space.n_dofs)
        pairs, lengths = space.marked_boundary_edges(j.marker)
        np.add.at(vec, pairs[:, 0], 0.5 * lengths)
        np.add.at(vec, pairs[:, 1], 0.5 * lengths)
        return vec
    raise ConfigurationError(f"unknown functional kind '{j.kind}'")


def apply_functional(j, u):
    """<j, u> evaluated with the same weights as the dual right-hand side."""
    return float(functional_vector(u.space, j) @ u.values)


def solve(op, rhs):
    """Direct solve of the constrained system; the factorization is cached on
    the operator and reused by subsequent solves."""
    return DiscreteField(op.space, op.solve_constrained(rhs))


def solve_dual(op, j):
    """Transposed solve against a functional (or a raw functional vector)."""
    vec = functional_vector(op.space, j) if isinstance(j, Functional) else np.asarray(j, float)
    return DiscreteField(op.space, op.solve_constrained(vec, transpose=True))


# ---------------------------------------------------------------------------
# evaluation, interpolation, per-cell forms


def evaluate(field, points):
    """Bilinear evaluation of a nodal field at arbitrary points (clamped to
    the closure of its grid)."""
    grid = field.space.grid
    p = np.atleast_2d(np.asarray(points, dtype=float))
    tx = np.clip((p[:, 0] - grid.origin[0]) / grid.spacing[0], 0.0, grid.nx)
    ty = np.clip((p[:, 1] - grid.origin[1]) / grid.spacing[1], 0.0, grid.ny)
    ix = np.minimum(np.floor(tx).astype(int), grid.nx - 1)
    iy = np.minimum(np.floor(ty).astype(int), grid.ny - 1)
    fx = tx - ix
    fy = ty - iy
    n00 = iy * (grid.nx + 1) + ix
    v = field.values
    return (
        v[n00] * (1 - fx) * (1 - fy)
        + v[n00 + 1] * fx * (1 - fy)
        + v[n00 + grid.nx + 1] * (1 - fx) * fy
        + v[n00 + grid.nx + 2] * fx * fy
    )


def interpolate(field, target_space):
    """Nodal interpolation onto another space (exact on nested refinements)."""
    return DiscreteField(target_space, evaluate(field, target_space.grid.node_coords))


def gather(grid, values):
    """Per-cell 4-node coefficient gather: (ncells, 4)."""
    return values[grid.cell_nodes]


def diffusion_form_stack(grid, u4, z4):
    """s[c, a, b] = int_cell d_a(z) d_b(u); contract with a tensor to get the
    cellwise diffusion form (c grad u, grad z)."""
    k, _ = q1_blocks(*grid.spacing)
    return np.einsum("cp,abpq,cq->cab", z4, k, u4)


def diffusion_form_percell(grid, tensors, u4, z4):
    return np.einsum("cab,cab->c", tensors, diffusion_form_stack(grid, u4, z4))


def advection_form_percell(grid, b_values, u4, z4, skew=True):
    """Cellwise (b . grad u, z) from Gauss-point values of b, with the same
    quadrature and (skewed) form as :func:`advection_elements`: an independent
    evaluation of z4^T E u4."""
    _, w, phi, dphi = _gauss_points_physical(grid)
    du = np.einsum("cp,qpd->cqd", u4, dphi)
    zq = np.einsum("cp,qp->cq", z4, phi)
    raw_uz = np.einsum("q,cqd,cqd,cq->c", w, b_values, du, zq)
    if not skew:
        return raw_uz
    dz = np.einsum("cp,qpd->cqd", z4, dphi)
    uq = np.einsum("cp,qp->cq", u4, phi)
    raw_zu = np.einsum("q,cqd,cqd,cq->c", w, b_values, dz, uq)
    return 0.5 * (raw_uz - raw_zu)


def gauss_point_coords(grid):
    """Physical 2x2 Gauss points per cell: (ncells, 4, 2)."""
    coords, _, _, _ = _gauss_points_physical(grid)
    return coords


def value_sq_percell(grid, u4):
    """int_cell u^2 (exact for bilinear u)."""
    _, w, phi, _ = _gauss_points_physical(grid)
    uq = np.einsum("cp,qp->cq", u4, phi)
    return np.einsum("q,cq->c", w, uq**2)


# ---------------------------------------------------------------------------
# problem description


@dataclass
class Problem:
    """A heterogeneous diffusion or advection-diffusion problem with one
    quantity of interest.

    ``coefficient`` is the fine-scale tensor (gamma * Id for the
    advection-diffusion setting), ``advection`` the optional fine-scale
    divergence-free field.  ``neumann`` lists (marker, flux) pairs entering
    the load functional; ``dirichlet`` the markers carrying (homogeneous)
    Dirichlet conditions.

    The problem is the one place that keeps what every cycle reads: the
    macro and global fine spaces, and the fine data per grid spacing.  Patch
    spaces are built on demand and never cached.
    """

    hierarchy: object
    coefficient: object
    functional: Functional
    advection: object = None
    source: object = 0.0
    neumann: tuple = ()
    dirichlet: tuple = SIDES
    _spaces: dict = dc_field(default_factory=dict, repr=False)
    _fine: dict = dc_field(default_factory=dict, repr=False)
    _b_delta: object = dc_field(default=None, repr=False)

    @property
    def is_advective(self):
        if self.advection is None:
            return False
        return getattr(self.advection, "kind", None) != "zero"

    def space(self, grid):
        return FeSpace(grid, self.hierarchy.domain, self.dirichlet)

    def _global_space(self, grid):
        key = (grid.origin, grid.spacing, grid.shape)
        if key not in self._spaces:
            self._spaces[key] = self.space(grid)
        return self._spaces[key]

    def macro_space(self):
        return self._global_space(self.hierarchy.macro_grid)

    def fine_space(self, h):
        return self._global_space(self.hierarchy.fine_grid(h))

    def fine_data(self, h):
        """(grid, a_eps, E_eps, F) on ``hierarchy.fine_grid(h)``: the fine
        tensor per cell and, for advective problems, the skew element matrices
        E_eps of b_eps and the transport fluctuation F = E_eps - E_delta, with
        E_delta the plain element matrices of b_delta (both None without
        transport).  ``h`` must be h_micro / n for an integer n >= 1; other
        spacings raise ``ConfigurationError``.

        This is the one fine-scale sampler, shared by the indicator sweep,
        the reference, the full dual and b_delta; it samples once per
        spacing.  On the micro grid the Gauss-point values of b_eps behind
        E_eps are also reduced to b_delta (:meth:`average_advection`) and not
        kept; other spacings build the micro data first for F.  The arrays
        are shared by every caller and read-only."""
        if h not in self._fine:
            _exact_ratio(self.hierarchy.h_micro, h, "[mesh] h / fine")
            grid = self.hierarchy.fine_grid(h)
            a_eps = self.coefficient.tensors_at(grid.cell_centers)
            a_eps.flags.writeable = False
            e_eps = fluct = None
            if self.is_advective:
                b_eps = gauss_values(grid, self.advection)
                skew = getattr(self.advection, "prefers_skew", True)
                e_eps = advection_elements(grid, b_eps, skew)
                e_eps.flags.writeable = False
                if h == self.hierarchy.h_micro:
                    self._b_delta = self._sampling_cell_means(grid, b_eps)
                b_delta = CellAveragedAdvection(self.hierarchy, self.average_advection())
                fluct = e_eps - advection_element_matrices(grid, b_delta)
                fluct.flags.writeable = False
            self._fine[h] = (grid, a_eps, e_eps, fluct)
        return self._fine[h]

    def _sampling_cell_means(self, grid, b_eps):
        """Per-sampling-cell arithmetic mean of the Gauss-point values
        ``b_eps`` on the micro ``grid``: (n, 2)."""
        hierarchy = self.hierarchy
        per_cell = 0.25 * (b_eps[:, 0] + b_eps[:, 1] + b_eps[:, 2] + b_eps[:, 3])
        parents = hierarchy.sampling_grid.locate(grid.cell_centers, clip=True)
        sums = np.zeros((hierarchy.n_sampling, 2))
        np.add.at(sums, parents, per_cell)
        counts = np.bincount(parents, minlength=hierarchy.n_sampling).astype(float)
        means = sums / counts[:, None]
        means.flags.writeable = False
        return means

    def average_advection(self):
        """b_delta, the effective transport: the mean of b_eps over every
        sampling cell with the 2x2 Gauss rule on each micro cell, (n, 2),
        read-only; None without transport.  It is fixed problem data; only
        the effective tensors are tuned."""
        if not self.is_advective:
            return None
        if self._b_delta is None:
            self.fine_data(self.hierarchy.h_micro)
        return self._b_delta


def effective_operator(problem, model, space):
    """Operator of the effective problem: diffusion with the per-cell model
    tensor plus, for advective problems, advection with b_delta."""
    op = assemble_diffusion(space, model)
    if problem.is_advective:
        b = CellAveragedAdvection(problem.hierarchy, problem.average_advection())
        adv = assemble_advection(space, b)
        return SparseOperator(op.matrix + adv.matrix, space)
    return op


def fine_operator(problem, space):
    """Operator of the fine-scale problem on a global fine space, assembled
    from ``problem.fine_data`` of its spacing: the element data that the
    indicator sweep slices."""
    grid, a_eps, e_eps, _ = problem.fine_data(space.grid.spacing[0])
    op = element_operator(space, diffusion_element_matrices(grid, a_eps))
    if e_eps is not None:
        adv = element_operator(space, e_eps)
        return SparseOperator(op.matrix + adv.matrix, space)
    return op


def problem_rhs(problem, space):
    return assemble_rhs(space, problem.source, problem.neumann)
