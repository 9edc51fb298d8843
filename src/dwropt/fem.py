"""Bilinear (Q1) finite elements on structured rectangular grids.

Element integrals of basis-function products are exact (the 2x2 Gauss rule is
exact for every polynomial appearing here).  Variable diffusion tensors are
sampled once per cell (midpoint); advection fields are sampled at the 2x2
Gauss points.  Every bilinear form in the package is evaluated through the
element machinery in this module, which is what makes the discrete error
identity hold to solver precision.

The fine-scale advection form is assembled in cellwise skew-symmetrized
fashion, 0.5 * [(b . grad u, v) - (b . grad v, u)].  For divergence-free
fields that vanish on the boundary the two variants coincide; the skew form
realizes the adjoint structure of the transport operator exactly at the
discrete level.  The effective transport b_delta, one vector per sampling
cell, is not divergence-free across cell interfaces and takes the plain
Galerkin form (the skew form would inject artificial interface terms of the
size of the normal jumps).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, OutOfDomainError, SingularOperatorError
from .mesh import SIDES, Grid, _exact_ratio, bilinear, bilinear_weights, inside

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
        i = {"left": 0, "bottom": 1, "right": 2, "top": 3}[grid_side]
        gap = abs(self.grid.bbox[i] - self.domain.bbox[i])
        return grid_side if gap <= 1e-9 * max(self.domain.extent) else None

    def _side_nodes(self, side):
        """The node ids along a side of the grid, in coordinate order, and
        the axis the side runs along."""
        nx, ny = self.grid.nx, self.grid.ny
        if side in ("left", "right"):
            return np.arange(ny + 1) * (nx + 1) + (0 if side == "left" else nx), 1
        return (0 if side == "bottom" else ny) * (nx + 1) + np.arange(nx + 1), 0

    def _classify(self):
        g = self.grid
        constrained = np.zeros(g.n_nodes, dtype=bool)
        for side in SIDES:
            idx, axis = self._side_nodes(side)
            dom_side = self._domain_side_of(side)
            if dom_side is None:
                constrained[idx] = True  # interior patch cut
                continue
            coords = g.origin[axis] + g.spacing[axis] * np.arange(idx.size)
            constrained[idx] |= self.domain.meets(dom_side, coords, self.dirichlet_markers)
        self.dirichlet_nodes = np.nonzero(constrained)[0]
        self.free_nodes = np.nonzero(~constrained)[0]

    def marked_boundary_edges(self, marker):
        """Boundary edges carrying ``marker``: (m, 2) node pairs and lengths.

        Edges are classified by their midpoint coordinate along the side.  A
        marker that exists on the domain but does not touch this space's grid
        (a patch restriction) yields an empty match.
        """
        self.domain.check_marker(marker)
        g = self.grid
        pairs, lengths = [np.zeros((0, 2), dtype=int)], [np.zeros(0)]
        for side in SIDES:
            dom_side = self._domain_side_of(side)
            if dom_side is None:
                continue
            ids, axis = self._side_nodes(side)
            h = g.spacing[axis]
            mids = g.origin[axis] + (np.arange(ids.size - 1) + 0.5) * h
            e = np.nonzero(self.domain.markers_at(dom_side, mids) == marker)[0]
            pairs.append(np.column_stack([ids[e], ids[e + 1]]))
            lengths.append(np.full(e.size, h))
        return np.concatenate(pairs), np.concatenate(lengths)


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


# The free nodes of every operator are eliminated in a geometric nested-
# dissection order of its grid's node lattice (A. George, "Nested dissection
# of a regular finite element mesh", SIAM J. Numer. Anal. 10, 1973): a line
# of nodes splits a block in two, the halves are ordered first, the line
# last.  ``ND_LEAF`` is the largest block side that is not split further.
# SuperLU's panel size of 2 factors the patch blocks of the shipped configs
# 10-20% faster than its default; its ``relax`` option showed no consistent
# gain and keeps SuperLU's default (scripts/factor_sweep.py measures all
# three).
ND_LEAF = 2
SUPERLU_PANEL_SIZE = 2

# Most refinement steps of a solve with a single-precision factor, as in
# LAPACK's dsgesv (:meth:`SparseOperator.factor_alone`).
REFINE_STEPS = 30


def _expand(count):
    """(k, t) for every t < count[k], by k, then t."""
    k = np.repeat(np.arange(count.size), count)
    return k, np.arange(k.size) - (np.cumsum(count) - count)[k]


def nested_dissection(n_x, n_y, leaf=ND_LEAF):
    """Every node of an ``n_x`` by ``n_y`` node lattice (node ``(i, j)`` has
    id ``j * n_x + i``) once, in nested-dissection order: a block with a
    side longer than ``leaf`` is split by its middle line across the longer
    side, both halves come first, the line last; smaller blocks are taken
    row by row.  Operators read it from their :func:`lattice_plan`, which
    builds it once per lattice shape.  A block's nodes fill a known range of
    the order, so each level's blocks are placed at once, with no call per
    block."""
    order = np.empty(n_x * n_y, dtype=np.int32)
    # one level's blocks [i0, i1) x [j0, j1) and the order position of each one's first node
    i0, i1, j0, j1, start = (np.array([v]) for v in (0, n_x, 0, n_y, 0))
    while i0.size:
        w, h = i1 - i0, j1 - j0
        small = (w <= leaf) & (h <= leaf)
        k, t = _expand(np.where(small, w * h, 0))  # small blocks, row by row
        order[start[k] + t] = (j0[k] + t // w[k]) * n_x + i0[k] + t % w[k]
        wide = w >= h  # split by column m, else by row m
        m = np.where(wide, (i0 + i1) // 2, (j0 + j1) // 2)
        line = np.where(wide, h, w)
        k, t = _expand(np.where(small, 0, line))  # the lines, after both halves
        order[start[k] + (w * h - line)[k] + t] = np.where(
            wide[k], (j0[k] + t) * n_x + m[k], m[k] * n_x + i0[k] + t
        )
        halves = (
            (i0, np.where(wide, m, i1), j0, np.where(wide, j1, m), start),
            (np.where(wide, m + 1, i0), i1, np.where(wide, j0, m + 1), j1,
             start + np.where(wide, (m - i0) * h, (m - j0) * w)),
        )
        split = ~small
        i0, i1, j0, j1, start = (np.concatenate([a[split], b[split]]) for a, b in zip(*halves))
        nodes = (i1 > i0) & (j1 > j0)
        i0, i1, j0, j1, start = (a[nodes] for a in (i0, i1, j0, j1, start))
    return order


LatticePlan = namedtuple("LatticePlan", "indptr indices scatter order")


@lru_cache(maxsize=10)
def lattice_plan(shape):
    """What every Q1 operator on a grid of ``shape`` cells shares, patch,
    macro or fine: the CSR pattern (``indptr``, ``indices``: each node
    couples with its 3 x 3 lattice neighbours), ``scatter``, the CSR slot of
    every entry of a raveled (ncells, 4, 4) element array, and ``order``,
    the :func:`nested_dissection` order of the node lattice; int32 and
    read-only.  The scatter is built without sorting: an element entry takes
    the slot of its column node among the valid neighbour slots of its row
    node, numbered in column order.  ``np.bincount`` then adds the entries
    of a slot in cell order, as a COO to CSR conversion sums duplicates, so
    :func:`element_operator` builds that conversion's matrix bit for bit.

    The one cache of what operators share: a run meets at most 10 shapes,
    the 9 patch shapes (a sampling cell's periodic cell problem has the
    depth-0 one) and the macro grid, and a plan takes about 108 bytes per
    cell (64 for the scatter, 44 per node for the pattern and the order;
    1.0 MB for a 96 x 96-cell patch).  The global fine grid never enters
    it: :func:`fine_operator` builds its plan uncached
    (``lattice_plan.__wrapped__``)."""
    n_x, n_y = shape[0] + 1, shape[1] + 1
    ids = np.pad(np.arange(n_x * n_y, dtype=np.int32).reshape(n_y, n_x), 1, constant_values=-1)
    window = np.lib.stride_tricks.sliding_window_view(ids, (3, 3))  # -1 outside the lattice
    valid = window >= 0
    slot = np.cumsum(valid.reshape(-1, 9), axis=1, dtype=np.int32)
    indptr = np.concatenate([np.int32([0]), np.cumsum(slot[:, -1], dtype=np.int32)])
    slot += indptr[:-1, None] - 1  # the CSR position of each valid neighbour
    a, b = np.arange(4) % 2, np.arange(4) // 2  # cell corner p = a + 2b
    offset = (b - b[:, None] + 1) * 3 + a - a[:, None] + 1  # corner q among p's neighbours
    corners = Grid((0.0, 0.0), (1.0, 1.0), shape).cell_nodes[:, :, None]
    indices, scatter = window[valid], slot[corners, offset].ravel()
    plan = LatticePlan(indptr, indices, scatter, nested_dissection(n_x, n_y))
    for array in plan:
        array.flags.writeable = False
    return plan


# Lattices of at most this many nodes (the patch and macro grids of the
# small shipped configs) keep an interior block pattern: about 76 bytes per
# interior node, 0.68 MB for a 96 x 96-cell patch, at most 9 x 16,384 x 76 B
# = 11 MB.  A global fine grid is factored once per run while its LU sets the
# run's peak memory, and gains nothing from it.
BLOCK_CACHE_NODES = 16_384


@lru_cache(maxsize=9)
def interior_block(shape):
    """The block of a lattice operator on a grid of ``shape`` cells between
    its interior nodes (all but the lattice's boundary), in the
    :func:`nested_dissection` order of its :func:`lattice_plan`: a CSC
    matrix whose entries are the CSR slots of the operator's entries, int32,
    read-only.  It is the slice ``[order][:, order].tocsc()`` of the plan's
    pattern holding each slot's number (1-based while sliced, so that no
    entry is a zero), and so has the pattern of that slice of any operator."""
    plan = lattice_plan(shape)
    n_x, n_y = shape[0] + 1, shape[1] + 1
    interior = np.zeros((n_y, n_x), dtype=bool)
    interior[1:-1, 1:-1] = True
    order = plan.order[interior.ravel()[plan.order]]
    slots = np.arange(1, plan.indices.size + 1, dtype=np.int32)
    block = sp.csr_matrix((slots, plan.indices, plan.indptr), shape=(n_x * n_y,) * 2)
    block = block[order][:, order].tocsc()
    block.data -= 1
    for array in (block.indptr, block.indices, block.data):
        array.flags.writeable = False
    return block


class SparseOperator:
    """Square sparse operator with a cached LU factorization of its
    Dirichlet-constrained block, computed on first use and reused by every
    primal, dual (transposed) and response solve.

    The block is extracted with its free nodes in the order of the
    :func:`lattice_plan` of its grid's shape and factored in that order
    (``permc_spec="NATURAL"``).  The order depends only on the lattice shape
    and the constrained nodes, so every operator of one pattern, patch,
    macro or fine, is factored alike on every call.  ``free`` holds the free
    nodes in the order of the factored block.  An operator whose lattice
    boundary is all constrained gathers the block through the
    :func:`interior_block` of its shape (:meth:`free_block`).  ``order``
    defaults to the one of the shared :func:`lattice_plan`.
    """

    def __init__(self, matrix, space, order=None):
        self.matrix = sp.csr_matrix(matrix)
        self.space = space
        order = lattice_plan(space.grid.shape).order if order is None else order
        is_free = np.zeros(space.n_dofs, dtype=bool)
        is_free[space.free_nodes] = True
        self.free = order[is_free[order]]
        self.factorization_count = 0
        self.refinement_steps = []  # per refined solve (factor_alone)
        self._lu = None
        self._block = None

    def free_block(self):
        """``matrix[free][:, free]`` in CSC form.  When every boundary node
        of the lattice is constrained (a patch away from Neumann sides) and
        the matrix has the lattice pattern, this is one gather through the
        :func:`interior_block` of the grid's shape, bit for bit."""
        grid, m = self.space.grid, self.matrix
        plan = lattice_plan(grid.shape)
        if (
            self.space.dirichlet_nodes.size == 2 * (grid.nx + grid.ny)
            and self.space.n_dofs <= BLOCK_CACHE_NODES
            and np.array_equal(m.indptr, plan.indptr)
            and np.array_equal(m.indices, plan.indices)
        ):
            block = interior_block(grid.shape)
            a_ff = sp.csc_matrix(
                (m.data.take(block.data), block.indices, block.indptr), block.shape
            )
            a_ff.has_canonical_format = True  # the pattern of a tocsc: sorted rows, no duplicates
            return a_ff
        return m[self.free][:, self.free].tocsc()

    def _factorize(self, a_ff=None):
        if self._lu is None:
            a_ff = self.free_block() if a_ff is None else a_ff
            try:
                self._lu = splu(a_ff, permc_spec="NATURAL", panel_size=SUPERLU_PANEL_SIZE)
            except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
                raise SingularOperatorError(
                    f"factorization of the {a_ff.shape[0]}-dof constrained system failed: {exc}"
                ) from exc
            self.factorization_count += 1
        return self._lu

    def factor_alone(self):
        """Factor the sliced free block in single precision, with nothing
        else of the operator alive: the matrix is dropped first, and the
        operator only solves afterwards (the fine operator, whose LU sets a
        run's peak memory).

        The float64 block is kept for the residuals of the solves, which
        refine to double precision (:meth:`solve_constrained`); its norms are
        taken before SuperLU runs, and the float32 copy of its values shares
        its ``indices`` and ``indptr`` and is dropped with the factor built.
        A block with a nonzero outside the normal float32 range is factored
        in double precision at once."""
        a_ff, self.matrix = self.matrix[self.free][:, self.free].tocsc(), None
        single = np.finfo(np.float32)
        magnitude = np.abs(a_ff.data)
        if np.any((magnitude > single.max) | ((magnitude < single.tiny) & (magnitude > 0.0))):
            self._factorize(a_ff)
            return
        # |block| and the float32 copy share the block's pattern: a freed
        # transient of the pattern's size would stay resident beside the LU
        pattern = (a_ff.indices, a_ff.indptr)
        abs_a, ones = sp.csc_matrix((magnitude, *pattern), shape=a_ff.shape), np.ones(a_ff.shape[0])
        self._norms = {"N": (abs_a @ ones).max(), "T": (abs_a.T @ ones).max()}  # inf- and 1-norm
        del magnitude, abs_a
        self._block = a_ff
        a_32 = sp.csc_matrix((a_ff.data.astype(np.float32), *pattern), shape=a_ff.shape)
        a_32.has_canonical_format = True  # the block's own pattern
        self._factorize(a_32)

    def _refined(self, b, trans):
        """The solution of the block (``trans`` "N") or its transpose ("T")
        for ``b``: a solve with the single-precision LU, refined by
        float64 residuals (Moler, J. ACM 14, 1967; LAPACK ``dsgesv``) until
        the correction is below double precision or fails to halve, at most
        ``REFINE_STEPS`` times; None unless the result passes ``dsgesv``'s
        normwise backward-error test.  Each right-hand side is scaled to a
        largest entry of 1 before it is rounded to float32."""
        lu, a = self._lu, (self._block if trans == "N" else self._block.T)
        eps = np.finfo(float).eps

        def single_solve(v):
            scale = np.abs(v).max()
            if scale == 0.0:
                return np.zeros_like(v)
            return scale * lu.solve((v / scale).astype(np.float32), trans=trans).astype(float)

        x = single_solve(b)
        last, steps = np.inf, 0
        while steps < REFINE_STEPS:
            d = single_solve(b - a @ x)
            x += d
            steps += 1
            size = np.abs(d).max()
            if size <= eps * np.abs(x).max() or not size <= 0.5 * last:
                break
            last = size
        self.refinement_steps.append(steps)
        bound = np.sqrt(b.size) * eps * self._norms[trans] * np.abs(x).max()
        return x if np.abs(b - a @ x).max() <= bound else None

    def solve_constrained(self, rhs, transpose=False):
        """Solution with homogeneous Dirichlet data: zero on the constrained
        nodes, the factored block solved (or its transpose) on the free ones.
        After :meth:`factor_alone` the single-precision solve is refined; a
        solve that fails to refine releases the single-precision LU, and the
        float64 block is factored once and solves this and every later
        right-hand side."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.space.n_dofs,):
            raise ConfigurationError(
                f"rhs length {rhs.shape} does not match dof count {self.space.n_dofs}"
            )
        trans, b = "T" if transpose else "N", rhs[self.free]
        y = None if self._block is None else self._refined(b, trans)
        if y is None:
            if self._block is not None:  # the refinement failed
                block, self._block, self._lu = self._block, None, None
                self._factorize(block)
            y = self._factorize().solve(b, trans=trans)
        x = np.zeros(self.space.n_dofs)
        x[self.free] = y
        return x


# ---------------------------------------------------------------------------
# assembly


def element_operator(space, elem, plan=None):
    """Operator scattered from (ncells, 4, 4) element matrices on the grid of
    ``space`` through ``plan``, by default the shared :func:`lattice_plan` of
    its shape; ``elem[c, p, q]`` couples test node p with trial node q.
    Every Q1 operator is assembled here."""
    plan = lattice_plan(space.grid.shape) if plan is None else plan
    data = np.bincount(plan.scatter, weights=elem.ravel(), minlength=plan.indices.size)
    matrix = sp.csr_matrix((data, plan.indices, plan.indptr), shape=(space.n_dofs,) * 2)
    return SparseOperator(matrix, space, plan.order)


# OpenBLAS hands a large enough product to a worker thread, which then spins
# beside the calling thread for about 0.1 s of CPU, CPU that the SuperLU work
# after it needs on a 2-vCPU machine.  Products of at most ``SERIAL_PRODUCT``
# multiply-adds with a contiguous right factor stayed on the calling thread
# (OpenBLAS 0.3.31, Haswell kernels): (9,216 x 4)(4 x 16) and
# (64 x 33)(33 x 257) did; (16,384 x 4)(4 x 16), (8,192 x 8)(8 x 16) and a
# 16,384-long dot woke a worker for 0.12-0.15 s of CPU.
SERIAL_PRODUCT = 2**19


def serial_product(a, b):
    """``a @ b`` with BLAS on the calling thread, for the products over
    fine-lattice rows: a dot of two vectors through ``np.einsum``, which
    calls no BLAS; else the rows of ``a`` (m, k) times a contiguous copy of
    ``b`` (k, n) in blocks of at most ``SERIAL_PRODUCT`` multiply-adds, one
    block (one BLAS call) for a patch or the macro grid."""
    if a.ndim == 1 and b.ndim == 1:
        return np.einsum("i,i->", a, b)
    b = np.ascontiguousarray(b)  # a transposed b woke a worker at smaller sizes
    rows = max(SERIAL_PRODUCT // b.size, 1)
    if len(a) <= rows:
        return a @ b
    out = np.empty((len(a), b.shape[1]), dtype=np.result_type(a, b))
    for start in range(0, len(a), rows):
        np.matmul(a[start : start + rows], b, out=out[start : start + rows])
    return out


def diffusion_element_matrices(grid, tensors):
    """(ncells, 4, 4) element stiffness for cellwise-sampled tensors."""
    k, _ = q1_blocks(*grid.spacing)
    return serial_product(tensors.reshape(-1, 4), k.reshape(4, 16)).reshape(-1, 4, 4)


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
    """Values of ``b`` at the 2x2 Gauss points of every cell, (ncells, 4,
    2), from one ``b.values_on_lattice(xs, ys)``: the Gauss points of a
    uniform grid form the tensor lattice of the per-axis Gauss coordinates
    (the coordinates of :func:`gauss_point_coords`)."""
    xs, ys = (
        (grid.origin[axis] + grid.spacing[axis] * (np.arange(n) + 0.5))[:, None]
        + (np.array(_GP) * grid.spacing[axis] - 0.5 * grid.spacing[axis])
        for axis, n in enumerate(grid.shape)
    )
    values = b.values_on_lattice(xs.ravel(), ys.ravel())  # [cell row, v, cell column, u, :]
    values = values.reshape(grid.ny, 2, grid.nx, 2, 2).transpose(0, 2, 1, 3, 4)
    return values.reshape(grid.n_cells, 4, 2)


def _transport_table(hx, hy):
    """(4, 2, 4, 4): ``t[g, d, l, m]`` = w_g phi_l d_d(phi_m) at the 2x2
    Gauss points g of an hx x hy rectangle, so that int phi_l b . grad phi_m
    is sum over g and d of b[g, d] t[g, d, l, m]."""
    _, w, phi, dphi = _GAUSS
    return np.einsum("g,gl,gmd->gdlm", w * hx * hy, phi, dphi / np.array([hx, hy]))


def advection_elements(grid, b_values, skew=True):
    """(ncells, 4, 4) element matrices of (b . grad u, v), one product of b
    with the :func:`_transport_table`: from the Gauss-point values of b,
    (ncells, 4, 2) (see :func:`gauss_values`), or from one b per cell,
    (ncells, 2), with the table summed over the Gauss points; skew-
    symmetrized, or the plain Galerkin form with ``skew=False``."""
    table = _transport_table(*grid.spacing)
    table = table if b_values.ndim == 3 else table.sum(axis=0)
    raw = serial_product(b_values.reshape(len(b_values), -1), table.reshape(-1, 16))
    raw = raw.reshape(-1, 4, 4)
    if skew:
        return 0.5 * (raw - raw.transpose(0, 2, 1))
    return raw


def assemble_advection(space, b_values, skew=True):
    """Advection operator on the grid of ``space`` from the Gauss-point
    values of b or from one b per cell (see :func:`advection_elements`)."""
    return element_operator(space, advection_elements(space.grid, b_values, skew))


def assemble_rhs(space, f, neumann=()):
    """Load vector of (f, v) plus boundary flux terms int_G flux * v."""
    grid = space.grid
    rhs = np.zeros(space.n_dofs)
    if callable(f):
        coords, w, phi, _ = _gauss_points_physical(grid)
        fv = np.asarray(f(coords.reshape(-1, 2)), dtype=float).reshape(grid.n_cells, len(w))
        elem = np.einsum("q,cq,qp->cp", w, fv, phi)
        rhs = np.bincount(grid.cell_nodes.ravel(), weights=elem.ravel(), minlength=space.n_dofs)
    elif f != 0.0:
        quarter = f * grid.spacing[0] * grid.spacing[1] * 0.25
        weights = np.full(4 * grid.n_cells, quarter)
        rhs = np.bincount(grid.cell_nodes.ravel(), weights=weights, minlength=space.n_dofs)
    for marker, flux in neumann:
        rhs = rhs + _edge_sum(space, marker, 0.5 * flux)
    return rhs


def _edge_sum(space, marker, scale):
    """``scale`` times the length of every ``marker`` edge, summed into both
    of its nodes."""
    pairs, lengths = space.marked_boundary_edges(marker)
    return np.bincount(pairs.T.ravel(), weights=np.tile(scale * lengths, 2), minlength=space.n_dofs)


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
        if not inside(p, grid.bbox, 1e-12 * max(space.domain.extent))[0]:
            return vec  # patch restriction: the point lies outside this grid
        cell = grid.locate(p, clip=True)[0]
        x0, y0 = grid.cell_bbox(cell)[:2]
        u = (p[0, 0] - x0) / grid.spacing[0]
        v = (p[0, 1] - y0) / grid.spacing[1]
        phi, _ = _shape_values(u, v)
        vec[grid.cell_nodes[cell]] = phi
        return vec
    if j.kind == "boundary_integral":
        return _edge_sum(space, j.marker, 0.5)
    raise ConfigurationError(f"unknown functional kind '{j.kind}'")


def apply_functional(j, u):
    """<j, u> evaluated with the same weights as the dual right-hand side."""
    return float(serial_product(functional_vector(u.space, j), u.values))


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
    the closure of its grid); the nodes of a nested lattice take
    :func:`lattice_values`."""
    grid = field.space.grid
    nodes = field.values.reshape(grid.ny + 1, grid.nx + 1)
    return bilinear(nodes, grid.origin, grid.spacing, points)


@lru_cache(maxsize=16)
def lattice_matrix(n, ratio):
    """The 1-d bilinear weights of ``n`` lattice nodes, ``ratio`` per cell
    of a coarse lattice whose nodes include their first and last: an
    (n, (n - 1) // ratio + 1) table, row i holding the weights of node i on
    the coarse nodes: the :func:`~dwropt.mesh.bilinear_weights` that
    :func:`evaluate` reads.  Read-only, 8 bytes per entry (10 kB for a
    97-node patch side over 13 macro nodes); a run keys a few (node count,
    ratio) pairs, the sides of its patches, sampling cells and fine grid,
    and the cache keeps 16."""
    m = (n - 1) // ratio
    i = np.arange(n)
    cell, right, w_cell, w_right = bilinear_weights(i, 0.0, ratio, m)
    table = np.zeros((n, m + 1))
    table[i, cell] = w_cell
    table[i, right] = w_right
    table.flags.writeable = False
    return table


def lattice_values(field, grid):
    """The values of ``field`` at the nodes of ``grid``, a lattice window of
    a uniform refinement of the field's grid whose corners are nodes of it (a
    patch, a sampling cell, the global fine grid): the
    :func:`evaluate` of those nodes up to rounding, separable as one
    :func:`lattice_matrix` per axis: (ny + 1, nx + 1) values."""
    src = field.space.grid
    window = src.subgrid(grid.bbox)
    tables = []
    for axis in (0, 1):
        ratio = _exact_ratio(src.spacing[axis], grid.spacing[axis], "nested lattice")
        if grid.shape[axis] != window.shape[axis] * ratio:
            raise ConfigurationError(f"grid {grid.bbox} is not a lattice window of {src.bbox}")
        tables.append(lattice_matrix(grid.shape[axis] + 1, ratio))
    values = src.restrict(field.values, grid.bbox, nodal=True)
    rows = serial_product(tables[1], values.reshape(window.ny + 1, window.nx + 1))
    return serial_product(rows, tables[0].T)


def gather(grid, values):
    """Per-cell 4-node coefficient gather: (ncells, 4)."""
    return values[grid.cell_nodes]


def diffusion_form_stack(grid, u4, z4):
    """s[c, a, b] = int_cell d_a(z) d_b(u); contract with a tensor to get the
    cellwise diffusion form (c grad u, grad z)."""
    k, _ = q1_blocks(*grid.spacing)
    ku = (u4 @ k.transpose(3, 0, 1, 2).reshape(4, 16)).reshape(-1, 2, 2, 4)  # [c, a, b, p]
    return np.einsum("cp,cabp->cab", z4, ku)


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
    Dirichlet conditions: at least one.  Every marker, that of a boundary
    functional included, is a marker of the domain, and the point of a
    point functional lies in the domain.

    The problem is the one place that keeps the problem data every cycle
    reads: the macro space, and on the one fine lattice, the global micro
    grid ``hierarchy.fine_grid``, the fine space, the fine data, the fine
    solution and b_delta; what depends on a grid's shape alone is the
    :func:`lattice_plan` of a patch or macro operator.  Patch spaces and
    operators are built on demand, and the fine operator lives only until
    its factor is built (:meth:`fine_solution`).
    """

    hierarchy: object
    coefficient: object
    functional: Functional
    advection: object = None
    source: object = 0.0
    neumann: tuple = ()
    dirichlet: tuple = SIDES
    _macro_space: object = dc_field(default=None, repr=False)
    _fine_space: object = dc_field(default=None, repr=False)
    _fine: tuple = dc_field(default=None, repr=False)
    _fine_solution: tuple = dc_field(default=None, repr=False)
    _b_delta: object = dc_field(default=None, repr=False)

    def __post_init__(self):
        domain, j = self.hierarchy.domain, self.functional
        if not self.dirichlet:
            raise ConfigurationError("the problem needs at least one Dirichlet marker")
        for marker in (*self.dirichlet, *(marker for marker, _ in self.neumann)):
            domain.check_marker(marker)
        if j.kind == "boundary_integral":
            domain.check_marker(j.marker)
        if j.kind == "point_value" and not domain.contains(j.point)[0]:
            raise OutOfDomainError(f"functional point {j.point} lies outside the domain")

    @property
    def is_advective(self):
        return self.advection is not None

    def space(self, grid):
        return FeSpace(grid, self.hierarchy.domain, self.dirichlet)

    def macro_space(self):
        if self._macro_space is None:
            self._macro_space = self.space(self.hierarchy.macro_grid)
        return self._macro_space

    def fine_space(self):
        """The space on ``hierarchy.fine_grid``, the grid of :meth:`fine_data`."""
        if self._fine_space is None:
            self._fine_space = self.space(self.hierarchy.fine_grid)
        return self._fine_space

    def fine_data(self):
        """(grid, a_eps, F) on ``hierarchy.fine_grid``: the fine tensor per
        cell and, for advective problems, the transport fluctuation F = E_eps
        - E_delta, with E_eps the skew element matrices of b_eps and E_delta
        the plain element matrices of b_delta (None without transport).

        This is the one fine-scale sampler, shared by the indicator sweep,
        the fine solution, the initial models of :mod:`dwropt.upscale` and
        b_delta; it samples once.  F is all the sweep reads, and
        :func:`fine_operator` adds E_delta back.  The Gauss-point values of
        b_eps are reduced to b_delta (:meth:`average_advection`) and not
        kept.  The arrays are shared and read-only."""
        if self._fine is None:
            grid = self.hierarchy.fine_grid
            a_eps = self.coefficient.tensors_at(grid.cell_centers)
            a_eps.flags.writeable = False
            fluct = None
            if self.is_advective:
                b_eps = gauss_values(grid, self.advection)
                fluct = advection_elements(grid, b_eps)
                per_cell = 0.25 * (b_eps[:, 0] + b_eps[:, 1] + b_eps[:, 2] + b_eps[:, 3])
                self._b_delta = self.hierarchy.sampling_mean(per_cell)
                self._b_delta.flags.writeable = False
                fluct -= advection_elements(grid, self.delta_values(grid), skew=False)
                fluct.flags.writeable = False
            self._fine = (grid, a_eps, fluct)
        return self._fine

    def average_advection(self):
        """b_delta, the effective transport: the mean of b_eps over every
        sampling cell with the 2x2 Gauss rule on each micro cell, (n, 2),
        read-only; None without transport.  It is fixed problem data; only
        the effective tensors are tuned."""
        if not self.is_advective:
            return None
        if self._b_delta is None:
            self.fine_data()
        return self._b_delta

    def delta_values(self, grid):
        """b_delta on every cell of ``grid``, a grid nested in the sampling
        grid: (ncells, 2), one vector per cell, as :func:`advection_elements`
        takes it."""
        return self.average_advection()[self.hierarchy.parents(grid)]

    def fine_solution(self, dual=True):
        """(u, z) on :meth:`fine_space`: the fine-scale solution (the
        reference) and the full dual, or (u, None) with ``dual`` False, which
        leaves out the transposed solve for a run that reads u alone.  Neither
        depends on the model: one single-precision factorization of
        :func:`fine_operator` solves both once, each solve refined to double
        precision with float64 residuals of the free block; only u, z are
        kept, and a later call that asks for a z left out factors again.  The
        free block is all of the operator alive while SuperLU runs
        (:meth:`SparseOperator.factor_alone`); the loads come after."""
        if self._fine_solution is None or (dual and self._fine_solution[1] is None):
            op = fine_operator(self)
            op.factor_alone()
            u = solve(op, problem_rhs(self, op.space))
            self._fine_solution = (u, solve_dual(op, self.functional) if dual else None)
        return self._fine_solution


def effective_operator(problem, model, space):
    """Operator of the effective problem: diffusion with the per-cell model
    tensor plus, for advective problems, advection with b_delta."""
    op = assemble_diffusion(space, model)
    if problem.is_advective:
        adv = assemble_advection(space, problem.delta_values(space.grid), skew=False)
        return SparseOperator(op.matrix + adv.matrix, space)
    return op


def fine_operator(problem):
    """Operator of the fine-scale problem on ``problem.fine_space()``,
    assembled from ``problem.fine_data()``, the element data that the
    indicator sweep slices: one element array, diffusion plus, with
    transport, F + E_delta = E_eps, through a plan of its own, not cached.
    The array and the plan's scatter index are freed on return, its pattern
    with the matrix (:meth:`SparseOperator.factor_alone`)."""
    space = problem.fine_space()
    grid, a_eps, fluct = problem.fine_data()
    elem = diffusion_element_matrices(grid, a_eps)
    if fluct is not None:
        elem += fluct
        elem += advection_elements(grid, problem.delta_values(grid), skew=False)
    return element_operator(space, elem, lattice_plan.__wrapped__(grid.shape))


def problem_rhs(problem, space):
    return assemble_rhs(space, problem.source, problem.neumann)
