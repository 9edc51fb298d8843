"""Structured rectangular mesh hierarchy.

The toolkit works on an axis-aligned rectangular domain covered by nested
uniform quadrilateral grids: a coarse sampling grid whose cells each carry one
effective tensor, a macro grid used for the finite-element discretization, and
micro grids materialized on demand (per sampling cell or patch) at the finest
resolution.  Cell and node ids are row-major from the lower-left corner and
stable for the lifetime of the hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, OutOfDomainError

SIDES = ("left", "right", "bottom", "top")

_TOL = 1e-12


def _own_name_markers():
    return {side: ((side, None),) for side in SIDES}


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle with named boundary markers.

    ``boundary`` maps each side to a sequence of ``(marker, split)`` segments
    ordered along the side axis (x for bottom/top, y for left/right).  A
    segment covers coordinates below its split value; the last segment must
    have ``split=None`` and covers the remainder of the side.  By default each
    side carries its own name as marker.
    """

    origin: tuple = (0.0, 0.0)
    extent: tuple = (1.0, 1.0)
    boundary: dict = field(default_factory=_own_name_markers)

    def __post_init__(self):
        if self.extent[0] <= 0.0 or self.extent[1] <= 0.0:
            raise ConfigurationError(f"domain extent must be positive, got {self.extent}")
        for side in SIDES:
            segments = self.boundary.get(side)
            if not segments:
                raise ConfigurationError(f"side '{side}' carries no marker")
            if segments[-1][1] is not None:
                raise ConfigurationError(f"last segment of side '{side}' must be unbounded")
            lo, hi = self._side_range(side)
            prev = lo
            for marker, split in segments[:-1]:
                if split is None or not (prev < split < hi):
                    raise ConfigurationError(
                        f"split coordinates on side '{side}' must increase within ({lo}, {hi})"
                    )
                prev = split

    def _side_range(self, side):
        axis = 1 if side in ("left", "right") else 0
        return self.origin[axis], self.origin[axis] + self.extent[axis]

    @property
    def xmin(self):
        return self.origin[0]

    @property
    def ymin(self):
        return self.origin[1]

    @property
    def xmax(self):
        return self.origin[0] + self.extent[0]

    @property
    def ymax(self):
        return self.origin[1] + self.extent[1]

    def markers_at(self, side, coords):
        """Marker of each boundary point at position ``coords`` along
        ``side``; a point at a segment split belongs to the segment above."""
        segments = self.boundary[side]
        names = np.array([marker for marker, _ in segments], dtype=object)
        splits = np.array([split for _, split in segments[:-1]], dtype=float)
        return names[np.searchsorted(splits, coords, side="right")]

    def meets(self, side, coords, markers):
        """Whether each boundary point at position ``coords`` along ``side``
        meets one of ``markers``; a point at a segment split meets the
        markers of both segments.

        Used for node classification: a node on the interface between a
        Dirichlet and a Neumann segment is constrained, which keeps the
        constrained spaces nested across refinement levels.
        """
        tol = 1e-12 * max(self.extent)
        segments = self.boundary[side]
        coords = np.asarray(coords, dtype=float)
        out = np.isin(self.markers_at(side, coords), list(markers))
        for (below, split), (above, _) in zip(segments, segments[1:]):
            if below in markers or above in markers:
                out |= np.abs(coords - split) <= tol
        return out

    def markers(self):
        out = []
        for side in SIDES:
            for marker, _ in self.boundary[side]:
                if marker not in out:
                    out.append(marker)
        return tuple(out)

    def check_marker(self, marker):
        if marker not in self.markers():
            raise ConfigurationError(f"unknown boundary marker '{marker}'")

    def contains(self, points, tol=_TOL):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        sx = tol * max(self.extent)
        return (
            (p[:, 0] >= self.xmin - sx)
            & (p[:, 0] <= self.xmax + sx)
            & (p[:, 1] >= self.ymin - sx)
            & (p[:, 1] <= self.ymax + sx)
        )


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid of ``shape`` cells over a rectangle.

    Node ``(ix, iy)`` has id ``iy * (nx + 1) + ix``; cell ``(ix, iy)`` has id
    ``iy * nx + ix``.  The four nodes of a cell are ordered lower-left,
    lower-right, upper-left, upper-right.
    """

    origin: tuple
    spacing: tuple
    shape: tuple

    @property
    def nx(self):
        return self.shape[0]

    @property
    def ny(self):
        return self.shape[1]

    @property
    def n_cells(self):
        return self.nx * self.ny

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def bbox(self):
        x0, y0 = self.origin
        return (x0, y0, x0 + self.nx * self.spacing[0], y0 + self.ny * self.spacing[1])

    @cached_property
    def node_coords(self):
        xs = self.origin[0] + self.spacing[0] * np.arange(self.nx + 1)
        ys = self.origin[1] + self.spacing[1] * np.arange(self.ny + 1)
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    @cached_property
    def cell_centers(self):
        xs = self.origin[0] + self.spacing[0] * (np.arange(self.nx) + 0.5)
        ys = self.origin[1] + self.spacing[1] * (np.arange(self.ny) + 0.5)
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    @cached_property
    def cell_nodes(self):
        ix = np.tile(np.arange(self.nx), self.ny)
        iy = np.repeat(np.arange(self.ny), self.nx)
        n00 = iy * (self.nx + 1) + ix
        return np.column_stack([n00, n00 + 1, n00 + self.nx + 1, n00 + self.nx + 2])

    def cell_id(self, ix, iy):
        return iy * self.nx + ix

    def cell_ij(self, cell):
        return cell % self.nx, cell // self.nx

    def cell_bbox(self, cell):
        ix, iy = self.cell_ij(cell)
        x0 = self.origin[0] + ix * self.spacing[0]
        y0 = self.origin[1] + iy * self.spacing[1]
        return (x0, y0, x0 + self.spacing[0], y0 + self.spacing[1])

    def locate(self, points, clip=False):
        """Cell ids containing ``points``.

        Points on shared interior edges resolve to the lower-index cell
        (tie-break toward lower-left).  With ``clip`` the indices are clamped
        into range instead of raising for points outside the grid.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float))
        tx = (p[:, 0] - self.origin[0]) / self.spacing[0]
        ty = (p[:, 1] - self.origin[1]) / self.spacing[1]
        if not clip:
            eps = 1e-12 * max(self.nx, self.ny)
            bad = (tx < -eps) | (tx > self.nx + eps) | (ty < -eps) | (ty > self.ny + eps)
            if np.any(bad):
                k = int(np.argmax(bad))
                raise OutOfDomainError(f"point {tuple(p[k])} lies outside the grid {self.bbox}")
        ix = np.floor(tx).astype(int)
        iy = np.floor(ty).astype(int)
        # exact hits on interior grid lines belong to the lower cell
        ix[(ix > 0) & (tx == ix)] -= 1
        iy[(iy > 0) & (ty == iy)] -= 1
        ix = np.clip(ix, 0, self.nx - 1)
        iy = np.clip(iy, 0, self.ny - 1)
        return iy * self.nx + ix

    def _window(self, bbox):
        """Lattice index window (i0, j0, i1, j1) covering ``bbox``, which must
        align with the grid lattice."""
        x0, y0 = self.origin
        hx, hy = self.spacing
        return (
            int(round((bbox[0] - x0) / hx)),
            int(round((bbox[1] - y0) / hy)),
            int(round((bbox[2] - x0) / hx)),
            int(round((bbox[3] - y0) / hy)),
        )

    def subgrid(self, bbox):
        """Grid with this spacing tiling ``bbox``, a lattice window of this
        grid."""
        i0, j0, i1, j1 = self._window(bbox)
        return Grid((bbox[0], bbox[1]), self.spacing, (i1 - i0, j1 - j0))

    def subgrid_node_ids(self, bbox):
        """Node ids of the lattice window covering ``bbox``, in the row-major
        order of the sub-grid's own nodes."""
        i0, j0, i1, j1 = self._window(bbox)
        return (np.arange(j0, j1 + 1)[:, None] * (self.nx + 1) + np.arange(i0, i1 + 1)).ravel()

    def subgrid_cell_ids(self, bbox):
        """Cell ids of the lattice window covering ``bbox`` (row-major)."""
        i0, j0, i1, j1 = self._window(bbox)
        return (np.arange(j0, j1)[:, None] * self.nx + np.arange(i0, i1)).ravel()

    def restrict(self, values, bbox, nodal=False):
        """A new array of the rows of per-cell ``values`` (per-node with
        ``nodal``) on the lattice window covering ``bbox``:
        ``values[subgrid_cell_ids(bbox)]`` (``subgrid_node_ids``), sliced
        from the lattice without an index array."""
        i0, j0, i1, j1 = self._window(bbox)
        extra = int(nodal)
        lattice = values.reshape((self.ny + extra, self.nx + extra) + values.shape[1:])
        window = np.array(lattice[j0 : j1 + extra, i0 : i1 + extra])
        return window.reshape((-1,) + values.shape[1:])


@dataclass(frozen=True)
class Patch:
    """Patch of sampling cells around a center cell.

    Depth 0 is the cell itself; depth 1 adds every sampling cell whose closure
    intersects the center cell's closure (at most 9 cells, fewer at the
    boundary).  Members are row-major sorted by cell id.
    """

    center: int
    depth: int
    members: tuple
    bbox: tuple


def _exact_ratio(numerator, denominator, what):
    if not denominator > 0.0:
        raise ConfigurationError(f"{what}: spacing {denominator} must be positive")
    r = numerator / denominator
    ri = int(round(r))
    if ri < 1 or abs(r - ri) > 1e-9 * max(1.0, abs(r)):
        raise ConfigurationError(f"{what}: {denominator} does not divide {numerator} (ratio {r})")
    return ri


@dataclass(frozen=True)
class MeshHierarchy:
    """Nested sampling / macro / micro discretization of a rectangular domain.

    Immutable after construction; safe to share across workers.
    """

    domain: Domain
    delta: float
    h_macro: float
    h_micro: float
    sampling_grid: Grid
    macro_grid: Grid

    @property
    def n_sampling(self):
        return self.sampling_grid.n_cells

    @cached_property
    def macro_parent(self):
        """Sampling cell id containing each macro cell."""
        return self.parents(self.macro_grid)

    def parents(self, grid):
        """Sampling cell id containing each cell of ``grid``, a grid nested
        in the sampling grid (macro, micro, patch or fine)."""
        return self.sampling_grid.locate(grid.cell_centers, clip=True)

    def sampling_mean(self, values):
        """Mean over each sampling cell of ``values`` given per cell of the
        global micro grid (:attr:`fine_grid`), for any trailing shape:
        (n_micro, ...) -> (n_sampling, ...)."""
        parents = self.parents(self.fine_grid)
        width = values[0].size
        index = (parents[:, None] * width + np.arange(width)).ravel()
        sums = np.bincount(index, weights=values.ravel(), minlength=self.n_sampling * width)
        counts = np.bincount(parents, minlength=self.n_sampling).astype(float)
        return (sums.reshape(-1, width) / counts[:, None]).reshape((-1,) + values.shape[1:])

    def sampling_bbox(self, k):
        return self.sampling_grid.cell_bbox(k)

    def micro_grid(self, bbox):
        """Uniform micro grid of spacing ``h_micro`` tiling ``bbox``."""
        nx = _exact_ratio(bbox[2] - bbox[0], self.h_micro, "micro grid width")
        ny = _exact_ratio(bbox[3] - bbox[1], self.h_micro, "micro grid height")
        return Grid((bbox[0], bbox[1]), (self.h_micro, self.h_micro), (nx, ny))

    @cached_property
    def fine_grid(self):
        """The global micro grid: spacing ``h_micro`` over the whole domain,
        the one fine lattice of the reference, the full dual and the fine
        data that patches slice."""
        nx = _exact_ratio(self.domain.extent[0], self.h_micro, "fine grid width")
        ny = _exact_ratio(self.domain.extent[1], self.h_micro, "fine grid height")
        return Grid(self.domain.origin, (self.h_micro, self.h_micro), (nx, ny))

    def patch_of(self, k, depth):
        """Patch of sampling cells around cell ``k``."""
        if not 0 <= k < self.n_sampling:
            raise ConfigurationError(f"invalid sampling cell id {k}")
        if depth not in (0, 1):
            raise ConfigurationError(f"patch depth must be 0 or 1, got {depth}")
        g = self.sampling_grid
        ix, iy = g.cell_ij(k)
        i0, i1 = max(ix - depth, 0), min(ix + depth, g.nx - 1)
        j0, j1 = max(iy - depth, 0), min(iy + depth, g.ny - 1)
        members = tuple(
            g.cell_id(i, j) for j in range(j0, j1 + 1) for i in range(i0, i1 + 1)
        )
        x0, y0 = g.cell_bbox(g.cell_id(i0, j0))[:2]
        x1, y1 = g.cell_bbox(g.cell_id(i1, j1))[2:]
        return Patch(center=k, depth=depth, members=members, bbox=(x0, y0, x1, y1))


def build_hierarchy(domain, delta, h_macro, h_micro):
    """Build the nested hierarchy; the chain h | H | delta | extent must hold
    exactly (integer cell counts)."""
    n_dx = _exact_ratio(domain.extent[0], delta, "domain width / delta")
    n_dy = _exact_ratio(domain.extent[1], delta, "domain height / delta")
    _exact_ratio(delta, h_macro, "delta / H")
    _exact_ratio(h_macro, h_micro, "H / h")
    n_mx = _exact_ratio(domain.extent[0], h_macro, "domain width / H")
    n_my = _exact_ratio(domain.extent[1], h_macro, "domain height / H")
    sampling = Grid(domain.origin, (delta, delta), (n_dx, n_dy))
    macro = Grid(domain.origin, (h_macro, h_macro), (n_mx, n_my))
    return MeshHierarchy(
        domain=domain,
        delta=delta,
        h_macro=h_macro,
        h_micro=h_micro,
        sampling_grid=sampling,
        macro_grid=macro,
    )
