"""Initial effective models: arithmetic mean, geometric mean, and
periodic-cell-problem homogenization, one tensor per sampling cell."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalError
from .fem import diffusion_element_matrices, _gauss_points_physical


@dataclass
class EffectiveModel:
    """Per-sampling-cell effective data: a 2x2 tensor per cell.  The
    effective transport b_delta is fixed problem data
    (:meth:`dwropt.fem.Problem.average_advection`), not part of the model.

    Ellipticity of the tensors is deliberately not enforced; the optimizer may
    produce indefinite iterates, which are reported but legal.
    """

    hierarchy: object
    tensors: np.ndarray
    provenance: str = "unspecified"

    def __post_init__(self):
        t = np.asarray(self.tensors, dtype=float)
        if t.shape != (self.hierarchy.n_sampling, 2, 2):
            raise ValueError(f"expected {(self.hierarchy.n_sampling, 2, 2)} tensors, got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("effective tensors must be finite")
        self.tensors = t

    def tensors_at(self, points):
        cells = self.hierarchy.sampling_grid.locate(points, clip=True)
        return self.tensors[cells]

    def with_tensors(self, tensors, provenance):
        return EffectiveModel(hierarchy=self.hierarchy, tensors=tensors, provenance=provenance)

    def min_eigenvalues(self):
        """Smallest eigenvalue of the symmetrized tensor, per cell."""
        t = 0.5 * (self.tensors + self.tensors.transpose(0, 2, 1))
        tr = t[:, 0, 0] + t[:, 1, 1]
        det = t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] * t[:, 1, 0]
        disc = np.sqrt(np.maximum((0.5 * tr) ** 2 - det, 0.0))
        return 0.5 * tr - disc

    def to_csv(self, path):
        grid = self.hierarchy.sampling_grid
        with open(path, "w", newline="\n") as fh:
            fh.write("cell_i,cell_j,a11,a12,a21,a22\n")
            for k in range(self.hierarchy.n_sampling):
                i, j = grid.cell_ij(k)
                t = self.tensors[k]
                fh.write(
                    f"{i},{j},{t[0, 0]:.17g},{t[0, 1]:.17g},{t[1, 0]:.17g},{t[1, 1]:.17g}\n"
                )

    @classmethod
    def from_csv(cls, path, hierarchy, provenance="imported"):
        tensors = np.zeros((hierarchy.n_sampling, 2, 2))
        grid = hierarchy.sampling_grid
        with open(path, "r") as fh:
            header = fh.readline()
            if not header.startswith("cell_i"):
                raise ValueError(f"unexpected model CSV header: {header!r}")
            for line in fh:
                parts = line.strip().split(",")
                if not parts or parts == [""]:
                    continue
                i, j = int(parts[0]), int(parts[1])
                k = grid.cell_id(i, j)
                tensors[k] = np.array(
                    [[float(parts[2]), float(parts[3])], [float(parts[4]), float(parts[5])]]
                )
        return cls(hierarchy=hierarchy, tensors=tensors, provenance=provenance)


def constant_model(hierarchy, tensor, provenance="constant"):
    """Model with the same tensor on every sampling cell."""
    t = np.asarray(tensor, dtype=float)
    if t.ndim == 0:
        t = float(t) * np.eye(2)
    tensors = np.broadcast_to(t, (hierarchy.n_sampling, 2, 2)).copy()
    return EffectiveModel(hierarchy, tensors, provenance=provenance)


def _micro_samples(field, hierarchy):
    """Tensor samples at micro subcell midpoints, grouped by sampling cell:
    returns (tensors (ncells, 2, 2) mean-ready samples, parents, counts)."""
    micro = hierarchy.micro_grid(
        (
            hierarchy.domain.xmin,
            hierarchy.domain.ymin,
            hierarchy.domain.xmax,
            hierarchy.domain.ymax,
        )
    )
    centers = micro.cell_centers
    samples = field.tensors_at(centers)
    parents = hierarchy.sampling_grid.locate(centers, clip=True)
    counts = np.bincount(parents, minlength=hierarchy.n_sampling).astype(float)
    return samples, parents, counts, centers


def arithmetic_mean_model(field, hierarchy):
    """Entrywise arithmetic cell average of the fine-scale tensor."""
    samples, parents, counts, _ = _micro_samples(field, hierarchy)
    sums = np.zeros((hierarchy.n_sampling, 2, 2))
    np.add.at(sums, parents, samples)
    return EffectiveModel(hierarchy, sums / counts[:, None, None], provenance="arithmetic")


def geometric_mean_model(field, hierarchy):
    """Geometric mean on the diagonal entries, arithmetic on off-diagonals.

    The entrywise log is ill-defined for vanishing off-diagonal entries, so
    only the (strictly positive) diagonal is averaged geometrically.
    """
    samples, parents, counts, centers = _micro_samples(field, hierarchy)
    diag = samples[:, (0, 1), (0, 1)]
    bad = diag <= 0.0
    if np.any(bad):
        k = int(np.argmax(np.any(bad, axis=1)))
        raise NumericalError(
            f"geometric mean undefined: nonpositive diagonal sample at {tuple(centers[k])} "
            f"in sampling cell {int(parents[k])}"
        )
    sums = np.zeros((hierarchy.n_sampling, 2, 2))
    np.add.at(sums, parents, samples)
    mean = sums / counts[:, None, None]
    log_sums = np.zeros((hierarchy.n_sampling, 2))
    np.add.at(log_sums, parents, np.log(diag))
    geo = np.exp(log_sums / counts[:, None])
    mean[:, 0, 0] = geo[:, 0]
    mean[:, 1, 1] = geo[:, 1]
    return EffectiveModel(hierarchy, mean, provenance="geometric")


def _periodic_dof_map(grid):
    """Node -> periodic dof id (opposite faces identified)."""
    n_nodes = grid.n_nodes
    ix = np.arange(n_nodes) % (grid.nx + 1)
    iy = np.arange(n_nodes) // (grid.nx + 1)
    return (iy % grid.ny) * grid.nx + (ix % grid.nx)


def homogenized_model(field, hierarchy, k):
    """Homogenized tensor of one sampling cell from periodic cell problems.

    Solves the two corrector problems on the cell's micro grid with periodic
    boundary conditions (dof identification of opposite faces), one pinned dof
    and mean subtraction, then evaluates the averaged flux tensor.
    """
    bbox = hierarchy.sampling_bbox(k)
    grid = hierarchy.micro_grid(bbox)
    tensors = field.tensors_at(grid.cell_centers)
    pmap = _periodic_dof_map(grid)
    cn = pmap[grid.cell_nodes]
    n_dof = grid.nx * grid.ny

    elem = diffusion_element_matrices(grid, tensors)
    rows = np.repeat(cn, 4, axis=1).ravel()
    cols = np.tile(cn, (1, 4)).ravel()
    data = elem.ravel()
    # pin dof 0 to fix the constant mode
    keep = (rows != 0) & (cols != 0)
    rows = np.concatenate([rows[keep], [0]])
    cols = np.concatenate([cols[keep], [0]])
    data = np.concatenate([data[keep], [1.0]])
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n_dof, n_dof)).tocsc()
    try:
        lu = splu(matrix)
    except Exception as exc:
        raise NumericalError(f"cell problem on sampling cell {k} is singular: {exc}") from exc

    hx, hy = grid.spacing
    # int_cell d_x(phi_p) and d_y(phi_p): signs by node position
    ex = 0.5 * hy * np.array([-1.0, 1.0, -1.0, 1.0])
    ey = 0.5 * hx * np.array([-1.0, -1.0, 1.0, 1.0])
    correctors = []
    for i in range(2):
        load = -(tensors[:, 0, i][:, None] * ex[None, :] + tensors[:, 1, i][:, None] * ey[None, :])
        rhs = np.zeros(n_dof)
        np.add.at(rhs, cn.ravel(), load.ravel())
        rhs[0] = 0.0
        w = lu.solve(rhs)
        w -= w.mean()
        correctors.append(w)

    _, wq, _, dphi = _gauss_points_physical(grid)
    area = (bbox[2] - bbox[0]) * (bbox[3] - bbox[1])
    grads = [
        np.einsum("cp,qpd->cqd", correctors[i][cn], dphi) + np.eye(2)[i]
        for i in range(2)
    ]
    out = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            flux = np.einsum("cab,cqb->cqa", tensors, grads[i])
            out[i, j] = np.einsum("q,cqa,cqa->", wq, flux, grads[j]) / area
    return out


def homogenized_effective_model(field, hierarchy):
    """Homogenized tensors on every sampling cell."""
    tensors = np.stack(
        [homogenized_model(field, hierarchy, k) for k in range(hierarchy.n_sampling)]
    )
    return EffectiveModel(hierarchy, tensors, provenance="homogenized")
