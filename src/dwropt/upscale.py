"""Initial effective models from the micro-cell a_eps of a problem's fine
data: arithmetic mean, geometric mean and periodic-cell homogenization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalError
from .fem import _gauss_points_physical, diffusion_element_matrices, element_operator


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


def constant_model(hierarchy, tensor, provenance="constant"):
    """Model with the same tensor on every sampling cell."""
    t = np.asarray(tensor, dtype=float)
    if t.ndim == 0:
        t = float(t) * np.eye(2)
    tensors = np.broadcast_to(t, (hierarchy.n_sampling, 2, 2)).copy()
    return EffectiveModel(hierarchy, tensors, provenance=provenance)


def arithmetic_mean_model(problem):
    """Entrywise arithmetic cell average of the fine-scale tensor."""
    hierarchy = problem.hierarchy
    _, samples, _ = problem.fine_data()
    return EffectiveModel(hierarchy, hierarchy.sampling_mean(samples), provenance="arithmetic")


def geometric_mean_model(problem):
    """Geometric mean on the diagonal entries, arithmetic on off-diagonals.

    The entrywise log is ill-defined for vanishing off-diagonal entries, so
    only the (strictly positive) diagonal is averaged geometrically.
    """
    hierarchy = problem.hierarchy
    grid, samples, _ = problem.fine_data()
    centers = grid.cell_centers
    diag = samples[:, (0, 1), (0, 1)]
    bad = diag <= 0.0
    if np.any(bad):
        k = int(np.argmax(np.any(bad, axis=1)))
        raise NumericalError(
            f"geometric mean undefined: nonpositive diagonal sample at {tuple(centers[k])} "
            f"in sampling cell {int(hierarchy.sampling_grid.locate(centers[k])[0])}"
        )
    mean = hierarchy.sampling_mean(samples)
    geo = np.exp(hierarchy.sampling_mean(np.log(diag)))
    mean[:, 0, 0] = geo[:, 0]
    mean[:, 1, 1] = geo[:, 1]
    return EffectiveModel(hierarchy, mean, provenance="geometric")


def _periodic_dof_map(grid):
    """Node -> periodic dof id (opposite faces identified)."""
    n_nodes = grid.n_nodes
    ix = np.arange(n_nodes) % (grid.nx + 1)
    iy = np.arange(n_nodes) // (grid.nx + 1)
    return (iy % grid.ny) * grid.nx + (ix % grid.nx)


def periodic_cell_matrix(problem, grid, tensors):
    """Stiffness of the periodic cell problem on ``grid``, a sampling cell's
    micro grid with one tensor per cell, in CSC form: the
    :func:`element_operator` of the cell lattice folded onto the periodic
    dofs, with dof 0 pinned (its row and column are those of the identity)
    to fix the constant mode."""
    pmap = _periodic_dof_map(grid)
    n_dof = grid.nx * grid.ny
    nodes = np.nonzero(pmap)[0]  # the nodes of dof 0 fold onto nothing
    fold = sp.csr_matrix((np.ones(nodes.size), (nodes, pmap[nodes])), shape=(grid.n_nodes, n_dof))
    matrix = element_operator(problem.space(grid), diffusion_element_matrices(grid, tensors)).matrix
    pin = sp.csr_matrix(([1.0], ([0], [0])), shape=(n_dof, n_dof))
    folded = (fold.T @ matrix @ fold + pin).tocsc()
    folded.sort_indices()
    return folded


def homogenized_model(problem, k):
    """Homogenized tensor of one sampling cell from periodic cell problems.

    Solves the two corrector problems on the cell's micro grid with periodic
    boundary conditions (dof identification of opposite faces), one pinned dof
    and mean subtraction, then evaluates the averaged flux tensor.
    """
    bbox = problem.hierarchy.sampling_bbox(k)
    fine_grid, a_eps, _ = problem.fine_data()
    grid = fine_grid.subgrid(bbox)
    tensors = a_eps[fine_grid.subgrid_cell_ids(bbox)]
    cn = _periodic_dof_map(grid)[grid.cell_nodes]
    n_dof = grid.nx * grid.ny
    matrix = periodic_cell_matrix(problem, grid, tensors)
    try:
        lu = splu(matrix)
    except RuntimeError as exc:
        raise NumericalError(f"cell problem on sampling cell {k} is singular: {exc}") from exc

    hx, hy = grid.spacing
    # int_cell d_x(phi_p) and d_y(phi_p): signs by node position
    ex = 0.5 * hy * np.array([-1.0, 1.0, -1.0, 1.0])
    ey = 0.5 * hx * np.array([-1.0, -1.0, 1.0, 1.0])
    correctors = []
    for i in range(2):
        load = -(tensors[:, 0, i][:, None] * ex[None, :] + tensors[:, 1, i][:, None] * ey[None, :])
        rhs = np.bincount(cn.ravel(), weights=load.ravel(), minlength=n_dof)
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


def homogenized_effective_model(problem):
    """Homogenized tensors on every sampling cell."""
    n = problem.hierarchy.n_sampling
    tensors = np.stack([homogenized_model(problem, k) for k in range(n)])
    return EffectiveModel(problem.hierarchy, tensors, provenance="homogenized")
