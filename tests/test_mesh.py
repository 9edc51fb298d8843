import numpy as np
import pytest

from dwropt.errors import ConfigurationError, OutOfDomainError
from dwropt.mesh import Domain, build_hierarchy


def unit_hierarchy(delta=0.5, h_macro=0.25, h_micro=0.125):
    return build_hierarchy(Domain(), delta, h_macro, h_micro)


def test_cell_counts_unit_square():
    h = unit_hierarchy()
    assert h.n_sampling == 4
    assert h.macro_grid.n_cells == 16


def test_sampling_count_eighth():
    h = build_hierarchy(Domain(), 2.0**-3, 2.0**-4, 2.0**-5)
    assert h.n_sampling == 64


def test_divisibility_violation_names_pair():
    with pytest.raises(ConfigurationError, match="delta / H"):
        build_hierarchy(Domain(), 1.0 / 3.0, 0.25, 0.125)


def test_extent_divisibility_violation():
    with pytest.raises(ConfigurationError):
        build_hierarchy(Domain(extent=(1.0, 1.0)), 0.3, 0.1, 0.05)


def test_rectangle_counts():
    h = build_hierarchy(Domain(extent=(1.0, 2.0)), 0.25, 0.125, 0.0625)
    assert h.n_sampling == 4 * 8
    assert h.macro_grid.n_cells == 8 * 16


def test_patch_interior_has_nine_members():
    h = build_hierarchy(Domain(), 2.0**-3, 2.0**-4, 2.0**-5)
    k = h.sampling_grid.cell_id(3, 4)
    patch = h.patch_of(k, 1)
    assert len(patch.members) == 9
    assert k in patch.members


def test_patch_corner_and_edge():
    h = build_hierarchy(Domain(), 2.0**-3, 2.0**-4, 2.0**-5)
    assert len(h.patch_of(0, 1).members) == 4
    edge = h.sampling_grid.cell_id(3, 0)
    assert len(h.patch_of(edge, 1).members) == 6


def test_patch_depth_zero_is_single_cell():
    h = unit_hierarchy()
    for k in range(h.n_sampling):
        assert h.patch_of(k, 0).members == (k,)


def test_patch_members_row_major():
    h = build_hierarchy(Domain(), 2.0**-3, 2.0**-4, 2.0**-5)
    patch = h.patch_of(h.sampling_grid.cell_id(2, 2), 1)
    assert list(patch.members) == sorted(patch.members)


def test_patch_symmetry():
    h = build_hierarchy(Domain(), 2.0**-3, 2.0**-4, 2.0**-5)
    for k in range(h.n_sampling):
        for q in h.patch_of(k, 1).members:
            assert k in h.patch_of(q, 1).members


def test_patch_invalid_inputs():
    h = unit_hierarchy()
    with pytest.raises(ConfigurationError):
        h.patch_of(99, 1)
    with pytest.raises(ConfigurationError):
        h.patch_of(0, 2)


def test_locate_midpoint():
    h = unit_hierarchy()
    for k in range(h.n_sampling):
        bb = h.sampling_bbox(k)
        mid = (0.5 * (bb[0] + bb[2]), 0.5 * (bb[1] + bb[3]))
        assert h.sampling_grid.locate(mid)[0] == k


def test_locate_edge_tiebreak_left():
    h = unit_hierarchy()
    point = (0.5, 0.3)  # on the interior vertical sampling edge
    ks, km = h.sampling_grid.locate(point)[0], h.macro_grid.locate(point)[0]
    assert ks == 0
    assert km == h.macro_grid.cell_id(1, 1)


def test_locate_outside_raises():
    h = unit_hierarchy()
    for grid in (h.sampling_grid, h.macro_grid):
        with pytest.raises(OutOfDomainError):
            grid.locate((1.0 + 1e-9, 0.5))


def test_sampling_cells_tile_domain():
    h = build_hierarchy(Domain(extent=(1.0, 2.0)), 0.25, 0.125, 0.0625)
    area = 0.0
    for k in range(h.n_sampling):
        bb = h.sampling_bbox(k)
        area += (bb[2] - bb[0]) * (bb[3] - bb[1])
    assert abs(area - 2.0) <= 1e-12 * 2.0


def test_macro_parent_contains_macro_cell():
    h = build_hierarchy(Domain(), 2.0**-2, 2.0**-4, 2.0**-5)
    for m in range(h.macro_grid.n_cells):
        bb_m = h.macro_grid.cell_bbox(m)
        bb_s = h.sampling_bbox(int(h.macro_parent[m]))
        assert bb_s[0] <= bb_m[0] and bb_m[2] <= bb_s[2]
        assert bb_s[1] <= bb_m[1] and bb_m[3] <= bb_s[3]


def test_parents_of_macro_grid_is_macro_parent():
    h = build_hierarchy(Domain(extent=(1.0, 2.0)), 2.0**-2, 2.0**-4, 2.0**-5)
    assert np.array_equal(h.parents(h.macro_grid), h.macro_parent)


@pytest.mark.parametrize("trailing", [(), (2,), (2, 2)])
def test_sampling_mean_of_per_cell_constant(trailing):
    # per-sampling-cell constants, spread over the global micro grid, average
    # back to themselves in every trailing shape
    h = build_hierarchy(Domain(extent=(1.0, 2.0)), 2.0**-2, 2.0**-3, 2.0**-5)
    micro = h.fine_grid
    consts = np.arange(h.n_sampling * int(np.prod(trailing)), dtype=float)
    consts = consts.reshape((h.n_sampling,) + trailing) + 0.5
    mean = h.sampling_mean(consts[h.parents(micro)])
    assert mean.shape == (h.n_sampling,) + trailing
    assert np.array_equal(mean, consts)


def test_macro_parent_partition():
    # the macro cells of the sampling cells, by macro_parent, tile the macro grid
    h = build_hierarchy(Domain(), 2.0**-2, 2.0**-4, 2.0**-5)
    seen = np.concatenate([np.flatnonzero(h.macro_parent == k) for k in range(h.n_sampling)])
    assert sorted(seen) == list(range(h.macro_grid.n_cells))


def test_micro_grid_alignment():
    h = build_hierarchy(Domain(), 2.0**-3, 2.0**-4, 2.0**-5)
    k = h.sampling_grid.cell_id(3, 4)
    g = h.micro_grid(h.patch_of(k, 1).bbox)
    assert g.shape == (12, 12)
    assert g.spacing == (2.0**-5, 2.0**-5)


def test_subgrid_is_a_lattice_window():
    # the window's node and cell ids address the sub-grid's own nodes and
    # cells, in its row-major order
    h = build_hierarchy(Domain(), 2.0**-3, 2.0**-4, 2.0**-5)
    fine = h.fine_grid
    bbox = h.patch_of(h.sampling_grid.cell_id(3, 4), 1).bbox
    sub = fine.subgrid(bbox)
    assert sub == h.micro_grid(bbox)
    assert np.array_equal(fine.node_coords[fine.subgrid_node_ids(bbox)], sub.node_coords)
    assert np.array_equal(fine.cell_centers[fine.subgrid_cell_ids(bbox)], sub.cell_centers)


def test_boundary_marker_split():
    dom = Domain(
        extent=(1.0, 2.0),
        boundary={
            "left": (("gamma_d", 1.0), ("gamma_c", None)),
            "right": (("gamma_a", None),),
            "bottom": (("gamma_e", None),),
            "top": (("gamma_b", None),),
        },
    )
    assert list(dom.markers_at("left", [0.5, 1.0, 1.5])) == ["gamma_d", "gamma_c", "gamma_c"]
    assert list(dom.markers_at("top", [0.3])) == ["gamma_b"]
    assert set(dom.markers()) == {"gamma_a", "gamma_b", "gamma_c", "gamma_d", "gamma_e"}


def test_domain_validation():
    with pytest.raises(ConfigurationError):
        Domain(extent=(0.0, 1.0))
    with pytest.raises(ConfigurationError):
        Domain(boundary={"left": (("m", 0.5),), "right": (("r", None),),
                         "bottom": (("b", None),), "top": (("t", None),)})
