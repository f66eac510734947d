"""Mesh, level sets, classification, ghost faces, DoF map, ball files."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfcutfem.geometry import (
    BallUnionLevelSet,
    CartesianMesh,
    HalfSpaceLevelSet,
    Label,
    SphereLevelSet,
    box_mesh,
    build_dofmap,
    classify_cells,
    generate_balls,
    ghost_faces,
    load_balls,
    save_balls,
)
from mfcutfem.sumfac import TensorField


# ---------------------------------------------------------------------------
# mesh


def test_box_mesh_spacing_and_boxes():
    mesh = box_mesh([-1.26, -1.26], [1.26, 1.26], [6, 6])
    assert mesh.dim == 2
    assert mesh.n_cells == 36
    assert_allclose(mesh.spacing, [0.42, 0.42])
    lo, hi = mesh.cell_box(np.array([0, 0]))
    assert_allclose(lo, [-1.26, -1.26])
    assert_allclose(hi, [-0.84, -0.84])


def test_mesh_flat_index_axis0_fastest():
    mesh = box_mesh([0, 0, 0], [1, 1, 1], [2, 3, 4])
    assert_allclose(mesh.cell_multi(1 + 2 * 2 + 6 * 3), [1, 2, 3])


def test_flat_cell_index_out_of_range_is_rejected():
    mesh = box_mesh([0, 0], [1, 1], [3, 3])
    for bad, first in (([9, -1], 9), ([4, -1, 10], -1)):
        with pytest.raises(ValueError, match=f"cell index {first} "):
            mesh.cell_multi(bad)
    dm = build_dofmap(mesh, 1, classify_cells(mesh, SphereLevelSet([0.0, 0.0], 10.0), 3))
    with pytest.raises(ValueError):
        dm.cell_dofs([9])


def test_mesh_validation():
    with pytest.raises(ValueError):
        CartesianMesh((0.0,), (4,), (0.1,))  # 1D unsupported
    with pytest.raises(ValueError):
        box_mesh([0, 0], [1, 1], [0, 4])
    with pytest.raises(ValueError):
        box_mesh([0, 0], [0, 1], [4, 4])  # zero extent gives zero spacing
    for lo, hi in [([0, 0], [np.nan, 1]), ([0, 0], [np.inf, 1]), ([np.nan, 0], [1, 1]), ([-np.inf, 0], [1, 1])]:
        with pytest.raises(ValueError, match="origin and spacing must be finite"):
            box_mesh(lo, hi, [2, 2])  # not left for cut quadrature to blame on the level set
    with pytest.raises(ValueError, match="finite"):
        CartesianMesh((0.0, np.nan), (2, 2), (0.5, 0.5))


# ---------------------------------------------------------------------------
# level sets


def test_sphere_level_set_values_and_gradient():
    ls = SphereLevelSet([1.0, 0.0], 2.0)
    assert_allclose(ls.value(np.array([1.0, 0.0])), 2.0)
    assert_allclose(ls.value(np.array([[3.0, 0.0], [1.0, 3.0]])), [0.0, -1.0])
    g = ls.gradient(np.array([4.0, 0.0]))
    assert_allclose(g, [-1.0, 0.0])


@pytest.mark.parametrize("dim", [2, 3])
def test_sphere_is_the_ball_formula_bitwise(rng, dim):
    c, r = rng.uniform(-0.5, 0.5, dim), 0.8
    ls = SphereLevelSet(c, r)
    x = rng.uniform(-1.0, 1.0, (30, dim))
    diff = x - c
    dist = np.sqrt((diff * diff).sum(axis=-1))
    assert np.array_equal(ls.value(x), r - dist)
    assert np.array_equal(ls.gradient(x), -diff / dist[:, None])
    # a (d,) input, and the centre, where the gradient has no direction and is zero
    assert np.array_equal(ls.value(x[0]), r - dist[0])
    assert np.array_equal(ls.gradient(x[0]), -diff[0] / dist[0])
    assert ls.value(c) == r and np.array_equal(ls.gradient(c), np.zeros(dim))
    assert np.array_equal(ls.gradient(np.stack([c, x[0]])), np.stack([np.zeros(dim), -diff[0] / dist[0]]))


def test_ball_union_matches_max_of_spheres(rng):
    centers = rng.uniform(-1, 1, size=(5, 3))
    radii = rng.uniform(0.2, 0.7, size=5)
    union = BallUnionLevelSet(centers, radii)
    x = rng.uniform(-1.5, 1.5, size=(40, 3))
    singles = np.stack([SphereLevelSet(c, r).value(x) for c, r in zip(centers, radii)])
    assert_allclose(union.value(x), singles.max(axis=0), atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_ball_union_gradient_is_the_argmax_ball_formula_bitwise(rng, dim):
    # -(x - c) / |x - c| of the ball of largest value, the first one on a
    # tie, and zero at that ball's centre: the argmax followed by a second
    # norm of x - c, as the gradient was first written
    centers = np.zeros((3, dim))
    centers[0, 0], centers[1, 0], centers[2, 1] = 0.3, -0.3, 0.9
    radii = np.array([0.5, 0.5, 0.4])
    ls = BallUnionLevelSet(centers, radii)
    tie = rng.uniform(-1.0, 1.0, (10, dim))
    tie[:, 0] = 0.0  # balls 0 and 1 are equally close and equally large,
    tie[:, 1] = -np.abs(tie[:, 1])  # and ball 2 is farther
    x = np.concatenate([rng.uniform(-1.0, 1.0, (50, dim)), tie, centers[2:]])

    dists = np.stack([np.linalg.norm(x - c, axis=-1) for c in centers])
    best = np.argmax(radii[:, None] - dists, axis=0)
    diff = x - centers[best]
    dist = np.linalg.norm(diff, axis=-1, keepdims=True)
    expected = -diff / np.where(dist == 0.0, 1.0, dist)

    assert (best[50:60] == 0).all() and best[-1] == 2
    assert np.array_equal(ls.gradient(x), expected)
    assert not ls.gradient(centers[2]).any()
    assert all(np.array_equal(ls.gradient(p), e) for p, e in zip(x, expected))


@pytest.mark.parametrize("shape", [(40,), (), (4, 10)])
def test_ball_union_value_is_the_max_of_norm_distances_bitwise(rng, shape):
    # r_i - np.linalg.norm(x - c_i, axis=-1), the first ball's on a tie:
    # balls 0 and 1 are equally close and equally large on x_0 = 0
    centers = np.array([[0.3, 0.1, 0.0], [-0.3, 0.1, 0.0], [0.1, 0.9, -0.2], [0.0, 0.0, 0.5]])
    radii = np.array([0.5, 0.5, 0.4, 0.3])
    x = rng.uniform(-1.0, 1.0, shape + (3,))
    x[..., 0] = np.where(rng.uniform(size=shape) < 0.3, 0.0, x[..., 0])
    dists = np.stack([r - np.linalg.norm(x - c, axis=-1) for c, r in zip(centers, radii)])
    expected = np.take_along_axis(dists, np.argmax(dists, axis=0)[None], 0)[0]
    value = BallUnionLevelSet(centers, radii).value(x)
    assert np.shape(value) == shape and np.array_equal(value, expected)


def test_half_space_level_set():
    ls = HalfSpaceLevelSet([1.0, 0.0], 0.3)
    assert ls.value(np.array([0.0, 9.0])) > 0
    assert ls.value(np.array([1.0, 0.0])) < 0
    assert_allclose(ls.gradient(np.array([[0.5, 0.5]])), [[-1.0, 0.0]])
    for normal, offset in (([0.0, 0.0], 0.3), ([np.nan, 1.0], 0.3), ([np.inf, 0.0], 0.3),
                           ([1.0, 0.0], np.nan), ([1.0, 0.0], -np.inf)):
        with pytest.raises(ValueError):
            HalfSpaceLevelSet(normal, offset)


@pytest.mark.parametrize("normal", [1.0, [[1.0, 0.0]]])
def test_half_space_normal_must_be_a_vector(normal):
    # a scalar normal would broadcast over every axis: x + y < 0.2 in 2D
    with pytest.raises(ValueError, match="normal must be a vector"):
        HalfSpaceLevelSet(normal, 0.2)


@pytest.mark.parametrize("levelset, own, mesh_dim", [
    (HalfSpaceLevelSet([1.0], 0.2), 1, 2),
    (HalfSpaceLevelSet([1.0, 0.0, 0.0], 0.2), 3, 2),
    (SphereLevelSet([0.0, 0.0, 0.0], 1.0), 3, 2),
    (SphereLevelSet([0.0, 0.0], 1.0), 2, 3),
    (BallUnionLevelSet([[0.0, 0.0], [0.5, 0.0]], [0.6, 0.6]), 2, 3),
], ids=["half1d_on_2d", "half3d_on_2d", "sphere3d_on_2d", "sphere2d_on_3d", "balls2d_on_3d"])
def test_level_set_of_another_dimension_is_a_value_error(levelset, own, mesh_dim):
    # no broadcast over the axes, no IndexError and no silent cylinder:
    # the error names both dimensions, for values, gradients and labels
    match = f"a {own}D level set got points of dimension {mesh_dim}"
    x = np.zeros((4, mesh_dim))
    for read in (levelset.value, levelset.gradient):
        with pytest.raises(ValueError, match=match):
            read(x)
    with pytest.raises(ValueError, match=match):
        classify_cells(box_mesh([-1.0] * mesh_dim, [1.0] * mesh_dim, [12] * mesh_dim), levelset, 3)


@pytest.mark.parametrize("dim", [2, 3])
def test_level_set_values_do_not_depend_on_the_batch(rng, dim):
    # cut quadrature reads one point in blocks of different shapes, and its
    # cut test and root scan should see one sign there
    level_sets = [
        HalfSpaceLevelSet(rng.standard_normal(dim), 0.3),
        SphereLevelSet(rng.uniform(-0.5, 0.5, dim), 0.8),
        BallUnionLevelSet(rng.uniform(-0.5, 0.5, (3, dim)), [0.4, 0.5, 0.6]),
    ]
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 40)), dim))
        for ls in level_sets:
            one_by_one = np.array([ls.value(p[None])[0] for p in x])
            assert np.array_equal(ls.value(x), one_by_one), type(ls).__name__
            assert np.array_equal(ls.value(x[:, None]), one_by_one[:, None]), type(ls).__name__


def test_ball_level_sets_reject_non_finite_balls():
    for center, radius in (([0.0, np.nan], 0.5), ([0.0, 0.0], np.nan), ([0.0, 0.0], np.inf)):
        with pytest.raises(ValueError, match="finite"):
            SphereLevelSet(center, radius)
        with pytest.raises(ValueError, match="finite"):
            BallUnionLevelSet([center, [0.5, 0.5]], [radius, 0.5])
    with pytest.raises(ValueError, match="positive"):
        BallUnionLevelSet([[0.0, 0.0]], [-0.5])
    with pytest.raises(ValueError, match="at least one ball"):
        BallUnionLevelSet(np.zeros((0, 2)), [])


# ---------------------------------------------------------------------------
# classification


def test_classify_all_inside_for_huge_sphere():
    mesh = box_mesh([-1, -1], [1, 1], [4, 4])
    cls = classify_cells(mesh, SphereLevelSet([0.0, 0.0], 10.0), 4)
    assert cls.count(Label.INSIDE) == 16
    assert cls.cut_fraction == 0.0


def test_classify_half_space_single_cell_cut():
    mesh = box_mesh([0, 0], [1, 1], [1, 1])
    cls = classify_cells(mesh, HalfSpaceLevelSet([1.0, 0.0], 0.5), 3)
    assert cls.labels[0] == Label.CUT


def test_classify_zero_counts_as_inside():
    # interface exactly on the shared face: left cell fully inside, right cut
    mesh = box_mesh([0, 0], [2, 1], [2, 1])
    cls = classify_cells(mesh, HalfSpaceLevelSet([1.0, 0.0], 1.0), 3)
    assert cls.labels[0] == Label.INSIDE
    assert cls.labels[1] == Label.CUT


def test_classify_samples_a_shared_face_at_one_coordinate():
    # x = 0 is the face between columns 5 and 6, where lo + h of column 5
    # rounds to 2.8e-17: the interface cuts column 6 alone, as on a face
    # sampled once
    mesh = box_mesh([-1.26, -1.26], [1.26, 1.26], [12, 12])
    assert mesh.cell_box([5, 0])[1][0] != mesh.cell_box([6, 0])[0][0]
    cls = classify_cells(mesh, HalfSpaceLevelSet([1.0, 0.0], 0.0), 3)
    assert np.flatnonzero(cls.labels == Label.CUT).tolist() == list(range(6, 144, 12))


class _NaNAt:
    """A sphere level set that is NaN at one point (or everywhere)."""

    def __init__(self, point=None):
        self.sphere = SphereLevelSet([0.0, 0.0], 1.0)
        self.point = point

    def value(self, x):
        x = np.asarray(x, dtype=float)
        v = self.sphere.value(x)
        if self.point is None:
            return np.full_like(v, np.nan)
        return np.where(np.all(x == self.point, axis=-1), np.nan, v)


def test_classify_rejects_all_nan_level_set():
    mesh = box_mesh([-1, -1], [1, 1], [4, 4])
    with pytest.raises(ValueError, match=r"not finite at \[-1.0, -1.0\]"):
        classify_cells(mesh, _NaNAt(), 3)


def test_classify_rejects_single_nan_sample():
    mesh = box_mesh([-1, -1], [1, 1], [4, 4])
    with pytest.raises(ValueError, match=r"not finite at \[0.5, 0.0\]"):
        classify_cells(mesh, _NaNAt([0.5, 0.0]), 3)


class _Flattened:
    """A sphere level set whose values come back flattened to (N,)."""

    def value(self, x):
        return SphereLevelSet([0.0, 0.0], 1.0).value(x).ravel()


def test_classify_rejects_a_value_of_the_wrong_shape():
    mesh = box_mesh([-1, -1], [1, 1], [4, 4])
    with pytest.raises(ValueError, match=r"value has shape \(144,\) for points \(16, 9, 2\)"):
        classify_cells(mesh, _Flattened(), 3)


def test_classify_circle_matches_dense_sampling_oracle():
    mesh = box_mesh([-1.26, -1.26], [1.26, 1.26], [6, 6])
    ls = SphereLevelSet([0.0, 0.0], 1.0)
    cls = classify_cells(mesh, ls, 4)
    t = np.linspace(0.0, 1.0, 100)
    for c in range(mesh.n_cells):
        lo, hi = mesh.cell_box(mesh.cell_multi(c))
        xx, yy = np.meshgrid(lo[0] + t * (hi[0] - lo[0]), lo[1] + t * (hi[1] - lo[1]))
        vals = ls.value(np.stack([xx, yy], axis=-1))
        if np.all(vals >= 0):
            expect = Label.INSIDE
        elif np.all(vals < 0):
            expect = Label.OUTSIDE
        else:
            expect = Label.CUT
        assert cls.labels[c] == expect, f"cell {c}"


def test_cut_fraction_range_over_random_balls(rng):
    mesh = box_mesh([-1.26] * 2, [1.26] * 2, [8, 8])
    for seed in range(5):
        centers, radii = generate_balls(3, seed, [-1.26] * 2, [1.26] * 2)
        cls = classify_cells(mesh, BallUnionLevelSet(centers, radii), 4)
        assert 0.0 <= cls.cut_fraction <= 1.0


# ---------------------------------------------------------------------------
# ghost faces


def _classification_from_labels(mesh, labels):
    from mfcutfem.geometry import CellClassification

    return CellClassification(mesh, np.asarray(labels, dtype=np.int8))


def _face_keys(mesh, faces):
    """(lower-cell multi-index, axis) of each (axis, flat lower cell) row."""
    return [(tuple(int(v) for v in mesh.cell_multi(lower)), int(axis)) for axis, lower in faces]


def test_ghost_faces_empty_when_all_inside():
    mesh = box_mesh([-1, -1], [1, 1], [3, 3])
    cls = classify_cells(mesh, SphereLevelSet([0.0, 0.0], 10.0), 3)
    faces = ghost_faces(cls)
    assert faces.shape == (0, 2) and faces.dtype == np.int64


def test_ghost_faces_center_cut_cell():
    mesh = box_mesh([0, 0], [3, 3], [3, 3])
    labels = np.full(9, Label.INSIDE, dtype=np.int8)
    labels[4] = Label.CUT  # center cell (1, 1)
    faces = ghost_faces(_classification_from_labels(mesh, labels))
    assert len(faces) == 4
    assert set(_face_keys(mesh, faces)) == {
        ((0, 1), 0),
        ((1, 1), 0),
        ((1, 0), 1),
        ((1, 1), 1),
    }


def test_ghost_faces_skip_outside_neighbors():
    mesh = box_mesh([0, 0], [2, 2], [2, 2])
    labels = np.array([Label.CUT, Label.OUTSIDE, Label.INSIDE, Label.OUTSIDE], dtype=np.int8)
    faces = ghost_faces(_classification_from_labels(mesh, labels))
    # cut cell (0,0): right neighbor outside, upper neighbor (0,1) inside
    assert _face_keys(mesh, faces) == [((0, 0), 1)]


def test_ghost_faces_ordering_and_uniqueness():
    mesh = box_mesh([-1.26] * 2, [1.26] * 2, [12, 12])
    cls = classify_cells(mesh, SphereLevelSet([0.0, 0.0], 1.0), 4)
    faces = ghost_faces(cls)
    keys = [(axis, np.ravel_multi_index(lower, (12, 12), order="F")) for lower, axis in _face_keys(mesh, faces)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    labels = cls.labels
    for axis, lower in faces:
        pair = (labels[lower], labels[lower + mesh.cell_strides[axis]])
        assert Label.CUT in pair
        assert Label.OUTSIDE not in pair


def test_ghost_face_count_growth_rate():
    # faces ~ h^(1-d) = h^-1 in 2D: fitted exponent within +/- 0.3
    ls = SphereLevelSet([0.0, 0.0], 1.0)
    counts = []
    for level in range(4):
        cells = 6 * 2**level
        mesh = box_mesh([-1.26] * 2, [1.26] * 2, [cells] * 2)
        counts.append(len(ghost_faces(classify_cells(mesh, ls, 4))))
    rates = np.log2(np.array(counts[1:]) / np.array(counts[:-1]))
    assert abs(np.mean(rates) - 1.0) < 0.3


# ---------------------------------------------------------------------------
# DoF map


def test_dofmap_counts_single_cell():
    mesh = box_mesh([0, 0], [1, 1], [1, 1])
    cls = classify_cells(mesh, SphereLevelSet([0.0, 0.0], 10.0), 3)
    dm = build_dofmap(mesh, 1, cls)
    assert dm.n_active == 4


def test_dofmap_counts_two_cells_quadratic():
    mesh = box_mesh([0, 0], [2, 1], [2, 1])
    cls = classify_cells(mesh, SphereLevelSet([0.0, 0.0], 10.0), 4)
    dm = build_dofmap(mesh, 2, cls)
    assert dm.extents == (5, 3)
    assert dm.n_active == 15


def test_dofmap_outside_cell_excluded():
    mesh = box_mesh([0, 0], [2, 1], [2, 1])
    labels = np.array([Label.INSIDE, Label.OUTSIDE], dtype=np.int8)
    dm = build_dofmap(mesh, 2, _classification_from_labels(mesh, labels))
    assert dm.n_active == 9
    active_coords = dm.dof_coordinates()
    assert np.all(active_coords[:, 0] <= 1.0 + 1e-12)


def test_dofmap_compact_contiguous():
    mesh = box_mesh([-1.26] * 2, [1.26] * 2, [6, 6])
    cls = classify_cells(mesh, SphereLevelSet([0.0, 0.0], 1.0), 4)
    dm = build_dofmap(mesh, 2, cls)
    active = dm.compact >= 0
    compact_active = dm.compact[active]
    assert_allclose(np.sort(compact_active), np.arange(dm.n_active))
    assert np.all(dm.compact[~active] == -1)


def test_cell_dofs_lexicographic_single_cell():
    mesh = box_mesh([0, 0], [2, 2], [2, 2])
    cls = classify_cells(mesh, SphereLevelSet([0.0, 0.0], 10.0), 3)
    dm = build_dofmap(mesh, 1, cls)
    # global grid is 3x3; cell (1,1) covers dofs {1,2} x {1,2}
    assert list(dm.cell_dofs(np.array([3]))[0]) == [4, 5, 7, 8]


def test_dof_coordinates_tensor_lobatto():
    mesh = box_mesh([0, 0], [1, 1], [1, 1])
    cls = classify_cells(mesh, SphereLevelSet([0.0, 0.0], 10.0), 4)
    dm = build_dofmap(mesh, 2, cls)
    pts = dm.dof_coordinates()
    expect_1d = [0.0, 0.5, 1.0]
    expect = [(x, y) for y in expect_1d for x in expect_1d]
    assert_allclose(pts, expect, atol=1e-14)


def test_dofmap_active_monotone_under_outside_flip():
    mesh = box_mesh([-1.26] * 2, [1.26] * 2, [6, 6])
    cls = classify_cells(mesh, SphereLevelSet([0.0, 0.0], 1.0), 4)
    dm = build_dofmap(mesh, 2, cls)
    inside = cls.cells_with(Label.INSIDE)
    labels = cls.labels.copy()
    labels[inside[0]] = Label.OUTSIDE
    dm_flipped = build_dofmap(mesh, 2, _classification_from_labels(mesh, labels))
    assert dm_flipped.n_active <= dm.n_active


# ---------------------------------------------------------------------------
# face patches


def _patch_oracle(dm, axis, lower_flat):
    """Brute-force global indices of the 2-cell patch via index arithmetic."""
    k = dm.degree
    mesh = dm.mesh
    lower = mesh.cell_multi(lower_flat)
    ranges = []
    for a in range(mesh.dim):
        start = k * lower[a]
        width = 2 * k + 1 if a == axis else k + 1
        ranges.append(range(start, start + width))
    idx = []
    if mesh.dim == 2:
        for j in ranges[1]:
            for i in ranges[0]:
                idx.append(i + dm.extents[0] * j)
    else:
        for l in ranges[2]:
            for j in ranges[1]:
                for i in ranges[0]:
                    idx.append(i + dm.extents[0] * (j + dm.extents[1] * l))
    return np.array(idx)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_face_patch_matches_index_oracle(dim, k):
    mesh = box_mesh([-1.26] * dim, [1.26] * dim, [4] * dim)
    cls = classify_cells(mesh, SphereLevelSet([0.0] * dim, 1.0), k + 2)
    dm = build_dofmap(mesh, k, cls)
    faces = ghost_faces(cls)
    assert len(faces), "expected ghost faces on a cut disk"
    for axis, lower in faces[:: max(1, len(faces) // 6)]:
        assert_allclose(dm.cell_dofs(lower, axis)[0], _patch_oracle(dm, axis, lower))
    # one gather per axis gives the same rows as the face-by-face calls
    for axis in range(dim):
        lowers = faces[faces[:, 0] == axis, 1]
        assert_allclose(dm.cell_dofs(lowers, axis), [_patch_oracle(dm, axis, c) for c in lowers])


def test_patch_extents_and_grid_shape():
    mesh = box_mesh([-1.26] * 2, [1.26] * 2, [4] * 2)
    cls = classify_cells(mesh, SphereLevelSet([0.0, 0.0], 1.0), 3)
    dm = build_dofmap(mesh, 1, cls)
    faces = ghost_faces(cls)
    lower = faces[faces[:, 0] == 1, 1][0]
    assert dm.patch_extents(1) == (2, 3)
    patch = TensorField(dm.patch_extents(1), np.zeros(dm.compact_cell_dofs(lower, 1).size))
    assert patch.as_grid().shape == (3, 2)  # normal axis varies slowest in the view


def test_face_patch_rejects_outside_cell():
    mesh = box_mesh([0, 0], [2, 2], [2, 2])
    labels = np.array([Label.CUT, Label.OUTSIDE, Label.INSIDE, Label.OUTSIDE], dtype=np.int8)
    cls = _classification_from_labels(mesh, labels)
    dm = build_dofmap(mesh, 1, cls)
    with pytest.raises(ValueError):
        dm.cell_dofs([0], axis=0)  # upper cell (1, 0) is OUTSIDE


def test_face_patch_rejects_lower_cell_on_last_layer():
    mesh = box_mesh([0, 0], [2, 2], [2, 2])
    dm = build_dofmap(mesh, 1, _classification_from_labels(mesh, np.full(4, Label.INSIDE)))
    assert dm.cell_dofs([0], axis=0).tolist() == [[0, 1, 2, 3, 4, 5]]
    # cell (1, 0) has no right neighbor; its patch must not wrap to the next row
    for cell, axis in ((1, 0), (3, 0), (2, 1), (3, 1)):
        with pytest.raises(ValueError):
            dm.cell_dofs([cell], axis=axis)


# ---------------------------------------------------------------------------
# ball generation and serialization


def test_generate_balls_radius_and_bounds():
    centers, radii = generate_balls(4, 7, [-1.26] * 3, [1.26] * 3, r0=1.0)
    assert centers.shape == (4, 3)
    assert_allclose(radii, 0.25)
    assert np.all(centers >= -1.26 + 0.25 - 1e-12)
    assert np.all(centers <= 1.26 - 0.25 + 1e-12)


def test_generate_balls_seeded_reproducible():
    a = generate_balls(5, 42, [-1, -1], [1, 1])
    b = generate_balls(5, 42, [-1, -1], [1, 1])
    assert_allclose(a[0], b[0])
    c = generate_balls(5, 43, [-1, -1], [1, 1])
    assert not np.allclose(a[0], c[0])


def test_generate_balls_tiny_box_degenerates_to_center():
    centers, radii = generate_balls(1, 0, [0, 0], [1, 1], r0=5.0)
    assert_allclose(centers[0], [0.5, 0.5])
    assert_allclose(radii[0], 5.0)


def test_ball_file_roundtrip_bit_exact(tmp_path, rng):
    centers = rng.uniform(-1, 1, size=(6, 3))
    radii = rng.uniform(0.1, 0.5, size=6)
    path = tmp_path / "balls.txt"
    save_balls(path, centers, radii)
    loaded_c, loaded_r = load_balls(path)
    assert np.array_equal(loaded_c, centers)
    assert np.array_equal(loaded_r, radii)


def test_load_balls_rejects_malformed(tmp_path):
    path = tmp_path / "balls.txt"
    path.write_text("1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_balls(path)
