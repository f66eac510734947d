"""Quadrature on implicitly defined cell subsets.

Closed-form oracles: sub-box volumes for axis-aligned planar interfaces,
Dirichlet integrals on corner simplices for tilted ones, circle/sphere
measures, and the antiderivative-based circle/box intersection area.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfcutfem import cutquad, operators
from mfcutfem.cutquad import (
    CutCellQuadrature,
    QuadratureError,
    cut_cell_quadrature,
    dump_quadrature_csv,
    sign_samples,
)
from mfcutfem.geometry import (
    BallUnionLevelSet,
    HalfSpaceLevelSet,
    Label,
    SphereLevelSet,
    box_mesh,
    classify_cells,
    generate_balls,
)
from mfcutfem.operators import Parameters, build_context
from mfcutfem.tensor1d import gauss_rule

from oracles import circle_box_area, per_cell_cut_quadrature, simplex_monomial_integral


class SaddleLevelSet:
    """phi(x, y) = x * y: no height axis qualifies near the origin."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] * x[..., 1]

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 1], x[..., 0]], axis=-1)


class CubicGraphLevelSet:
    """phi(x, y) = y - c(x) for a cubic c with three roots on y = 0."""

    def __init__(self, roots):
        self.c = np.polynomial.Polynomial.fromroots(roots)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 1] - self.c(x[..., 0])

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([-self.c.deriv()(x[..., 0]), np.ones(x.shape[:-1])], axis=-1)


class BlockRoundingLevelSet:
    """phi(x, y) = x - c, plus or minus 1e-13 by each point's place along the
    second-to-last axis of the block read, the way blocked arithmetic can
    round one point differently in blocks of different shapes."""

    def __init__(self, c):
        self.c = c

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] - self.c + 1e-13 * (-1.0) ** np.arange(x.shape[-2])

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.ones(x.shape[:-1]), np.zeros(x.shape[:-1])], axis=-1)


class HoledCircleLevelSet:
    """The unit circle's level set, NaN on a small disk."""

    def __init__(self, center, radius):
        self.center, self.radius = np.asarray(center, dtype=float), radius
        self.circle = SphereLevelSet([0.0, 0.0], 1.0)

    def _hole(self, x):
        return np.linalg.norm(np.asarray(x, dtype=float) - self.center, axis=-1) < self.radius

    def value(self, x):
        return np.where(self._hole(x), np.nan, self.circle.value(x))

    def gradient(self, x):
        return np.where(self._hole(x)[..., None], np.nan, self.circle.gradient(x))


class ScalarLevelSet:
    """Returns one number whatever the points: breaks the level-set contract."""

    def value(self, x):
        return np.float64(0.3)

    def gradient(self, x):
        return np.ones(np.shape(x))


def check_rule_invariants(rule: CutCellQuadrature, phi, lo, hi):
    """Point/weight/normal invariants every regularly constructed rule obeys."""
    eps_geo = 1e-10 * np.linalg.norm(np.asarray(hi) - np.asarray(lo))
    if rule.interior_points.size:
        assert phi.value(rule.interior_points).min() >= -eps_geo
    assert (rule.interior_weights >= 0).all()
    assert (rule.surface_weights >= 0).all()
    if rule.surface_points.size:
        assert np.abs(phi.value(rule.surface_points)).max() <= eps_geo
        lengths = np.linalg.norm(rule.surface_normals, axis=1)
        assert_allclose(lengths, 1.0, atol=1e-12)
        # normals point out of {phi > 0}
        grads = phi.gradient(rule.surface_points)
        assert ((rule.surface_normals * grads).sum(axis=1) < 0).all()


def domain_measures(dim, cells, q, radius=1.0):
    """Total volume, surface measure and surface flux of F = x/d for the
    ball of given radius on the harness box, cell by cell."""
    mesh = box_mesh([-1.26] * dim, [1.26] * dim, [cells] * dim)
    phi = SphereLevelSet([0.0] * dim, radius)
    classification = classify_cells(mesh, phi, sign_samples(q))
    h = mesh.spacing[0]
    volume = surface = flux = 0.0
    for c in range(mesh.n_cells):
        label = classification.labels[c]
        if label == Label.INSIDE:
            volume += h**dim
        elif label == Label.CUT:
            lo, hi = mesh.cell_box(mesh.cell_multi(c))
            rule = cut_cell_quadrature(lo, hi, phi, q)
            assert rule.fallback_count == 0
            check_rule_invariants(rule, phi, lo, hi)
            volume += rule.interior_weights.sum()
            surface += rule.surface_weights.sum()
            flux += (
                rule.surface_weights
                * (rule.surface_normals * rule.surface_points).sum(axis=1)
            ).sum() / dim
    return volume, surface, flux


# ---------------------------------------------------------------------------
# planar interfaces: exact geometry


def test_halfspace_interior_weight_is_half():
    phi = HalfSpaceLevelSet([1.0, 0.0], 0.5)  # phi = 0.5 - x, inside x < 0.5
    rule = cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], phi, 3)
    pts, wts = rule.interior_points, rule.interior_weights
    assert abs(wts.sum() - 0.5) <= 1e-14
    assert pts[:, 0].max() < 0.5
    assert (wts > 0).all()


def test_halfspace_surface_flat_interface():
    phi = HalfSpaceLevelSet([1.0, 0.0], 0.5)
    rule = cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], phi, 3)
    pts, wts, normals = rule.surface_points, rule.surface_weights, rule.surface_normals
    assert abs(wts.sum() - 1.0) <= 1e-14
    assert_allclose(pts[:, 0], 0.5, atol=1e-13)
    assert_allclose(normals, np.broadcast_to([1.0, 0.0], normals.shape), atol=1e-14)


def test_halfspace_3d():
    phi = HalfSpaceLevelSet([1.0, 0.0, 0.0], 0.5)
    rule = cut_cell_quadrature([0.0] * 3, [1.0] * 3, phi, 3)
    assert abs(rule.interior_weights.sum() - 0.5) <= 1e-14
    assert abs(rule.surface_weights.sum() - 1.0) <= 1e-14
    assert_allclose(
        rule.surface_normals,
        np.broadcast_to([1.0, 0.0, 0.0], rule.surface_normals.shape),
        atol=1e-14,
    )
    check_rule_invariants(rule, phi, [0.0] * 3, [1.0] * 3)


def test_uncut_inside_cell_is_plain_gauss():
    phi = HalfSpaceLevelSet([1.0, 0.0], 10.0)  # whole cell inside
    rule = cut_cell_quadrature([0.0, 0.0], [2.0, 3.0], phi, 4)
    assert abs(rule.interior_weights.sum() - 6.0) <= 1e-13
    assert rule.surface_points.shape == (0, 2)
    gx, _ = gauss_rule(4)
    expected_x = np.sort(np.unique(np.round(2.0 * gx, 12)))
    assert_allclose(np.unique(np.round(rule.interior_points[:, 0], 12)), expected_x)


def test_outside_cell_is_empty():
    phi = HalfSpaceLevelSet([1.0, 0.0], -10.0)  # whole cell outside
    rule = cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], phi, 3)
    assert rule.interior_points.shape == (0, 2)
    assert rule.interior_weights.shape == (0,)
    assert rule.surface_points.shape == (0, 2)
    assert rule.surface_normals.shape == (0, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_axis_aligned_cut_exact_per_axis_monomials(q):
    a = 0.537
    phi = HalfSpaceLevelSet([1.0, 0.0], a)
    rule = cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], phi, q)
    pts, wts = rule.interior_points, rule.interior_weights
    for i in range(2 * q):
        for j in range(2 * q):
            approx = (wts * pts[:, 0] ** i * pts[:, 1] ** j).sum()
            exact = a ** (i + 1) / (i + 1) / (j + 1)
            assert abs(approx - exact) <= 1e-12 * abs(exact)


def test_axis_aligned_cut_exact_3d():
    a = 0.713
    phi = HalfSpaceLevelSet([0.0, 0.0, 1.0], a)  # inside z < a
    rule = cut_cell_quadrature([0.0] * 3, [1.0] * 3, phi, 2)
    pts, wts = rule.interior_points, rule.interior_weights
    for exps in [(0, 0, 0), (3, 0, 0), (0, 3, 3), (1, 2, 3), (3, 3, 3)]:
        i, j, l = exps
        approx = (wts * pts[:, 0] ** i * pts[:, 1] ** j * pts[:, 2] ** l).sum()
        exact = a ** (l + 1) / (l + 1) / (i + 1) / (j + 1)
        assert abs(approx - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_tilted_plane_simplex_exact(q):
    c = 0.537
    phi = HalfSpaceLevelSet([1.0, 1.0], c)  # inside x + y < c
    rule = cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], phi, q)
    for i in range(2 * q - 1):
        for j in range(2 * q - 1 - i):
            approx = (
                rule.interior_weights
                * rule.interior_points[:, 0] ** i
                * rule.interior_points[:, 1] ** j
            ).sum()
            exact = simplex_monomial_integral((i, j), c)
            assert abs(approx - exact) <= 1e-12 * abs(exact)
    assert abs(rule.surface_weights.sum() - c * math.sqrt(2)) <= 1e-13
    assert_allclose(
        rule.surface_normals,
        np.broadcast_to(np.array([1.0, 1.0]) / math.sqrt(2), rule.surface_normals.shape),
        atol=1e-13,
    )
    check_rule_invariants(rule, phi, [0.0, 0.0], [1.0, 1.0])


def test_tilted_plane_simplex_exact_3d():
    c = 0.6
    q = 3
    phi = HalfSpaceLevelSet([1.0, 1.0, 1.0], c)  # inside x + y + z < c
    rule = cut_cell_quadrature([0.0] * 3, [1.0] * 3, phi, q)
    # the height reduction adds one polynomial degree per recursion level, so
    # a tilted plane in 3D is exact for total degree <= 2q - 3
    for exps in [(0, 0, 0), (1, 1, 1), (2, 1, 0), (0, 0, 3), (3, 0, 0), (0, 2, 1)]:
        approx = (
            rule.interior_weights
            * np.prod(rule.interior_points ** np.asarray(exps), axis=1)
        ).sum()
        exact = simplex_monomial_integral(exps, c)
        assert abs(approx - exact) <= 1e-12 * abs(exact)
    assert abs(rule.surface_weights.sum() - c * c * math.sqrt(3) / 2) <= 1e-12


@pytest.mark.parametrize("q", [2, 3, 4])
def test_plane_through_cube_two_restrictions_exact(q):
    # x + y + z = 1.5 crosses the bottom and the top face of the unit cube
    # for every height axis, so each reduction level carries two restrictions
    # with roots; the volume below is a half cube cut by a hexagon
    phi = HalfSpaceLevelSet([1.0, 1.0, 1.0], 1.5)
    rule = cut_cell_quadrature([0.0] * 3, [1.0] * 3, phi, q)
    assert rule.fallback_count == 0
    assert abs(rule.interior_weights.sum() - 0.5) <= 1e-13
    assert abs(rule.surface_weights.sum() - 3 * math.sqrt(3) / 4) <= 1e-13
    moments = rule.interior_weights @ rule.interior_points
    assert_allclose(moments, 35 / 192, rtol=0, atol=1e-13)
    check_rule_invariants(rule, phi, [0.0] * 3, [1.0] * 3)
    # both faces have a root at the same place on some lines: merged once
    assert (rule.interior_weights > 0).all() and (rule.surface_weights > 0).all()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_face_roots_on_one_line_are_sorted(q):
    # on the flat box [0, 1] x [0, 0.1] the plane x + 2y = 0.5 meets the
    # bottom face at x = 0.5 and the top face at x = 0.3: one base line
    # carries both roots, and only pieces split between them in order are
    # exact for the kinked height function
    phi = HalfSpaceLevelSet([1.0, 2.0], 0.5)
    rule = cut_cell_quadrature([0.0, 0.0], [1.0, 0.1], phi, q)
    assert abs(rule.interior_weights.sum() - 0.04) <= 1e-14
    assert abs(rule.surface_weights.sum() - math.sqrt(0.05)) <= 1e-14
    assert_allclose(rule.interior_weights @ rule.interior_points, [49 / 6000, 11 / 6000], rtol=0, atol=1e-14)
    check_rule_invariants(rule, phi, [0.0, 0.0], [1.0, 0.1])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_three_face_roots_in_one_scan_piece_are_all_found(q):
    # the bottom face of the unit square carries three roots of phi inside
    # one of the q+3 pieces of the first sign scan, one in each of three
    # pieces of the next scan; a bracket that kept one root of the three put
    # Gauss pieces across two kinks of the height function max(c, 0)
    w = 1.0 / (q + 3)
    roots = w + (np.arange(3) + 0.5) * w / (q + 3)
    phi = CubicGraphLevelSet(roots)
    rule = cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], phi, q)
    C = phi.c.integ()
    exact = 1.0 - (C(roots[1]) - C(roots[0])) - (C(1.0) - C(roots[2]))
    assert abs(rule.interior_weights.sum() - exact) <= 1e-14
    # q base lines in each of the two pieces where the interface is a graph over the face
    assert rule.surface_weights.shape == (2 * q,)
    check_rule_invariants(rule, phi, [0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [0.3, 0.4142135, 0.777])
def test_no_root_is_lost_when_a_reread_rounds_differently(q, c):
    # near the root a bracket end reads with the opposite sign at another
    # place in a block; deciding its sign on a second read dropped the
    # bracket, and with it every root of the line
    rule = cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], BlockRoundingLevelSet(c), q)
    assert rule.surface_weights.shape == (q,)
    assert abs(rule.surface_weights.sum() - 1.0) <= 1e-14
    assert abs(rule.interior_weights.sum() - (1.0 - c)) <= 1e-12


# Sign decisions rest on samples, so these cases lose area today with no
# error and no fallback; range bounds of the level set would certify them.


@pytest.mark.xfail(strict=True, reason="two of three close face roots fall in one scan piece and are lost")
def test_three_close_roots_of_a_cubic_face_are_all_found():
    # phi = y - (x - 0.5)(x - 0.51)(x - 0.52): q = 2 misses 2.5e-9 of the area
    roots = [0.5, 0.51, 0.52]
    phi = CubicGraphLevelSet(roots)
    rule = cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], phi, 2)
    C = phi.c.integ()
    exact = 1.0 - (C(roots[1]) - C(roots[0])) - (C(1.0) - C(roots[2]))
    assert abs(rule.interior_weights.sum() - exact) <= 1e-14


@pytest.mark.xfail(strict=True, reason="every sample misses the cap, so its area is lost")
def test_a_shallow_cap_keeps_its_area():
    # the disk of radius 0.1 about (0.4, -0.09) reaches 0.01 into the unit
    # square: a circular segment of area 5.873e-4, which q = 2 makes 0; two
    # Gauss points on the segment's exact chord are 0.7 % off
    r, h = 0.1, 0.01
    exact = r * r * math.acos((r - h) / r) - (r - h) * math.sqrt(2 * r * h - h * h)
    rule = cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], SphereLevelSet([0.4, -0.09], r), 2)
    assert abs(rule.interior_weights.sum() - exact) <= 2e-2 * exact


# ---------------------------------------------------------------------------
# curved interfaces: circle and sphere


def test_circle_segment_cell_area():
    phi = SphereLevelSet([0.0, 0.0], 1.0)
    # cell crossed by the unit circle; closed form from the antiderivative
    rule = cut_cell_quadrature([0.6, 0.0], [1.2, 0.6], phi, 5)
    exact = circle_box_area(0.6, 1.2, 0.0, 0.6)
    assert abs(rule.interior_weights.sum() - exact) <= 1e-8
    # cell entirely inside the disk: plain Gauss, no surface part
    rule = cut_cell_quadrature([0.0, 0.0], [0.6, 0.6], phi, 5)
    assert abs(rule.interior_weights.sum() - circle_box_area(0.0, 0.6, 0.0, 0.6)) <= 1e-14
    assert rule.surface_points.shape == (0, 2)


def test_circle_measures_12x12():
    volume, surface, flux = domain_measures(2, 12, 5)
    assert abs(volume - math.pi) <= 1e-8
    assert abs(surface - 2 * math.pi) <= 1e-8
    # divergence theorem: flux of F = x/2 through the boundary equals the area
    assert abs(flux - volume) <= 1e-6 * volume


def test_sphere_measures_6x6x6():
    volume, surface, flux = domain_measures(3, 6, 5)
    assert abs(volume - 4 * math.pi / 3) <= 1e-5
    assert abs(surface - 4 * math.pi) <= 1e-4
    assert abs(flux - volume) <= 1e-5 * volume


def test_circle_measure_convergence_order_q3():
    cells = [6, 12, 24]
    vol_errors, surf_errors = [], []
    for n in cells:
        volume, surface, _ = domain_measures(2, n, 3)
        vol_errors.append(abs(volume - math.pi))
        surf_errors.append(abs(surface - 2 * math.pi))
    log_h = np.log(1.0 / np.asarray(cells, dtype=float))
    vol_order = np.polyfit(log_h, np.log(vol_errors), 1)[0]
    surf_order = np.polyfit(log_h, np.log(surf_errors), 1)[0]
    assert vol_order >= 4.0
    assert surf_order >= 4.0


@pytest.mark.parametrize("dim, cells", [(2, 24), (3, 8)])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_surface_points_are_roots_to_rounding(dim, cells, q):
    # the root finder stops once a root is bracketed to 2^-48 of the line
    # or to a few ulps of its coordinate, at every rule order
    mesh = box_mesh([-1.26] * dim, [1.26] * dim, [cells] * dim)
    phi = SphereLevelSet([0.0123, -0.0311, 0.0207][:dim], 1.0)  # off the grid lines
    worst = 0.0
    for cell in classify_cells(mesh, phi, sign_samples(q)).cells_with(Label.CUT):
        lo, hi = mesh.cell_box(mesh.cell_multi(int(cell)))
        rule = cut_cell_quadrature(lo, hi, phi, q)
        if rule.surface_points.size:
            worst = max(worst, np.abs(phi.value(rule.surface_points)).max())
    assert worst <= 1e-14 * mesh.spacing[0]


def test_two_disk_union_area_16x16():
    # two disks of radius r with centers c apart: the union's area is twice
    # the disk minus the lens, and the interface has two kinks
    r, c, q = 0.6, 0.5, 3
    phi = BallUnionLevelSet([[-c / 2, 0.0], [c / 2, 0.0]], [r, r])
    mesh = box_mesh([-1.26] * 2, [1.26] * 2, [16, 16])
    classification = classify_cells(mesh, phi, q + 1)
    area = classification.count(Label.INSIDE) * math.prod(mesh.spacing)
    for cell in classification.cells_with(Label.CUT):
        lo, hi = mesh.cell_box(mesh.cell_multi(int(cell)))
        rule = cut_cell_quadrature(lo, hi, phi, q)
        check_rule_invariants(rule, phi, lo, hi)
        assert rule.fallback_count == 0
        area += rule.interior_weights.sum()
    lens = 2 * r**2 * math.acos(c / (2 * r)) - (c / 2) * math.sqrt(4 * r**2 - c**2)
    assert abs(area - (2 * math.pi * r**2 - lens)) <= 1e-6


# ---------------------------------------------------------------------------
# subdivision fallback and validation


def test_saddle_triggers_fallback_counter():
    rule = cut_cell_quadrature([-1.0, -1.0], [1.0, 1.0], SaddleLevelSet(), 2, max_depth=2)
    assert rule.fallback_count > 0
    # {x*y > 0} covers the two diagonal quadrants: area 2 despite the fallback
    assert abs(rule.interior_weights.sum() - 2.0) <= 1e-12


def test_smooth_cut_has_no_fallback():
    phi = SphereLevelSet([0.0, 0.0], 1.0)
    rule = cut_cell_quadrature([0.6, 0.0], [1.2, 0.6], phi, 3)
    assert rule.fallback_count == 0


@pytest.mark.parametrize(
    "center, radius, q",
    [
        ((0.7, 0.7), 0.03, 3),  # between the samples: the rule lost half its area
        ((0.6, 0.6), 0.05, 2),  # on a corner: thousands of fallbacks
    ],
)
def test_non_finite_level_set_raises(center, radius, q):
    with pytest.raises(QuadratureError, match="not finite at"):
        cut_cell_quadrature([0.6, 0.6], [0.8, 0.8], HoledCircleLevelSet(center, radius), q)


def test_level_set_of_wrong_shape_raises():
    # a scalar value used to read as a box fully inside
    with pytest.raises(QuadratureError, match=r"value has shape \(\)"):
        cut_cell_quadrature([0.6, 0.6], [0.8, 0.8], ScalarLevelSet(), 3)


def test_validation_errors():
    phi = HalfSpaceLevelSet([1.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], phi, 0)
    with pytest.raises(ValueError):
        cut_cell_quadrature([0.0, 0.0], [1.0, 1.0], phi, 3, max_depth=-1)
    with pytest.raises(ValueError):
        cut_cell_quadrature([0.0, 0.0], [0.0, 1.0], phi, 3)
    with pytest.raises(ValueError):
        cut_cell_quadrature([0.0, 0.0, 0.0], [1.0, 1.0], phi, 3)


# ---------------------------------------------------------------------------
# a stack of boxes in one call against the per-cell recursion


RULE_FIELDS = ("interior_points", "interior_weights", "surface_points", "surface_weights", "surface_normals")
BOX_FIELDS = ("fallbacks", "interior_box", "surface_box")


def assert_same_rule(got: CutCellQuadrature, ref: CutCellQuadrature, where=""):
    for name in RULE_FIELDS + BOX_FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and np.array_equal(a, b), f"{where} {name}"
    assert got.fallback_count == ref.fallback_count, where


def oracle_fixture(name):
    """(mesh, level set) of the batched-rule fixtures."""
    box = lambda d, n: box_mesh([-1.26] * d, [1.26] * d, [n] * d)  # noqa: E731
    if name == "disk48":
        return box(2, 48), SphereLevelSet([0.0123, -0.0311], 1.0)
    if name == "sphere12":
        return box(3, 12), SphereLevelSet([0.0123, -0.0311, 0.0207], 1.0)
    if name == "fourball24":
        return box(2, 24), BallUnionLevelSet(*generate_balls(4, 1, [-1.26] * 2, [1.26] * 2, r0=2.0))
    if name == "multiball6":
        # the multiball3d benchmark geometry: three balls shifted off the mesh lines
        mesh = box(3, 6)
        centers, radii = generate_balls(3, 0, [-1.26] * 3, [1.26] * 3, r0=2.0)
        shift = np.random.default_rng([0, 3, 3]).uniform(-0.5, 0.5, size=3) * np.asarray(mesh.spacing)
        return mesh, BallUnionLevelSet(centers + shift, radii)
    return box(3, 8), HalfSpaceLevelSet([0.3, -0.5, 0.8], 0.1)  # tilted8


ORACLE_CASES = (
    [(name, q, 2) for name in ("disk48", "sphere12", "tilted8") for q in (1, 2, 3, 4)]
    + [(name, q, depth) for name in ("fourball24", "multiball6") for q in (1, 2, 3, 4) for depth in (0, 2)]
    + [(name, q, 4) for name in ("fourball24", "multiball6") for q in (1, 4)]
)


@pytest.mark.parametrize("name, q, max_depth", ORACLE_CASES)
def test_batched_rules_equal_the_per_cell_recursion(name, q, max_depth):
    # smooth interfaces never subdivide, so only the unions vary the depth
    mesh, phi = oracle_fixture(name)
    cells = classify_cells(mesh, phi, sign_samples(q)).cells_with(Label.CUT)
    lo, hi = mesh.cell_box(mesh.cell_multi(cells))
    rules = cut_cell_quadrature(lo, hi, phi, q, max_depth)
    assert isinstance(rules, CutCellQuadrature) and len(rules.fallbacks) == len(cells)
    assert (np.diff(rules.interior_box) >= 0).all() and (np.diff(rules.surface_box) >= 0).all()
    for i in range(len(cells)):
        assert_same_rule(rules.box(i), per_cell_cut_quadrature(lo[i], hi[i], phi, q, max_depth), f"box {i}")


def test_batch_of_one_box_equals_the_single_box_call():
    phi = SphereLevelSet([0.0, 0.0], 1.0)
    lo, hi = np.array([0.6, 0.0]), np.array([1.2, 0.6])
    rule = cut_cell_quadrature(lo[None], hi[None], phi, 3)
    assert_same_rule(rule, cut_cell_quadrature(lo, hi, phi, 3))
    assert_same_rule(rule, per_cell_cut_quadrature(lo, hi, phi, 3))
    assert_same_rule(rule.box(0), rule)


def test_one_batch_mixes_whole_reduced_subdivided_and_fallback_boxes():
    # multiball6 cells in an unsorted order: a kink cell that falls back at
    # depth 1, an inside cell, a kink cell that one subdivision resolves, an
    # outside cell and a smooth cut cell
    mesh, phi = oracle_fixture("multiball6")
    cells = np.array([85, 50, 14, 0, 2])
    lo, hi = mesh.cell_box(mesh.cell_multi(cells))
    rules = cut_cell_quadrature(lo, hi, phi, 3, max_depth=1)
    for i in range(len(cells)):
        assert_same_rule(rules.box(i), per_cell_cut_quadrature(lo[i], hi[i], phi, 3, max_depth=1), f"box {i}")
    fallback, whole, subdivided, empty, reduced = map(rules.box, range(len(cells)))
    assert rules.fallback_count == fallback.fallback_count
    assert fallback.fallback_count > 0
    assert whole.surface_weights.size == 0 and abs(whole.interior_weights.sum() - np.prod(mesh.spacing)) <= 1e-15
    assert subdivided.fallback_count == 0 and cut_cell_quadrature(lo[2], hi[2], phi, 3, max_depth=0).fallback_count
    assert all(getattr(empty, name).size == 0 for name in RULE_FIELDS)
    assert reduced.fallback_count == 0 and reduced.surface_weights.size > 0


def count_reads(monkeypatch):
    """A list that gets one entry per call of ``cutquad._eval``."""
    reads = []
    read = cutquad._eval
    monkeypatch.setattr(cutquad, "_eval", lambda *args, **kwargs: reads.append(1) or read(*args, **kwargs))
    return reads


def test_level_set_reads_do_not_grow_with_the_number_of_boxes(monkeypatch):
    # translates of one unit cube along a direction in the plane x + y + z =
    # 1.5 cut alike: two restrictions with roots at every reduction level
    reads = count_reads(monkeypatch)
    phi = HalfSpaceLevelSet([1.0, 1.0, 1.0], 1.5)
    counts = []
    for n in (4, 40, 400):
        lo = np.arange(n)[:, None] * np.array([1.0, -1.0, 0.0])
        reads.clear()
        rules = cut_cell_quadrature(lo, lo + 1.0, phi, 3)
        assert all(abs(rules.box(i).interior_weights.sum() - 0.5) <= 1e-13 for i in range(n))
        counts.append(len(reads))
    assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize("name, q, max_depth, max_reads",
                         [("multiball6", 2, 2, 114), ("multiball6", 3, 2, 105), ("disk48", 3, 8, 22),
                          ("multiball6", 2, 2, 48)])
def test_one_call_reads_the_level_set_half_as_often_as_fixed_scans(monkeypatch, name, q, max_depth, max_reads):
    # multiball3d's and disk2d's cut cells; a fixed 20-22 sign scans per
    # bracket read the level set 228, 210 and 45 times
    mesh, phi = oracle_fixture(name)
    cells = classify_cells(mesh, phi, sign_samples(q)).cells_with(Label.CUT)
    lo, hi = mesh.cell_box(mesh.cell_multi(cells))
    reads = count_reads(monkeypatch)
    cut_cell_quadrature(lo, hi, phi, q, max_depth)
    assert len(reads) <= max_reads


def cut_boxes(name, q):
    """Corners of the cut cells of an oracle fixture, and its level set."""
    mesh, phi = oracle_fixture(name)
    cells = classify_cells(mesh, phi, sign_samples(q)).cells_with(Label.CUT)
    return (*mesh.cell_box(mesh.cell_multi(cells)), phi)


@pytest.mark.parametrize("name, q", [("multiball6", 2), ("multiball6", 3), ("fourball24", 2)])
def test_each_extra_depth_adds_one_pass_of_reads(monkeypatch, name, q):
    # a depth adds one pass: its sign samples and two reads per level above
    # the last; the bottom-up reads run once over the boxes of every depth,
    # and only the Brent steps of the new boxes' brackets can add to them
    lo, hi, phi = cut_boxes(name, q)
    reads = count_reads(monkeypatch)
    inner = []
    bottom_up = cutquad._bottom_up

    def spy(*args):
        start = len(reads)
        rules = bottom_up(*args)
        inner.append(len(reads) - start)
        return rules

    monkeypatch.setattr(cutquad, "_bottom_up", spy)
    passes, bottom = [], []
    for max_depth in range(5):
        reads.clear()
        inner.clear()
        cut_cell_quadrature(lo, hi, phi, q, max_depth)
        passes.append(len(reads) - sum(inner))
        bottom.append(sum(inner))
    d = lo.shape[1]
    assert (np.diff(passes) == 2 * d - 1).all(), passes
    assert (np.diff(bottom) <= 2).all(), bottom


@pytest.mark.parametrize("chunk", [1, 7, 50])
@pytest.mark.parametrize("name, q", [(name, q) for name in ("multiball6", "fourball24") for q in (1, 2, 4)])
def test_chunk_boundaries_keep_the_bits(monkeypatch, name, q, chunk):
    # every bottom-up step is per row, bracket or line, so the rules do not
    # depend on which boxes share a bottom-up call
    lo, hi, phi = cut_boxes(name, q)
    ref = cut_cell_quadrature(lo, hi, phi, q, 4)
    sizes = []
    bottom_up = cutquad._bottom_up
    monkeypatch.setattr(cutquad, "_CELL_CHUNK", chunk)
    monkeypatch.setattr(cutquad, "_bottom_up", lambda lo, *args: sizes.append(len(lo)) or bottom_up(lo, *args))
    assert_same_rule(cut_cell_quadrature(lo, hi, phi, q, 4), ref, f"chunk {chunk}")
    assert len(sizes) > 1 and max(sizes) <= chunk


def two_disk_kink():
    """The union of two unequal disks and the corner P where their circles
    cross, with both circles' x-normals positive at P."""
    c1, r1, c2, r2 = np.array([0.0, -0.3]), 0.6, np.array([0.05, 0.35]), 0.5
    d = np.linalg.norm(c2 - c1)
    a = (r1**2 - r2**2 + d**2) / (2 * d)
    corner = c1 + (a * (c2 - c1) + math.sqrt(r1**2 - a**2) * np.array([c2[1] - c1[1], c1[0] - c2[0]])) / d
    return BallUnionLevelSet([c1, c2], [r1, r2]), corner


def edge_case(name):
    """(lo, hi, level set, h) of a root-finding edge case, at q = 3."""
    if name == "scan point":
        # roots that sit on scan points up to the rounding of the translates
        lo = np.arange(400)[:, None] * np.array([1.0, -1.0, 0.0])
        return lo, lo + 1.0, HalfSpaceLevelSet([1.0, 1.0, 1.0], 1.5), 1.0
    if name == "kink":
        # the midpoint Gauss line of the cell crosses the interface at the
        # corner P, where the level set along the line has a kink
        phi, corner = two_disk_kink()
        return corner - [0.037, 0.05], corner + [0.063, 0.05], phi, 0.1
    # near x = 1e3: 2^-48 of the span is below the coordinates' ulp
    return np.array([1000.99, 0.0]), np.array([1001.04, 0.05]), SphereLevelSet([1000.0123, -0.0311], 1.0), 0.05


@pytest.mark.parametrize("name", ["scan point", "kink", "far"])
def test_roots_converge_at_the_edge_cases_in_few_reads(monkeypatch, name):
    # fixed sign scans read 50, 25 and 26 times here; the roots are good to
    # 1e-14 h or, where the coordinates are large, to about their ulp
    lo, hi, phi, h = edge_case(name)
    reads = count_reads(monkeypatch)
    rules = cut_cell_quadrature(lo, hi, phi, 3)
    assert len(reads) <= 20
    assert rules.fallback_count == 0 and rules.surface_weights.size
    x = rules.surface_points
    slope = np.linalg.norm(phi.gradient(x), axis=-1)
    assert (np.abs(phi.value(x)) <= 1e-14 * h + 2 * np.spacing(np.abs(x).max(axis=-1)) * slope).all()
    if name == "kink":
        assert np.linalg.norm(x - two_disk_kink()[1], axis=-1).min() <= 1e-15


class JumpLevelSet:
    """phi(x, y) = +-1 + 0.1 (c - x), the sign by the side of x = c: a sign
    change with no root."""

    def __init__(self, c):
        self.c = c

    def value(self, x):
        x = np.asarray(x, dtype=float)[..., 0]
        return np.where(x < self.c, 1.0, -1.0) + 0.1 * (self.c - x)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.full(x.shape[:-1], -0.1), np.zeros(x.shape[:-1])], axis=-1)


def test_a_jump_in_a_bracket_fails_loudly_and_names_its_box():
    # the jump is in box 1 of three: the root finder closes in on it, and
    # phi there is +-1, not a root
    lo = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    with pytest.raises(QuadratureError, match="root finding did not converge") as err:
        cut_cell_quadrature(lo, lo + 1.0, JumpLevelSet(2.37), 3)
    assert err.value.box == 1


# ---------------------------------------------------------------------------
# CSV debug dump


def test_dump_quadrature_csv(tmp_path):
    phi = SphereLevelSet([0.0, 0.0], 1.0)
    rules = {
        5: cut_cell_quadrature([0.6, 0.0], [1.2, 0.6], phi, 2),
        9: cut_cell_quadrature([0.0, 0.0], [0.5, 0.5], phi, 2),
    }
    path = tmp_path / "rules.csv"
    dump_quadrature_csv(path, rules)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cell_index,kind,x,y,w,nx,ny"
    n_expected = sum(
        len(r.interior_weights) + len(r.surface_weights) for r in rules.values()
    )
    assert len(lines) - 1 == n_expected
    for line in lines[1:]:
        cell, kind, x, y, w, nx, ny = line.split(",")
        assert int(cell) in rules
        assert kind in ("I", "S")
        if kind == "I":
            assert nx == "" and ny == ""
        else:
            assert abs(float(nx) ** 2 + float(ny) ** 2 - 1.0) <= 1e-12
    # weights written with full round-trip precision
    first_interior = lines[1].split(",")
    assert float(first_interior[4]) == rules[5].interior_weights[0]


# ---------------------------------------------------------------------------
# the operator context's point blocks against the per-cell recursion


@pytest.mark.parametrize("name, degree, max_depth", [("disk48", 2, 8), ("multiball6", 1, 2)])
def test_point_blocks_are_the_per_cell_rules_in_cut_cell_order(name, degree, max_depth):
    # disk2d's and multiball3d's discretizations of the fixtures, at the
    # quadrature order and at the error order
    mesh, phi = oracle_fixture(name)
    ctx = build_context(mesh, phi, Parameters(degree=degree, max_quad_depth=max_depth))
    order, error_order = ctx.params.quad_order, degree + 2
    errors = operators._cut_rules(mesh, phi, ctx.cut_cells, error_order, max_depth)  # as squared_l2_error builds them
    lo, hi = mesh.cell_box(mesh.cell_multi(ctx.cut_cells))
    refs = {q: [per_cell_cut_quadrature(lo[j], hi[j], phi, q, max_depth) for j in range(len(lo))]
            for q in (order, error_order)}
    blocks = [(order, "interior", ctx.volume), (order, "surface", ctx.surface),
              (error_order, "interior", operators.PointBlock(errors.interior_points, errors.interior_weights,
                                                             errors.interior_box))]
    for q, kind, blk in blocks:
        ref = refs[q]
        expected = {
            "points": np.concatenate([getattr(r, f"{kind}_points") for r in ref]),
            "weights": np.concatenate([getattr(r, f"{kind}_weights") for r in ref]),
            "cell": np.repeat(np.arange(len(ref)), [len(getattr(r, f"{kind}_weights")) for r in ref]),
        }
        if kind == "surface":
            expected["normals"] = np.concatenate([r.surface_normals for r in ref])
        for key, value in expected.items():
            got = getattr(blk, key)
            assert got.shape == value.shape and np.array_equal(got, value), f"q={q} {kind} {key}"
    assert ctx.fallback_count == sum(r.fallback_count for r in refs[order])

    # the per-cell view serves the same arrays; no field holds per-cell rules
    views = ctx.cut_rules
    assert list(views) == ctx.cut_cells.tolist()
    for j, c in enumerate(ctx.cut_cells.tolist()):
        for field in RULE_FIELDS:
            assert np.array_equal(getattr(views[c], field), getattr(refs[order][j], field)), f"cell {c} {field}"
        assert views[c].fallbacks.tolist() == [refs[order][j].fallback_count], f"cell {c} fallbacks"
    for f in dataclasses.fields(ctx):
        value = getattr(ctx, f.name)
        held = value.values() if isinstance(value, dict) else [value]
        assert not any(isinstance(v, CutCellQuadrature) for v in held), f.name


def test_cut_rule_views_keep_the_per_cell_fallback_counts():
    # multiball3d's inputs (6^3, k = 1, depth 2): 25 sign-of-center
    # fallbacks at the kinks, which each cell's view counts as the batched
    # rules do
    mesh, phi = oracle_fixture("multiball6")
    ctx = build_context(mesh, phi, Parameters(degree=1, max_quad_depth=2))
    lo, hi = mesh.cell_box(mesh.cell_multi(ctx.cut_cells))
    direct = cutquad.cut_cell_quadrature(lo, hi, phi, ctx.params.quad_order, 2)
    counts = np.array([view.fallbacks[0] for view in ctx.cut_rules.values()])
    assert ctx.fallback_count == 25 and isinstance(ctx.fallback_count, int)
    assert counts.sum() == ctx.fallback_count and np.array_equal(counts, direct.fallbacks)


def test_classification_samples_signs_as_the_cut_rules_do():
    # build_context labels cells with sign_samples(quad_order) samples per
    # axis, as the cut rules test each box, so k = 1 at quad_order 4 has the
    # labels, faces and rules of k = 3; with k + 2 = 3 samples per axis the
    # small ball falls between the samples of one of its cells
    assert [sign_samples(q) for q in (1, 2, 3, 4)] == [3, 3, 4, 5]
    mesh = box_mesh([-2, -2], [2, 2], [8, 8])
    phi = BallUnionLevelSet([[-0.6, -0.6], [0.625, 0.625]], [1.0, 0.06])
    assert classify_cells(mesh, phi, 3).count(Label.CUT) == 16
    low, high = (build_context(mesh, phi, p) for p in (Parameters(degree=1, quad_order=4), Parameters(degree=3)))
    assert len(high.cut_cells) == 17
    assert np.array_equal(low.classification.labels, high.classification.labels)
    assert np.array_equal(low.cut_cells, high.cut_cells) and np.array_equal(low.faces, high.faces)
    for blk in ("volume", "surface"):
        for f in dataclasses.fields(operators.PointBlock):
            assert np.array_equal(getattr(getattr(low, blk), f.name), getattr(getattr(high, blk), f.name)), blk
    assert np.array_equal(low.fallbacks, high.fallbacks)
