"""Conjugate gradients, L2 error evaluation, and the manufactured problems."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfcutfem import cutquad
from mfcutfem.geometry import SphereLevelSet, box_mesh
from mfcutfem.operators import Parameters, assemble_rhs, build_context, vmult
from oracles import textbook_cg

from mfcutfem.solver import (
    SolveReport,
    cg_solve,
    l2_error,
    manufactured_problem,
    radial_cosine_problem,
)


def disk_context(dim, cells, degree, **kwargs):
    mesh = box_mesh([-1.26] * dim, [1.26] * dim, [cells] * dim)
    phi = SphereLevelSet([0.0] * dim, 1.0)
    return build_context(mesh, phi, Parameters(degree=degree, **kwargs))


# ---------------------------------------------------------------------------
# conjugate gradients


def test_cg_identity_converges_in_one_iteration(rng):
    b = rng.standard_normal(17)
    report = cg_solve(lambda v: v, b)
    assert report.converged
    assert report.stop_reason == "converged"
    assert report.iterations == 1
    assert_allclose(report.solution, b, rtol=0, atol=1e-14)


def test_cg_diagonal_finite_termination():
    diag = np.array([1.0, 2.0, 3.0])
    report = cg_solve(lambda v: diag * v, np.array([1.0, 2.0, 3.0]))
    assert report.converged
    assert report.iterations <= 3
    assert_allclose(report.solution, np.ones(3), atol=1e-10)


def test_cg_two_by_two_hand_solve():
    a_mat = np.array([[4.0, 1.0], [1.0, 3.0]])
    report = cg_solve(lambda v: a_mat @ v, np.array([1.0, 2.0]))
    assert report.converged
    assert_allclose(report.solution, [1.0 / 11.0, 7.0 / 11.0], rtol=0, atol=1e-12)


def test_cg_non_convergence_reports_history():
    diag = np.linspace(1.0, 1e4, 60)
    b = np.ones(60)
    report = cg_solve(lambda v: diag * v, b, max_iter=5)
    assert not report.converged
    assert report.stop_reason == "max_iter"
    assert report.iterations == 5
    assert len(report.residual_history) == report.iterations + 1
    assert report.residual_history[0] == pytest.approx(np.linalg.norm(b))
    assert report.relative_residual > 1e-8
    assert np.isfinite(report.solution).all()


def test_cg_breakdown_is_reported_apart_from_max_iter():
    # a strongly negative Nitsche penalty makes the operator indefinite: the
    # first search direction already has p . Ap <= 0
    ctx = disk_context(2, 6, 1, gamma_dirichlet=-5000.0)
    _, f = manufactured_problem(2)
    report = cg_solve(ctx, assemble_rhs(ctx, f))
    assert not report.converged
    assert report.stop_reason == "breakdown"
    assert report.iterations == 0
    assert len(report.residual_history) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cg_stops_on_a_non_finite_operator(bad):
    # a NaN or infinite p . Ap stops the solve instead of running to max_iter
    report = cg_solve(lambda v: np.full_like(v, bad), np.ones(5), max_iter=50)
    assert report.stop_reason == "breakdown"
    assert report.iterations == 0
    assert np.array_equal(report.solution, np.zeros(5))


def test_cg_residual_envelope_decreases(rng):
    m = rng.standard_normal((40, 40))
    a_mat = m @ m.T + 40 * np.eye(40)
    b = rng.standard_normal(40)
    report = cg_solve(lambda v: a_mat @ v, b, tol_rel=1e-10)
    assert report.converged
    h = np.asarray(report.residual_history)
    envelope = np.minimum.accumulate(h)
    assert (np.diff(envelope) <= 0).all()
    assert envelope[-1] < envelope[min(3, len(h) - 1)]
    assert report.relative_residual <= 1e-10


def test_cg_rejects_non_finite_rhs():
    with pytest.raises(ValueError):
        cg_solve(lambda v: v, np.array([1.0, np.nan]))


@pytest.mark.parametrize("kwargs, match", [
    ({"tol_rel": np.nan}, "tol_rel"),
    ({"tol_rel": np.inf}, "tol_rel"),
    ({"tol_rel": -1e-8}, "tol_rel"),
    ({"max_iter": -1}, "max_iter"),
], ids=["nan_tol", "inf_tol", "negative_tol", "negative_max_iter"])
def test_cg_rejects_bad_stopping_settings(kwargs, match):
    # each would otherwise run to max_iter, or return x = 0 as "max_iter"
    with pytest.raises(ValueError, match=match):
        cg_solve(lambda v: 2.0 * v, np.ones(4), **kwargs)


def test_cg_accepts_operator_context():
    ctx = disk_context(2, 6, 1)
    u_exact, f = manufactured_problem(2)
    b = assemble_rhs(ctx, f)
    report = cg_solve(ctx, b)
    assert isinstance(report, SolveReport)
    assert report.converged
    true_resid = np.linalg.norm(b - vmult(ctx, report.solution))
    assert true_resid <= 1e-7 * np.linalg.norm(b)
    assert report.wall_time >= 0.0


@pytest.mark.parametrize("case", ["dense", "disk"])
def test_cg_matches_textbook_cg_bitwise(case, rng):
    # one reduction per iteration (norm = sqrt(r . r)) and the in-place
    # direction update give the textbook algorithm's bits
    if case == "dense":
        m = rng.standard_normal((60, 60))
        a = m @ m.T + 60.0 * np.eye(60)
        apply, b = (lambda v: a @ v), rng.standard_normal(60)
    else:
        ctx = disk_context(2, 6, 2)
        apply, b = (lambda v: vmult(ctx, v)), assemble_rhs(ctx, radial_cosine_problem(2)[1])
    report = cg_solve(apply, b, tol_rel=1e-10)
    x, iterations, history = textbook_cg(apply, b, 1e-10, int(20 * np.sqrt(b.size)) + 1000)
    assert report.converged and report.iterations == iterations > 5
    assert np.array_equal(report.solution, x) and np.array_equal(report.residual_history, history)


def test_cg_rejects_a_context_with_no_cut_cell():
    # the circle holds the whole mesh: Nitsche has no boundary to act on and
    # the constants lie in the operator's kernel (CG used to stop as a
    # breakdown with an L2 error of 1.2e4)
    mesh = box_mesh([-1.26] * 2, [1.26] * 2, [4] * 2)
    ctx = build_context(mesh, SphereLevelSet([0.0, 0.0], 10.0), Parameters(degree=2))
    assert ctx.n_dofs > 0 and len(ctx.cut_cells) == 0
    b = assemble_rhs(ctx, radial_cosine_problem(2)[1])
    with pytest.raises(ValueError, match="no cut cell: Nitsche then imposes no boundary condition.*singular"):
        cg_solve(ctx, b)
    assert np.isfinite(vmult(ctx, b)).all()  # the context itself stays usable


# ---------------------------------------------------------------------------
# L2 error


def test_quadrature_failure_names_cell(monkeypatch):
    ctx = disk_context(2, 4, 1)
    first = int(ctx.cut_cells[0])

    def fail(*args, **kwargs):
        raise cutquad.QuadratureError("root finding did not converge")

    monkeypatch.setattr(cutquad, "cut_cell_quadrature", fail)
    with pytest.raises(cutquad.QuadratureError, match=f"^cell {first}: root finding"):
        build_context(ctx.mesh, ctx.levelset, ctx.params)
    with pytest.raises(cutquad.QuadratureError, match=f"^cell {first}: root finding"):
        l2_error(ctx, np.zeros(ctx.n_dofs), lambda x: np.zeros(x.shape[:-1]))


class GradientHoleLevelSet:
    """The unit circle's level set, with a NaN gradient strictly inside one
    box: the values, which classification reads, stay finite."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi
        self.circle = SphereLevelSet([0.0, 0.0], 1.0)

    def value(self, x):
        return self.circle.value(x)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        hole = ((x > self.lo) & (x < self.hi)).all(axis=-1)
        return np.where(hole[..., None], np.nan, self.circle.gradient(x))


def test_non_finite_level_set_names_its_cell_from_a_batch():
    ctx = disk_context(2, 8, 1)
    cell = int(ctx.cut_cells[len(ctx.cut_cells) // 2])
    lo, hi = ctx.mesh.cell_box(ctx.mesh.cell_multi(cell))
    margin = 1e-6 * np.asarray(ctx.mesh.spacing)  # neighbours' corners are off by rounding
    holed = GradientHoleLevelSet(lo + margin, hi - margin)
    with pytest.raises(cutquad.QuadratureError, match=f"^cell {cell}: level set gradient is not finite"):
        build_context(ctx.mesh, holed, ctx.params)
    ctx.levelset = holed  # the error-order rules are built on first use
    with pytest.raises(cutquad.QuadratureError, match=f"^cell {cell}: level set gradient is not finite"):
        l2_error(ctx, np.zeros(ctx.n_dofs), lambda x: np.zeros(x.shape[:-1]))


def test_l2_error_zero_for_interpolated_polynomial():
    ctx = disk_context(2, 6, 2)
    u_exact = lambda x: 0.3 + x[..., 0] - 0.5 * x[..., 1] + 0.2 * x[..., 0] * x[..., 1] + x[..., 1] ** 2
    u_h = np.asarray(u_exact(ctx.dofmap.dof_coordinates()), dtype=float)
    assert l2_error(ctx, u_h, u_exact) <= 1e-12


def test_l2_error_constant_offset_is_scaled_disk_area():
    ctx = disk_context(2, 12, 2)
    c = 0.37
    err = l2_error(ctx, np.full(ctx.n_dofs, c), lambda x: np.zeros(x.shape[:-1]))
    assert abs(err - c * np.sqrt(np.pi)) <= 1e-8


def test_l2_error_constant_on_sphere():
    ctx = disk_context(3, 8, 2)
    err = l2_error(ctx, np.zeros(ctx.n_dofs), lambda x: np.ones(x.shape[:-1]))
    assert abs(err - np.sqrt(4.0 * np.pi / 3.0)) <= 1e-5


def _held(ctx, skip=()):
    """(field, key, object) for every field of ctx but skip, and for each
    entry of a dict or list field: what a call may not replace or add to."""
    held = []
    for f in dataclasses.fields(ctx):
        if f.name not in skip:
            value = getattr(ctx, f.name)
            entries = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
            held += [(f.name, None, value)] + [(f.name, key, entry) for key, entry in entries]
    return held


def _same_objects(before, after):
    return len(before) == len(after) and all(a[:2] == b[:2] and a[2] is b[2] for a, b in zip(before, after))


def test_l2_error_keeps_nothing_on_the_context_and_the_actions_change_only_its_timers():
    # l2_error builds its error-order rules in the call and drops them;
    # vmult and assemble_rhs read what build_context stored and touch only
    # the timers
    ctx = disk_context(2, 6, 2)
    u_h = np.random.default_rng(3).standard_normal(ctx.n_dofs)
    u_exact = lambda x: np.cos(x[..., 0]) * x[..., 1]  # noqa: E731
    before = _held(ctx)
    first = l2_error(ctx, u_h, u_exact)
    assert _same_objects(before, _held(ctx))
    assert l2_error(ctx, u_h, u_exact) == first
    assert _same_objects(before, _held(ctx))

    before = _held(ctx, skip=("timers",))
    vmult(ctx, u_h)
    assemble_rhs(ctx, u_exact)
    assert ctx.timers["applications"] == 1
    assert _same_objects(before, _held(ctx, skip=("timers",)))


@pytest.mark.parametrize("degree", [1, 2])
def test_interpolation_error_rate(degree):
    u_exact, _ = radial_cosine_problem(2)
    errors = []
    cells = [6, 12, 24]
    for n in cells:
        ctx = disk_context(2, n, degree)
        u_h = np.asarray(u_exact(ctx.dofmap.dof_coordinates()), dtype=float)
        errors.append(l2_error(ctx, u_h, u_exact))
    rate = np.polyfit(np.log(1.0 / np.asarray(cells, dtype=float)), np.log(errors), 1)[0]
    assert rate >= degree + 0.8


# ---------------------------------------------------------------------------
# manufactured problems


def test_manufactured_problem_values(rng):
    for d in (2, 3):
        u_exact, f = manufactured_problem(d)
        assert u_exact(np.zeros(d)) == pytest.approx(2.0 / d)
        x = rng.standard_normal((20, d))
        assert_allclose(f(x), 4.0)
        bdry = rng.standard_normal((20, d))
        bdry /= np.linalg.norm(bdry, axis=1, keepdims=True)
        assert_allclose(u_exact(bdry), 0.0, atol=1e-14)


def test_manufactured_problem_rejects_bad_dimension():
    with pytest.raises(ValueError):
        manufactured_problem(4)


def test_radial_cosine_problem_consistent(rng):
    for d in (2, 3):
        u_exact, f = radial_cosine_problem(d)
        assert u_exact(np.zeros(d)) == pytest.approx(1.0)
        bdry = rng.standard_normal((10, d))
        bdry /= np.linalg.norm(bdry, axis=1, keepdims=True)
        assert_allclose(u_exact(bdry), 0.0, atol=1e-14)
        # f agrees with -laplacian(u) by central differences
        pts = 0.4 * rng.standard_normal((10, d))
        h = 1e-5
        lap = np.zeros(10)
        for a in range(d):
            e = np.zeros(d)
            e[a] = h
            lap += (u_exact(pts + e) - 2.0 * u_exact(pts) + u_exact(pts - e)) / h**2
        assert_allclose(f(pts), -lap, atol=1e-4)


def test_solve_reduces_l2_error_under_refinement():
    u_exact, f = manufactured_problem(2)
    errors = []
    for n in (6, 12):
        ctx = disk_context(2, n, 1)
        report = cg_solve(ctx, assemble_rhs(ctx, f))
        assert report.converged
        errors.append(l2_error(ctx, report.solution, u_exact))
    assert errors[1] < errors[0] / 2.5
