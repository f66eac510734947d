"""Matrix-free operator application against independently assembled matrices."""

import dataclasses
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose

from mfcutfem import cutquad, operators, sumfac
from mfcutfem.geometry import BallUnionLevelSet, HalfSpaceLevelSet, Label, SphereLevelSet, box_mesh, generate_balls
from mfcutfem.operators import (
    OperatorContext,
    Parameters,
    apply_ghost_penalty,
    assemble_rhs,
    breakdown_report,
    build_context,
    cut_apply,
    cut_block,
    ghost_face_apply,
    reset_timers,
    squared_l2_error,
    tabulate,
    vmult,
)
from mfcutfem.sumfac import TensorField, cell_laplacian_kernel, madd_count, reset_madd_count
from mfcutfem.tensor1d import build_reference_element

from oracles import (
    dense_cut_nitsche,
    dense_cut_volume,
    dense_kron,
    dense_operator_matrix,
    ghost_matrix,
    mass_matrix,
    monomials_up_to,
    point_first_block_tables,
    point_first_evaluate,
    point_first_integrate,
    point_first_nitsche,
    point_first_tables,
    point_first_volume,
    probe_matrix,
    tensor_basis_eval,
)


def disk_context(dim, cells, degree, **kwargs):
    mesh = box_mesh([-1.26] * dim, [1.26] * dim, [cells] * dim)
    phi = SphereLevelSet([0.0] * dim, 1.0)
    return build_context(mesh, phi, Parameters(degree=degree, **kwargs))


# ---------------------------------------------------------------------------
# parameters


def test_parameter_defaults():
    p = Parameters(degree=2)
    assert p.gamma_dirichlet == 30.0 * 2 * 3
    assert p.gamma_ghost == 0.5
    assert p.quad_order == 3


def test_parameter_overrides_kept():
    p = Parameters(degree=1, gamma_dirichlet=7.0, quad_order=5)
    assert p.gamma_dirichlet == 7.0
    assert p.quad_order == 5


def test_parameter_validation():
    with pytest.raises(ValueError):
        Parameters(degree=0)
    for bad in (dict(gamma_ghost=-0.1), dict(quad_order=0), dict(max_quad_depth=-1),
                dict(gamma_ghost=np.nan), dict(gamma_ghost=np.inf), dict(gamma_dirichlet=np.nan),
                dict(gamma_dirichlet=-np.inf)):
        with pytest.raises(ValueError):
            Parameters(degree=2, **bad)
    # a non-integer degree, order or depth is rejected by name at construction
    for bad in (dict(degree=2.5), dict(quad_order=2.5), dict(max_quad_depth=1.5)):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be an integer"):
            Parameters(**{"degree": 2, **bad})
    p = Parameters(degree=np.int64(2), quad_order=np.int32(4), max_quad_depth=np.int8(3))
    assert (p.degree, p.quad_order, p.max_quad_depth) == (2, 4, 3)


# ---------------------------------------------------------------------------
# context construction


def test_context_structure_disk():
    ctx = disk_context(2, 4, 2)
    assert ctx.n_dofs == ctx.dofmap.n_active
    # each surface point's two rows carry the eigenvalues of its coupling
    # [[p, 1], [1, 0]], p = gamma_D / h_min times its weight: their sum is p
    # and their product -1
    lam = _rows_of(ctx.cut)[1][_surface_rows(ctx.cut, ctx.surface.cell)].reshape(-1, 2)
    p = ctx.params.gamma_dirichlet / (2.52 / 4) * ctx.surface.weights
    assert (np.abs(lam.sum(1) - p) <= 1e-15 * np.abs(lam).max(1)).all()
    assert_allclose(lam.prod(1), -1.0, rtol=1e-15)
    assert len(ctx.cut_cells) > 0
    assert ctx.fallback_count == 0
    # every cut cell owns one run of volume points, in cut-cell order
    assert (np.diff(ctx.volume.cell) >= 0).all()
    assert np.array_equal(np.unique(ctx.volume.cell), np.arange(len(ctx.cut_cells)))
    assert len(ctx.volume.cell) == len(ctx.volume.weights)
    # ghost faces only touch active cells
    labels = ctx.classification.labels
    axis, lower = ctx.faces.T
    upper = lower + np.asarray(ctx.mesh.cell_strides)[axis]
    assert (labels[lower] != Label.OUTSIDE).all() and (labels[upper] != Label.OUTSIDE).all()


@pytest.mark.parametrize("dim, cells, half, radius, empty", [
    (2, 4, 0.5, 5.0, "cut"),       # all inside: no cut cells, no faces
    (2, 2, 1.0, 1.0, "inside"),    # all cut: no inside cells
    (3, 2, 1.0, 1.0, "inside"),
], ids=["all_inside", "all_cut_2d", "all_cut_3d"])
def test_vmult_with_an_empty_piece_matches_dense_matrix(dim, cells, half, radius, empty):
    mesh = box_mesh([-half] * dim, [half] * dim, [cells] * dim)
    ctx = build_context(mesh, SphereLevelSet([0.0] * dim, radius), Parameters(degree=2))
    if empty == "cut":
        assert len(ctx.cut_cells) == 0 and len(ctx.faces) == 0 and len(ctx.inside_cells) == cells**dim
    else:
        assert len(ctx.inside_cells) == 0 and len(ctx.cut_cells) == cells**dim
    a_probe = probe_matrix(lambda v: vmult(ctx, v), ctx.n_dofs)
    a_dense = dense_operator_matrix(ctx)
    assert np.abs(a_probe - a_dense).max() <= 1e-12 * np.abs(a_dense).max()


@pytest.mark.parametrize("cells", [(6, 1), (5, 5, 1)])
def test_single_cell_layer_has_no_faces_along_it(cells):
    d = len(cells)
    mesh = box_mesh([-1.26] * (d - 1) + [-0.2], [1.26] * (d - 1) + [0.2], cells)
    ctx = build_context(mesh, SphereLevelSet([0.0] * d, 1.0), Parameters(degree=2))
    assert len(ctx.faces) and (ctx.faces[:, 0] != d - 1).all()
    assert d - 1 not in ctx.face_dofs
    a = probe_matrix(lambda v: vmult(ctx, v), ctx.n_dofs)
    assert np.isfinite(a).all()
    assert_allclose(a, a.T, rtol=0, atol=1e-12 * np.abs(a).max())


# ---------------------------------------------------------------------------
# ghost penalty: Kronecker face kernel vs dense matrix


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_ghost_face_apply_matches_dense_kron(dim, degree, rng):
    ctx = disk_context(dim, 3, degree)
    assert len(ctx.faces), "mesh must produce ghost faces"
    axis = ctx.faces[len(ctx.faces) // 2, 0]
    mats = []
    for b in range(dim):
        if b == axis:
            mats.append(ghost_matrix(ctx.elem.nodes, ctx.mesh.spacing[b]))
        else:
            mats.append(ctx.mesh.spacing[b] * mass_matrix(ctx.elem.nodes))
    dense = ctx.params.gamma_ghost * dense_kron(mats)
    ext = ctx.dofmap.patch_extents(axis)
    for _ in range(20):
        u = rng.standard_normal(dense.shape[0])
        out = ghost_face_apply(ctx, axis, TensorField(ext, u.copy()))
        expected = dense @ u
        assert np.abs(out.data - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("axis, ext", [(0, (4, 7)), (1, (7, 4)), (0, (4, 4)), (2, (4, 4))])
def test_ghost_face_apply_rejects_a_mismatched_patch(axis, ext):
    # transposed patches, a cell field, and an axis the mesh does not have
    ctx = disk_context(2, 3, 3)
    assert ctx.dofmap.patch_extents(0) == (7, 4)
    with pytest.raises(ValueError):
        ghost_face_apply(ctx, axis, TensorField(ext, np.zeros(int(np.prod(ext)))))


def test_ghost_penalty_positive_semidefinite(rng):
    for degree in (1, 2, 3):
        ctx = disk_context(2, 4, degree)
        for _ in range(100):
            u = rng.standard_normal(ctx.n_dofs)
            q = u @ apply_ghost_penalty(ctx, u)
            assert q >= -1e-12 * (u @ u)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_ghost_penalty_annihilates_low_monomials(degree, rng):
    ctx = disk_context(2, 4, degree)
    coords = ctx.dofmap.dof_coordinates()
    u_rand = rng.standard_normal(ctx.n_dofs)
    scale = np.linalg.norm(apply_ghost_penalty(ctx, u_rand)) / np.linalg.norm(u_rand)
    for exps in monomials_up_to(degree, 2):
        u = (coords ** np.asarray(exps)).prod(axis=1)
        residual = np.linalg.norm(apply_ghost_penalty(ctx, u))
        assert residual <= 1e-9 * scale * max(np.linalg.norm(u), 1.0)


def test_ghost_penalty_zero_when_disabled(rng):
    ctx = disk_context(2, 4, 2, gamma_ghost=0.0)
    u = rng.standard_normal(ctx.n_dofs)
    assert np.all(apply_ghost_penalty(ctx, u) == 0.0)


# ---------------------------------------------------------------------------
# full operator vs dense assembly


@pytest.mark.parametrize("degree", [1, 2])
def test_vmult_matches_dense_matrix_2d(degree):
    ctx = disk_context(2, 4, degree)
    a_probe = probe_matrix(lambda v: vmult(ctx, v), ctx.n_dofs)
    a_dense = dense_operator_matrix(ctx)
    scale = np.abs(a_dense).max()
    assert np.abs(a_probe - a_dense).max() <= 1e-10 * scale
    assert np.abs(a_probe - a_probe.T).max() <= 1e-10 * scale


def test_vmult_matches_dense_matrix_3d():
    ctx = disk_context(3, 3, 1)
    a_probe = probe_matrix(lambda v: vmult(ctx, v), ctx.n_dofs)
    a_dense = dense_operator_matrix(ctx)
    scale = np.abs(a_dense).max()
    assert np.abs(a_probe - a_dense).max() <= 1e-10 * scale
    assert np.abs(a_probe - a_probe.T).max() <= 1e-10 * scale


def test_vmult_linear_and_deterministic(rng):
    ctx = disk_context(2, 5, 2)
    u = rng.standard_normal(ctx.n_dofs)
    v = rng.standard_normal(ctx.n_dofs)
    w1 = vmult(ctx, 2.0 * u - 3.0 * v)
    w2 = 2.0 * vmult(ctx, u) - 3.0 * vmult(ctx, v)
    assert np.abs(w1 - w2).max() <= 1e-11 * max(np.abs(w1).max(), 1.0)
    assert np.array_equal(vmult(ctx, u), vmult(ctx, u))


@pytest.mark.parametrize("apply", [
    vmult,
    apply_ghost_penalty,
    lambda ctx, u: squared_l2_error(ctx, u, lambda x: np.zeros(x.shape[:-1])),
], ids=["vmult", "apply_ghost_penalty", "squared_l2_error"])
def test_dof_vector_of_the_wrong_length_is_rejected(apply):
    ctx = disk_context(2, 6, 1)
    assert ctx.n_dofs == 45
    with pytest.raises(ValueError, match="length 45"):
        apply(ctx, np.ones(52))


def test_vmult_on_a_mesh_with_no_active_cell():
    # the ball lies outside the mesh: no piece, no DoF, an empty result
    ctx = build_context(box_mesh([0.0, 0.0], [1.0, 1.0], [4, 4]), SphereLevelSet([5.0, 5.0], 0.5), Parameters(degree=1))
    assert ctx.n_dofs == 0 and ctx.pieces == [] and ctx.scatter_index.size == 0
    assert vmult(ctx, np.zeros(0)).shape == apply_ghost_penalty(ctx, np.zeros(0)).shape == (0,)
    assert assemble_rhs(ctx, lambda x: 1.0).shape == (0,)


def test_vmult_counts_its_sweeps():
    # one GEMM per uniform piece: m^2 per uncut cell, p(a)^2 per face of axis
    # a; the cut cells' point kernels are not counted
    ctx = disk_context(2, 5, 2)
    assert len(ctx.inside_cells) and len(ctx.cut_cells) and sorted(ctx.face_dofs) == [0, 1]
    reset_madd_count()
    vmult(ctx, np.ones(ctx.n_dofs))
    expected = sum(idx.shape[0] * idx.shape[1] ** 2 for idx in [ctx.inside_dofs, *ctx.face_dofs.values()])
    assert madd_count() == expected


# ---------------------------------------------------------------------------
# cached local matrices of the uniform pieces against their factored kernels


def _max_rel(got, ref):
    return np.abs(np.asarray(got) - ref).max() / np.abs(ref).max()


def _derivative_tables(elem, xi):
    """The (d, k+1, P) first-derivative tables per axis at xi (P, d)."""
    return np.stack([elem.table(x, 1) for x in xi.T])


@pytest.mark.parametrize("dim, cells, degree", [(2, 12, 2), (3, 6, 3), (3, 8, 1)],
                         ids=["disk_k2", "ball_k3", "coarse_ball_k1"])
def test_uniform_matrices_do_not_depend_on_the_quadrature_order(dim, cells, degree):
    # the 1D matrices take the element's exact (k+1)-point rule, so the
    # cached interior and ghost matrices keep their bits at any quad_order;
    # at k = 1, quad_order 4 is that of a k = 3 level, so a coarse Q_1 level
    # built at it has the matrices of a direct Q_1 build
    default, high = (disk_context(dim, cells, degree, quad_order=q) for q in (degree + 1, degree + 3))
    assert np.array_equal(default.interior_matrix, high.interior_matrix)
    assert sorted(default.ghost_matrices) == sorted(high.ghost_matrices) == list(range(dim))
    for a, mat in default.ghost_matrices.items():
        assert np.array_equal(mat, high.ghost_matrices[a]), a


@pytest.mark.parametrize("cells, degree", [
    ((6, 6), 1), ((6, 6), 2), ((6, 6), 3), ((5, 8), 2), ((4, 4, 4), 1), ((4, 4, 4), 2), ((3, 4, 5), 2),
], ids=["2d_k1", "2d_k2", "2d_k3", "2d_aniso_k2", "3d_k1", "3d_k2", "3d_aniso_k2"])
def test_cached_matrices_equal_their_factored_kernels(cells, degree, rng):
    d = len(cells)
    mesh = box_mesh([-1.26] * d, [1.26] * d, cells)
    ctx = build_context(mesh, SphereLevelSet([0.0] * d, 1.0), Parameters(degree=degree))
    assert len(set(ctx.mesh.spacing)) == len(set(cells))  # anisotropic meshes differ in h per axis
    u = rng.standard_normal((50, (degree + 1) ** d))
    got = sumfac.contract_axis(ctx.interior_matrix, u, 1)  # as vmult applies it
    assert _max_rel(got, cell_laplacian_kernel(ctx.elem, ctx.mesh.spacing)(u)) <= 1e-14
    assert sorted(ctx.ghost_matrices) == sorted(ctx.face_dofs) == list(range(d))
    for axis, mat in ctx.ghost_matrices.items():
        u = rng.standard_normal((50, ctx.face_dofs[axis].shape[1]))
        kernel = operators.ghost_face_kernel(ctx.elem, ctx.mesh.spacing, ctx.params.gamma_ghost, axis)
        assert _max_rel(sumfac.contract_axis(mat, u, 1), kernel(u)) <= 1e-14


def test_no_ghost_matrices_without_ghost_penalty():
    ctx = disk_context(2, 8, 2, gamma_ghost=0.0)
    assert len(ctx.face_dofs) and ctx.ghost_matrices == {}
    assert [name for name, _, _ in ctx.pieces] == ["interior", "intersected"]


def test_vmult_runs_no_factored_kernel(rng, monkeypatch):
    ctx = disk_context(2, 6, 2)
    u = rng.standard_normal(ctx.n_dofs)
    expected = vmult(ctx, u)

    def forbidden(*args, **kwargs):
        raise AssertionError("vmult ran a factored kernel")

    for module in (operators, sumfac):
        monkeypatch.setattr(module, "cell_laplacian_kernel", forbidden)
        monkeypatch.setattr(module, "kron_batch", forbidden)
    assert np.array_equal(vmult(ctx, u), expected)


def test_operator_actions_do_no_set_up_work(rng, monkeypatch):
    # the cut block, the cut rules, the pieces and the scatter index are
    # built once by build_context; vmult and the ghost penalty only read
    # them, and assemble_rhs, which tabulates its 1D tables chunk by chunk
    # by design, builds neither a block, a rule nor the pieces
    ctx = disk_context(2, 6, 2)
    u = rng.standard_normal(ctx.n_dofs)
    f = lambda x: 1.0 + x[..., 0] * x[..., 1]  # noqa: E731
    expected = vmult(ctx, u), apply_ghost_penalty(ctx, u), assemble_rhs(ctx, f)

    def forbidden(*args, **kwargs):
        raise AssertionError("an operator action redid set-up work")

    monkeypatch.setattr(cutquad, "cut_cell_quadrature", forbidden)
    for name in ("cut_block", "_pieces"):
        monkeypatch.setattr(operators, name, forbidden)
    assert np.array_equal(assemble_rhs(ctx, f), expected[2])
    for name in ("tabulate", "_tensor_rows", "cell_laplacian_kernel", "ghost_face_kernel", "_reference_coords",
                 "_chunks"):
        monkeypatch.setattr(operators, name, forbidden)
    got = vmult(ctx, u), apply_ghost_penalty(ctx, u)
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


# ---------------------------------------------------------------------------
# properties of a 3D multi-ball operator too large for the dense oracle


@pytest.fixture(scope="module")
def multiball_3d():
    centers, radii = generate_balls(3, 0, [-1.26] * 3, [1.26] * 3, r0=2.0)
    mesh = box_mesh([-1.26] * 3, [1.26] * 3, [16] * 3)
    ctx = build_context(mesh, BallUnionLevelSet(centers, radii), Parameters(degree=2, max_quad_depth=2))
    assert ctx.n_dofs > 10_000 and len(ctx.inside_cells) and len(ctx.cut_cells) and len(ctx.face_dofs) == 3
    return ctx


def test_multiball_3d_operator_symmetric_and_positive(multiball_3d):
    ctx = multiball_3d
    rng = np.random.default_rng(5)
    for _ in range(5):
        u, v = rng.standard_normal((2, ctx.n_dofs))
        au, av = vmult(ctx, u), vmult(ctx, v)
        assert abs(u @ av - v @ au) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(av)
        assert u @ au > 0 and v @ av > 0


def test_multiball_3d_ghost_penalty_annihilates_global_polynomials(multiball_3d):
    ctx = multiball_3d
    coords = ctx.dofmap.dof_coordinates()
    u_rand = np.random.default_rng(6).standard_normal(ctx.n_dofs)
    scale = np.linalg.norm(apply_ghost_penalty(ctx, u_rand)) / np.linalg.norm(u_rand)
    for exps in monomials_up_to(ctx.elem.degree, 3):
        u = (coords ** np.asarray(exps)).prod(axis=1)
        assert np.linalg.norm(apply_ghost_penalty(ctx, u)) <= 1e-9 * scale * max(np.linalg.norm(u), 1.0)


def test_multiball_3d_vmult_bitwise_repeatable(multiball_3d):
    # BLAS threads are left at their default: the ghost GEMMs are large
    # enough for a threaded BLAS to split them
    ctx = multiball_3d
    u = np.random.default_rng(7).standard_normal(ctx.n_dofs)
    first = vmult(ctx, u)
    assert all(np.array_equal(vmult(ctx, u), first) for _ in range(10))


# ---------------------------------------------------------------------------
# single cut-cell kernels


def _add_by_cell(out, blk, vals):
    """Add cut_apply's values on blk, one row of nloc values per slot, into
    out (n_cells, nloc) by the slots' cells."""
    assert vals.shape == (len(blk.cell), out.shape[1])
    np.add.at(out, blk.cell, vals)
    return out


def _rows_of(blk):
    """The cut block's rows in block order without the padding: rows
    (N, nloc), factors (N,) and cell (N,)."""
    return blk.rows[blk.real], blk.factors[blk.real], np.repeat(blk.cell, blk.real.sum(1))


def _surface_rows(blk, surface_cell):
    """Which of the rows of _rows_of(blk) are surface rows, given the cells
    of the surface points: the last two per surface point of each cell."""
    cells = _rows_of(blk)[2]
    n_rows = np.bincount(cells)
    rank = np.arange(len(cells)) - (np.cumsum(n_rows) - n_rows)[cells]
    return rank >= (n_rows - 2 * np.bincount(surface_cell, minlength=len(n_rows)))[cells]


def _spans_slots(blk, n):
    """Whether some cell's rows fill at least n slots."""
    return np.bincount(blk.cell).max(initial=0) >= n


def _assert_slot_layout(blk):
    """A cut block's slots: each cell's rows fill its slots from the front
    and only its last slot holds padding; S is the most common row count of
    a cell with rows (the smallest on a tie); and padded places hold exact
    zeros in rows and factors."""
    size = blk.factors.shape[1]
    filled = blk.real.sum(1)
    assert np.array_equal(blk.real, np.arange(size) < filled[:, None]) and filled.all()
    assert (np.diff(blk.cell) >= 0).all() and (filled[:-1][np.diff(blk.cell) == 0] == size).all()
    n_c = np.bincount(blk.cell, weights=filled).astype(int)
    assert size == np.argmax(np.bincount(n_c[n_c > 0]))
    assert not blk.rows[~blk.real].any() and not blk.factors[~blk.real].any()


def _cut_by_cell(ctx, u, volume=True, surface=True):
    """The cut piece's volume and Nitsche terms for the DoF vector u by cell,
    (n_cut, nloc), from cut_apply on ctx's cut block or, for one term alone,
    on a block that cut_block builds from ctx's points of that kind only;
    for a u that is zero outside cut cell j's DoFs, row j is that cell's own
    form."""
    blk = ctx.cut
    if not (volume and surface):
        vol, surf, mesh = ctx.volume, ctx.surface, ctx.mesh
        xi_v, xi_s = (operators._reference_coords(mesh, ctx.cut_cells, b.points, b.cell) for b in (vol, surf))
        keep = slice(None) if volume else slice(0)
        blk = cut_block(ctx.elem, mesh.spacing, (xi_v[keep], vol.weights[keep], vol.cell[keep]),
                        (xi_s, surf.weights, surf.cell, surf.normals) if surface else None,
                        ctx.params.gamma_dirichlet / min(mesh.spacing))
    return _add_by_cell(np.zeros(ctx.cut_dofs.shape), blk, cut_apply(blk, u[ctx.cut_dofs[blk.cell]]))


def test_cut_cell_apply_matches_dense_blocks(rng):
    ctx = disk_context(2, 4, 2)
    cell = int(ctx.cut_cells[0])
    rule = ctx.cut_rules[cell]
    lo, _ = ctx.mesh.cell_box(ctx.mesh.cell_multi(cell))
    nloc = (ctx.elem.degree + 1) ** 2
    vol = dense_cut_volume(
        ctx.elem.nodes, ctx.mesh.spacing, lo, rule.interior_points, rule.interior_weights
    )
    nit = dense_cut_nitsche(
        ctx.elem.nodes, ctx.mesh.spacing, lo,
        rule.surface_points, rule.surface_weights, rule.surface_normals,
        ctx.params.gamma_dirichlet / min(ctx.mesh.spacing),
    )
    for _ in range(5):
        u = rng.standard_normal(nloc)
        u_full = np.zeros(ctx.n_dofs)
        u_full[ctx.cut_dofs[0]] = u  # cell 0's row reads only these
        out_v = _cut_by_cell(ctx, u_full, surface=False)[0]
        out_s = _cut_by_cell(ctx, u_full, volume=False)[0]
        out = _cut_by_cell(ctx, u_full)[0]
        assert_allclose(out_v, vol @ u, atol=1e-12 * np.abs(vol @ u).max())
        assert_allclose(out_s, nit @ u, atol=1e-11 * max(np.abs(nit @ u).max(), 1.0))
        assert_allclose(out, out_v + out_s, atol=1e-13)


# ---------------------------------------------------------------------------
# point-last kernels against the point-first einsum pair


def _without_cut_points(ctx):
    """ctx with zero weights on its cut-cell volume points, so its
    right-hand side keeps only the uncut cells."""
    return dataclasses.replace(ctx, volume=dataclasses.replace(ctx.volume, weights=np.zeros_like(ctx.volume.weights)))


def _error_rows(ctx):
    """The rows of the cut cells' volume rules at the error order k+2, as
    squared_l2_error builds them in its call."""
    order = ctx.elem.degree + 2
    rules = operators._cut_rules(ctx.mesh, ctx.levelset, ctx.cut_cells, order, ctx.params.max_quad_depth)
    return operators.PointBlock(rules.interior_points, rules.interior_weights, rules.interior_box)


def _uncut_error(ctx, u, u_exact):
    """squared_l2_error of the uncut cells alone: the cut rules it builds
    are given zero weights."""
    build = operators._cut_rules

    def zero_weights(*args):
        rules = build(*args)
        return dataclasses.replace(rules, interior_weights=np.zeros_like(rules.interior_weights))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(operators, "_cut_rules", zero_weights)
        return squared_l2_error(ctx, u, u_exact)


def _spans_two_chunks(blk, nloc):
    """Whether some cell's points in a rules block start in one of the
    chunks the domain integrals tabulate and end in the next."""
    chunks = list(operators._chunks(blk.cell, nloc))
    return any(a[2][-1] == b[2][0] for a, b in zip(chunks, chunks[1:]))


def _cut_kernel_oracle(ctx, u_cells, volume=True, surface=True):
    vol, surf, h = ctx.volume, ctx.surface, ctx.mesh.spacing
    ref = np.zeros(u_cells.shape)
    if volume:
        ref += point_first_volume(*point_first_block_tables(ctx, vol), vol.weights, vol.cell, h, u_cells)
    if surface:
        ref += point_first_nitsche(*point_first_block_tables(ctx, surf), surf.weights, surf.normals, surf.cell, h,
                                   ctx.params.gamma_dirichlet / min(h), u_cells)
    return ref


@pytest.mark.parametrize("dim, cells, degree, chunk_points", [(2, 6, 3, 37), (3, 5, 2, 37), (3, 8, 2, None)],
                         ids=["2-6-3", "3-5-2", "3-8-2"])  # 37-point chunks, or the default chunk size
def test_point_kernels_match_the_point_first_oracle(dim, cells, degree, chunk_points, rng, monkeypatch):
    # the chunk size is set before the context is built: it bounds the cut
    # block's tabulation and, when they run, the domain integrals'
    if chunk_points is not None:
        monkeypatch.setattr(operators, "_POINT_CHUNK", chunk_points * (degree + 1) ** dim)
    ctx = disk_context(dim, cells, degree)
    assert _spans_slots(ctx.cut, 2)  # some cell's points fill two slots
    assert chunk_points is None or _spans_two_chunks(ctx.volume, (degree + 1) ** dim)

    u = rng.standard_normal(ctx.n_dofs)
    assert _max_rel(_cut_by_cell(ctx, u), _cut_kernel_oracle(ctx, u[ctx.cut_dofs])) <= 1e-14
    # vmult's one scatter of the slots' rows against each piece scattered by its cells' DoFs
    w_ref = np.zeros(ctx.n_dofs)
    for _, idx, mat in ctx.pieces:
        idx, local = (ctx.cut_dofs, _cut_by_cell(ctx, u)) if mat is None else (idx, u[idx] @ mat.T)
        w_ref += np.bincount(idx.ravel(), weights=local.ravel(), minlength=ctx.n_dofs)
    assert _max_rel(vmult(ctx, u), w_ref) <= 1e-14

    vol = ctx.volume
    f = lambda x: 1.0 + x[..., 0] + 2.0 * x[..., 1] ** 2  # noqa: E731
    cut = np.zeros(ctx.cut_dofs.shape)
    np.add.at(cut, vol.cell, point_first_integrate(*point_first_block_tables(ctx, vol), f(vol.points) * vol.weights))
    b_ref = assemble_rhs(_without_cut_points(ctx), f) + np.bincount(
        ctx.cut_dofs.ravel(), weights=cut.ravel(), minlength=ctx.n_dofs)
    assert _max_rel(assemble_rhs(ctx, f), b_ref) <= 1e-14

    u_exact = lambda x: np.cos(x[..., 0]) * x[..., -1]  # noqa: E731
    err2 = squared_l2_error(ctx, u, u_exact)
    blk = _error_rows(ctx)
    up = u[ctx.cut_dofs].reshape((-1,) + (degree + 1,) * dim)[blk.cell]
    diff = point_first_evaluate(up, *point_first_block_tables(ctx, blk)) - u_exact(blk.points)
    err2_ref = _uncut_error(ctx, u, u_exact) + np.sum(diff * diff * blk.weights)
    assert abs(err2 - err2_ref) <= 1e-14 * err2_ref


@pytest.mark.parametrize("chunk_points", [None, 3])
def test_cut_cells_without_points_get_exact_zeros(chunk_points, rng, monkeypatch):
    # cut cells 1 (in the middle) and 4 (the last) have no points
    dim, degree = 2, 2
    nloc = (degree + 1) ** dim
    if chunk_points is not None:
        monkeypatch.setattr(operators, "_POINT_CHUNK", chunk_points * nloc)
    cell = np.repeat([0, 2, 3], [4, 3, 5])
    xi = rng.random((len(cell), dim))
    weights = rng.random(len(cell))
    normals = rng.standard_normal((len(cell), dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    elem = build_reference_element(degree)
    u_cells = rng.standard_normal((5, nloc))
    spacing, penalty = (0.25, 0.5), 7.0

    vol, surf, no_vol = (xi, weights, cell), (xi, weights, cell, normals), (xi[:0], weights[:0], cell[:0])
    tables = point_first_tables(elem, xi)
    ref_vol = point_first_volume(*tables, weights, cell, spacing, u_cells)
    ref_nit = point_first_nitsche(*tables, weights, normals, cell, spacing, penalty, u_cells)
    # volume points only, surface points only (2 rows each, as a 2D volume
    # point), and both: rows per cell 8, 0, 6, 10, 0 (S = 6, the smallest of
    # three tied counts) or 16, 0, 12, 20, 0 (S = 12), each cell in
    # ceil(n_c / S) slots of its own and none for the cells without points
    for blk, size, filled, ref in [(cut_block(elem, spacing, vol), 6, [6, 2, 6, 6, 4], ref_vol),
                                   (cut_block(elem, spacing, no_vol, surf, penalty), 6, [6, 2, 6, 6, 4], ref_nit),
                                   (cut_block(elem, spacing, vol, surf, penalty), 12, [12, 4, 12, 12, 8],
                                    ref_vol + ref_nit)]:
        assert blk.factors.shape[1] == size and blk.cell.tolist() == [0, 0, 2, 3, 3]
        assert blk.real.sum(1).tolist() == filled
        _assert_slot_layout(blk)
        out = _add_by_cell(np.zeros(u_cells.shape), blk, cut_apply(blk, u_cells[blk.cell]))
        assert not out[[1, 4]].any()
        assert _max_rel(out, ref) <= 1e-14


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_basis_rows_are_products_of_the_point_first_tables(dim, degree, rng):
    # row i at a point is the product over the axes of 1D table entries,
    # axis 0 fastest in i: a volume point's row a has the derivative table
    # on axis a; a surface point's two rows are (lam phi + D) / sqrt(lam^2 +
    # 1) at its factors lam, from the value row phi (values only) and the D
    # row, sum_a c_a times the volume row of axis a, c_a = -w n_a / h_a;
    # _tensor_rows scales the value row by a coefficient per point
    elem = build_reference_element(degree)
    xi, weights, cell = rng.random((7, dim)), rng.random(7), np.arange(7)
    normals, spacing = rng.standard_normal((7, dim)), (0.25, 0.5, 0.125)[:dim]
    coefs = (-(weights[:, None] * normals) / spacing).T
    vals, grads = point_first_tables(elem, xi)

    def products(deriv_axis):
        return np.array([reduce(np.kron, [(grads if b == deriv_axis else vals)[p, b] for b in reversed(range(dim))])
                         for p in range(len(xi))]).T

    derivs = np.stack([products(a) for a in range(dim)])
    blk = cut_block(elem, spacing, (xi, weights, cell), (xi, weights, cell, normals), 1.0)
    rows, factors, _ = _rows_of(blk)
    surf = _surface_rows(blk, cell)  # each cell's volume point's d rows, then its surface point's two
    assert _max_rel(rows[~surf].reshape(7, dim, -1).transpose(1, 2, 0), derivs) <= 1e-15
    lam = factors[surf].reshape(7, 2).T[:, None]
    eigen_rows = (lam * products(None) + np.einsum("ap,aip->ip", coefs, derivs)) / np.hypot(lam, 1.0)
    assert _max_rel(rows[surf].reshape(7, 2, -1).transpose(1, 2, 0), eigen_rows) <= 1e-15
    assert _max_rel(operators._tensor_rows(tabulate(elem, xi), coefs[0]), coefs[0] * products(None)) <= 1e-15


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 3])
def test_tensor_rows_into_out_keep_the_bits_of_a_new_array(dim, degree, rng):
    # the last axis's product written into out is the product that makes
    # the new array, operand for operand: the same bits, in out itself
    elem = build_reference_element(degree)
    xi = rng.random((11, dim))
    tabs = [tabulate(elem, xi), _derivative_tables(elem, xi)]
    for a in range(dim):
        mixed = [tabs[b == a][b] for b in range(dim)]
        for coef in (1, rng.standard_normal(11)):
            expected = operators._tensor_rows(mixed, coef)
            out = np.full(expected.shape, np.nan)
            got = operators._tensor_rows(mixed, coef, out=out)
            assert np.shares_memory(got, out) and np.array_equal(out, expected)


@pytest.mark.parametrize("dim", [2, 3])
def test_tabulate_writes_the_bits_of_polyval_into_one_table(dim, rng):
    # one (d, k+1, P) table of values written axis by axis by Horner's rule:
    # the bits of npoly.polyval, and no temporary of the table's size
    elem = build_reference_element(3)
    xi = rng.random((20_000, dim))
    tracemalloc.start()
    try:
        table = tabulate(elem, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * table.nbytes
    assert all(np.array_equal(table[a], npoly.polyval(xi[:, a], elem._deriv_coeffs[0])) for a in range(dim))


def test_point_blocks_hold_no_per_point_dof_table():
    # the cut kernel gathers by slot and l2_error by cell: no block keeps an
    # integer array of nloc entries per point, and the cut piece's DoF table
    # holds nloc per slot
    ctx = disk_context(3, 5, 2)
    nloc, n_surf = ctx.cut_dofs.shape[1], ctx.surface.weights.size
    block_points = (ctx.cut.real.sum() - 2 * n_surf) // 3 + n_surf  # d rows per volume point, 2 per surface point
    for blk in [ctx.cut, ctx.volume, ctx.surface, _error_rows(ctx)]:
        arrays = [getattr(blk, f.name) for f in dataclasses.fields(blk)]
        ints = [a for a in arrays if isinstance(a, np.ndarray) and a.dtype.kind in "iu"]
        n_points = block_points if blk is ctx.cut else blk.weights.size
        assert ints and all(a.size < nloc * n_points for a in ints)
    (slot_dofs,) = [idx for name, idx, _ in ctx.pieces if name == "intersected"]
    assert np.array_equal(slot_dofs, ctx.cut_dofs[ctx.cut.cell]) and slot_dofs.size < nloc * block_points


def test_domain_integrals_keep_the_bits_of_a_per_point_gather(rng, monkeypatch):
    # assemble_rhs and l2_error read the cut cells' DoFs by cell and
    # tabulate per chunk; their bits are those of a per-point DoF index
    # (nloc, N), dofs[cell].T, on 1D tables tabulated once for the whole
    # block, at chunks of 37 points so that some cell spans two
    ctx = disk_context(2, 6, 2)
    nloc = ctx.cut_dofs.shape[1]
    monkeypatch.setattr(operators, "_POINT_CHUNK", 37 * nloc)
    u = rng.standard_normal(ctx.n_dofs)
    f = lambda x: 1.0 + x[..., 0] + 2.0 * x[..., 1] ** 2  # noqa: E731
    u_exact = lambda x: np.cos(x[..., 0]) * x[..., -1]  # noqa: E731
    err2 = squared_l2_error(ctx, u, u_exact)
    per_point = lambda blk: np.take(ctx.cut_dofs.T, blk.cell, axis=1)  # noqa: E731
    tables = lambda blk: tabulate(  # noqa: E731
        ctx.elem, operators._reference_coords(ctx.mesh, ctx.cut_cells, blk.points, blk.cell))

    blk = _error_rows(ctx)
    assert _spans_two_chunks(blk, nloc)
    vals, tabs = np.empty(blk.weights.size), tables(blk)
    for sl, _, _ in operators._chunks(blk.cell, nloc):
        g = u[per_point(blk)[:, sl]].reshape((ctx.elem.degree + 1,) * ctx.mesh.dim + (-1,))
        for tab in tabs[..., sl]:
            g = np.einsum("...ip,ip->...p", g, tab)
        vals[sl] = g
    diff = vals - u_exact(blk.points)
    assert _uncut_error(ctx, u, u_exact) + float(np.sum(diff * diff * blk.weights)) == err2

    # the cut cells' part of the RHS alone: a context without uncut cells
    cut_only = dataclasses.replace(ctx, inside_cells=ctx.inside_cells[:0], inside_dofs=ctx.inside_dofs[:0])
    blk, idx, vals = ctx.volume, [], []
    assert _spans_two_chunks(blk, nloc)
    tabs = tables(blk)
    for sl, starts, _ in operators._chunks(blk.cell, nloc):
        idx.append(per_point(blk)[:, sl][:, starts])
        vals.append(np.add.reduceat(operators._tensor_rows(tabs[..., sl], f(blk.points[sl]) * blk.weights[sl]),
                                    starts, axis=1))
    b_ref = np.bincount(np.concatenate(idx, axis=None), weights=np.concatenate(vals, axis=None), minlength=ctx.n_dofs)
    assert np.array_equal(assemble_rhs(cut_only, f), b_ref)


def test_domain_integrals_tabulate_each_chunk_where_they_read_it(rng, monkeypatch):
    # the 1D tables of the cut rules are tabulated inside assemble_rhs and
    # squared_l2_error, one call per chunk of at most _POINT_CHUNK // nloc
    # points, and together the calls cover every point of the block once,
    # in order; at 37-point chunks some cell spans two
    ctx = disk_context(2, 6, 2)
    nloc = ctx.cut_dofs.shape[1]
    monkeypatch.setattr(operators, "_POINT_CHUNK", 37 * nloc)
    calls, original = [], operators.tabulate

    def spy(elem, xi):
        calls.append(xi.copy())
        return original(elem, xi)

    monkeypatch.setattr(operators, "tabulate", spy)
    u = rng.standard_normal(ctx.n_dofs)
    f = lambda x: 1.0 + x[..., 0]  # noqa: E731
    for run, block in [(lambda: assemble_rhs(ctx, f), lambda: ctx.volume),
                       (lambda: squared_l2_error(ctx, u, f), lambda: _error_rows(ctx))]:
        calls.clear()
        run()
        blk = block()
        assert _spans_two_chunks(blk, nloc) and len(calls) > 1
        assert all(len(xi) <= operators._POINT_CHUNK // nloc for xi in calls)
        xi = operators._reference_coords(ctx.mesh, ctx.cut_cells, blk.points, blk.cell)
        assert np.array_equal(np.concatenate(calls), xi)


def test_cut_cells_with_surface_points_and_no_volume_points(rng):
    # the plane x + y = 0.5 only touches cut cells 2, 5 and 8 at a corner:
    # each holds two zero-weight surface points and no volume point
    mesh = box_mesh([0.0, 0.0], [1.0, 1.0], [4, 4])
    ctx = build_context(mesh, HalfSpaceLevelSet([1.0, 1.0], 0.5), Parameters(degree=1))
    corner = np.array([1, 3, 4])
    assert ctx.cut_cells[corner].tolist() == [2, 5, 8]
    assert not np.isin(corner, ctx.volume.cell).any()
    assert all((ctx.surface.cell == j).sum() == 2 and not ctx.surface.weights[ctx.surface.cell == j].any()
               for j in corner)

    u = rng.standard_normal(ctx.n_dofs)
    assert _max_rel(_cut_by_cell(ctx, u), _cut_kernel_oracle(ctx, u[ctx.cut_dofs])) <= 1e-14
    a_dense = dense_operator_matrix(ctx)
    assert_allclose(vmult(ctx, u), a_dense @ u, rtol=0, atol=1e-12 * np.abs(a_dense @ u).max())
    for j in corner:
        u_j = np.zeros(ctx.n_dofs)
        u_j[ctx.cut_dofs[j]] = rng.standard_normal(4)
        assert not _cut_by_cell(ctx, u_j, surface=False)[j].any()


# ---------------------------------------------------------------------------
# the one cut block: each cut cell's volume and surface points in slots of its own


def _one_block_context(case, degree):
    """A 6^2 disk; the corner fixture above, whose cut cells 1, 3 and 4 hold
    surface points and no volume point; or three balls on a 3^3 mesh at
    quadrature depth 0, where sign-of-centre fallbacks leave cut cells with
    volume points and no surface point."""
    if case == "disk":
        return disk_context(2, 6, degree)
    if case == "corner":
        mesh = box_mesh([0.0, 0.0], [1.0, 1.0], [4, 4])
        return build_context(mesh, HalfSpaceLevelSet([1.0, 1.0], 0.5), Parameters(degree=degree))
    mesh = box_mesh([-1.26] * 3, [1.26] * 3, [3] * 3)
    phi = BallUnionLevelSet(*generate_balls(3, 0, [-1.26] * 3, [1.26] * 3, r0=2.0))
    return build_context(mesh, phi, Parameters(degree=degree, max_quad_depth=0))


def _vmult_by_pieces(ctx, u):
    """vmult from the matrix pieces and the point-first oracle of the cut
    piece, each scattered by its cells' DoFs."""
    w = np.zeros(ctx.n_dofs)
    for _, idx, mat in ctx.pieces:
        idx = ctx.cut_dofs if mat is None else idx
        local = _cut_kernel_oracle(ctx, u[idx]) if mat is None else u[idx] @ mat.T
        w += np.bincount(idx.ravel(), weights=local.ravel(), minlength=ctx.n_dofs)
    return w


@pytest.mark.parametrize("chunk_points", [None, 5], ids=["default-chunks", "5-point-chunks"])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("case", ["disk", "corner", "balls"])
def test_one_cut_block_vmult_matches_the_point_first_and_dense_oracles(case, degree, chunk_points, rng, monkeypatch):
    dim = 3 if case == "balls" else 2
    if chunk_points is not None:  # chunks are fixed when the block is built
        monkeypatch.setattr(operators, "_POINT_CHUNK", chunk_points * (degree + 1) ** dim)
    ctx = _one_block_context(case, degree)
    n_cut = len(ctx.cut_cells)
    n_vol, n_surf = np.bincount(ctx.volume.cell, minlength=n_cut), np.bincount(ctx.surface.cell, minlength=n_cut)
    if case == "corner":
        assert not n_vol[[1, 3, 4]].any() and n_surf[[1, 3, 4]].all()
    if case == "balls":
        assert ((n_vol > 0) & (n_surf == 0)).any()
    assert case == "balls" or _spans_slots(ctx.cut, 2)  # at depth 0 each ball cell fits one slot at k = 1, 3
    _assert_slot_layout(ctx.cut)

    u = rng.standard_normal(ctx.n_dofs)
    w = vmult(ctx, u)
    assert _max_rel(w, _vmult_by_pieces(ctx, u)) <= 1e-14
    if chunk_points is None:  # the dense matrix does not depend on the chunks
        a_dense = dense_operator_matrix(ctx)
        assert_allclose(w, a_dense @ u, rtol=0, atol=1e-12 * np.abs(a_dense @ u).max())


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_each_point_contributes_the_bits_of_the_two_passes(dim, degree, rng):
    # with every point its own cell, S = d and each slot is one point's
    # rows: cut_apply's row is bitwise y^T R with y = f R u, taken by the
    # same products, where a volume point's rows are its derivative rows R_a
    # with factors w / h_a^2 and a surface point's are its two eigen-rows
    # (lam phi + D) / sqrt(lam^2 + 1), lam + lam' = penalty w, lam lam' = -1
    # (in 3D one padded row); and to rounding as the separate volume and
    # Nitsche passes computed them
    elem = build_reference_element(degree)
    nloc, n_vol, n_surf = (degree + 1) ** dim, 11, 7
    xi_v, xi_s = rng.random((n_vol, dim)), rng.random((n_surf, dim))
    w_v, w_s = rng.random(n_vol), rng.random(n_surf)
    normals = rng.standard_normal((n_surf, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    spacing, penalty = (0.25, 0.5, 0.125)[:dim], 37.0
    blk = cut_block(elem, spacing, (xi_v, w_v, np.arange(n_vol)),
                    (xi_s, w_s, np.arange(n_vol, n_vol + n_surf), normals), penalty)
    u_cells = rng.standard_normal((n_vol + n_surf, nloc))
    assert blk.factors.shape[1] == dim and blk.cell.tolist() == list(range(n_vol + n_surf))
    assert blk.real[:n_vol].all() and (blk.real[n_vol:].sum(1) == 2).all()
    got = cut_apply(blk, u_cells[blk.cell])

    # the rows of each kind as the two passes tabulated them: the volume
    # points' derivative rows, and the surface points' value row and
    # Nitsche row sum_a (-w n_a / h_a) R_a
    def derivative_rows(xi):
        vals, grads = tabulate(elem, xi), _derivative_tables(elem, xi)
        return vals, np.stack([operators._tensor_rows([grads[b] if b == a else v for b, v in enumerate(vals)], 1)
                               for a in range(dim)])

    vol_rows = derivative_rows(xi_v)[1]
    vals, derivs = derivative_rows(xi_s)
    coefs = (-(w_s[:, None] * normals) / np.asarray(spacing)).T
    surf_rows = np.stack([operators._tensor_rows(vals, 1), np.einsum("ap,aip->ip", coefs, derivs)])
    scale = w_v / np.square(spacing)[:, None]
    lam = blk.factors[n_vol:, :2].T
    assert np.array_equal(blk.rows[:n_vol].transpose(1, 2, 0), vol_rows) and np.array_equal(blk.factors[:n_vol].T, scale)
    assert (np.abs(lam.sum(0) - penalty * w_s) <= 1e-15 * np.abs(lam).max(0)).all()
    assert np.array_equal(blk.rows[n_vol:, :2].transpose(1, 2, 0),
                          (lam[:, None] * surf_rows[0] + surf_rows[1]) / np.hypot(lam, 1.0)[:, None])

    for p, u_p in enumerate(u_cells):
        y = blk.rows[p] @ u_p
        y *= blk.factors[p]
        assert np.array_equal(got[p], y @ blk.rows[p])

    y = np.einsum("rip,ip->rp", vol_rows, u_cells[:n_vol].T)
    y *= scale
    old_vol = np.einsum("rip,rp->ip", vol_rows, y)
    y = np.einsum("rip,ip->rp", surf_rows, u_cells[n_vol:].T)
    old_nitsche = np.einsum("rip,rp->ip", surf_rows, np.stack([(penalty * w_s) * y[0] + y[1], y[0]]))
    assert _max_rel(got.T, np.concatenate([old_vol, old_nitsche], axis=1)) <= 1e-14


@pytest.mark.parametrize("penalty", [0.0, -37.0, 1e8])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_the_eigen_rows_sum_to_each_cells_volume_and_nitsche_matrices(dim, degree, penalty, rng):
    # sum_rows f r r^T over a cell's slots is its volume matrix plus, over
    # its surface points, p phi phi^T + phi D^T + D phi^T with p = penalty w,
    # for a zero, a negative and a large penalty and a zero-weight surface
    # point; the block holds d rows per volume point and 2 per surface point,
    # no third row in 3D, and exact zeros at padding
    elem, nloc = build_reference_element(degree), (degree + 1) ** dim
    cell_v, cell_s = np.repeat([0, 1, 3], [5, 3, 8]), np.repeat([0, 2, 3], [3, 4, 6])
    xi_v, xi_s = rng.random((len(cell_v), dim)), rng.random((len(cell_s), dim))
    w_v, w_s = rng.random(len(cell_v)), rng.random(len(cell_s))
    w_s[4] = 0.0
    normals = rng.standard_normal((len(cell_s), dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    spacing = (0.25, 0.5, 0.125)[:dim]
    blk = cut_block(elem, spacing, (xi_v, w_v, cell_v), (xi_s, w_s, cell_s, normals), penalty)
    assert blk.real.sum() == dim * len(cell_v) + 2 * len(cell_s) and (~blk.real).any()
    _assert_slot_layout(blk)

    got = np.zeros((4, nloc, nloc))
    np.add.at(got, blk.cell, np.einsum("nsi,ns,nsj->nij", blk.rows, blk.factors, blk.rows))
    tables_v, tables_s = point_first_tables(elem, xi_v), point_first_tables(elem, xi_s)
    ref = np.stack([point_first_volume(*tables_v, w_v, cell_v, spacing, np.tile(e, (4, 1)))
                    + point_first_nitsche(*tables_s, w_s, normals, cell_s, spacing, penalty, np.tile(e, (4, 1)))
                    for e in np.eye(nloc)], axis=-1)
    for j in range(4):
        assert np.abs(got[j] - ref[j]).max() <= 1e-13 * np.abs(ref[j]).max()


@pytest.mark.parametrize("chunk_points", [None, 5], ids=["default-chunks", "5-point-chunks"])
def test_the_cut_piece_is_one_block_with_ceil_n_over_s_slots_per_cell(chunk_points, rng, monkeypatch):
    # the cut piece's values are nloc per slot of the one cut block: a cell
    # of n_c rows (d per volume point and 2 per surface point) fills
    # ceil(n_c / S) slots, S the most common n_c, whatever the chunks of its
    # tabulation;
    # and vmult hands its one bincount a value buffer as long as the
    # scatter index
    if chunk_points is not None:
        monkeypatch.setattr(operators, "_POINT_CHUNK", chunk_points * 27)
    ctx = disk_context(3, 5, 2)
    nloc, size = ctx.cut_dofs.shape[1], ctx.cut.factors.shape[1]
    n_c = np.bincount(np.concatenate([ctx.volume.cell] * 3 + [ctx.surface.cell] * 2), minlength=len(ctx.cut_cells))
    assert not _crowded(ctx).any() and n_c.all()
    assert size == np.argmax(np.bincount(n_c)) and _spans_slots(ctx.cut, 2)
    assert np.array_equal(np.bincount(ctx.cut.cell, minlength=len(n_c)), -(-n_c // size))
    assert np.array_equal(np.bincount(ctx.cut.cell, weights=ctx.cut.real.sum(1), minlength=len(n_c)), n_c)
    _assert_slot_layout(ctx.cut)
    n_matrix = sum(idx.size for _, idx, mat in ctx.pieces if mat is not None)
    (slot_dofs,) = [idx for name, idx, _ in ctx.pieces if name == "intersected"]
    assert ctx.scatter_index.size - n_matrix == nloc * len(ctx.cut.cell) == slot_dofs.size

    bincount, sizes = np.bincount, []

    def spy(x, weights=None, minlength=0):
        sizes.append(None if weights is None else len(weights))
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", spy)
    vmult(ctx, rng.standard_normal(ctx.n_dofs))
    assert sizes == [ctx.scatter_index.size]


def test_build_context_tabulates_the_cut_block_in_place():
    # the cut block's rows are written where they stay, chunk by chunk:
    # the peak of build_context above the context it keeps is well under
    # one more copy of the rows, which tabulating them per kind and copying
    # them into the block would hold (a ratio near 1 on this sphere)
    mesh = box_mesh([-1.26] * 3, [1.26] * 3, [4] * 3)
    phi = SphereLevelSet([0.071, -0.043, 0.029], 1.0)
    tracemalloc.start()
    try:
        ctx = build_context(mesh, phi, Parameters(degree=3))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < 0.75 * ctx.cut.rows.nbytes


# ---------------------------------------------------------------------------
# moment-fitted volume rules of crowded cut cells


def _crowded_context(dim, degree):
    """Cut cells with more than (2k+1)^d volume points: in 2D two disks
    meeting on a diagonal, whose normals at the kinks differ in sign on
    both axes, and in 3D three balls, each at quadrature depth 3."""
    if dim == 2:
        mesh = box_mesh([-1.26] * 2, [1.26] * 2, [6] * 2)
        phi = BallUnionLevelSet([[-0.47, -0.52], [0.53, 0.45]], [0.75, 0.74])
    else:
        mesh = box_mesh([-1.26] * 3, [1.26] * 3, [3] * 3)
        phi = BallUnionLevelSet(*generate_balls(3, 0, [-1.26] * 3, [1.26] * 3, r0=2.0))
    return build_context(mesh, phi, Parameters(degree=degree, max_quad_depth=3))


def _crowded(ctx):
    """Which cut cells' rules hold more than (2k+1)^d volume points."""
    return np.bincount(ctx.volume.cell, minlength=len(ctx.cut_cells)) > (2 * ctx.elem.degree + 1) ** ctx.mesh.dim


@pytest.mark.parametrize("chunk_points", [None, 5], ids=["default-chunks", "5-point-chunks"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_moment_fitted_weights_reproduce_the_rule_on_q2k(dim, degree, chunk_points, rng, monkeypatch):
    # a crowded cell's (2k+1)^d grid points with weights W_j = sum_p w_p L_j(x_p)
    # integrate every g in Q_2k as its own points do; the other cells keep
    # their points bit for bit and in order
    if chunk_points is not None:
        monkeypatch.setattr(operators, "_POINT_CHUNK", chunk_points * (2 * degree + 1) ** dim)
    elem, cap = build_reference_element(degree), (2 * degree + 1) ** dim
    cell = np.repeat(np.arange(6), [cap + 1, 3, 2 * cap + 7, 0, cap, 4 * cap])
    xi, weights = rng.random((len(cell), dim)), rng.random(len(cell)) - 0.2
    got_xi, got_w, got_cell = operators._moment_fitted(elem, xi, weights, cell)
    assert np.bincount(got_cell, minlength=6).tolist() == [cap, 3, cap, 0, cap, cap]

    kept = np.isin(cell, [1, 4])
    assert np.array_equal(got_xi[np.isin(got_cell, [1, 4])], xi[kept])
    assert np.array_equal(got_w[np.isin(got_cell, [1, 4])], weights[kept])
    exponents = np.indices((2 * degree + 1,) * dim).reshape(dim, -1).T
    for _ in range(5):
        coefs = rng.standard_normal(len(exponents))
        g = lambda x: np.prod(x[:, None, :] ** exponents, axis=-1) @ coefs  # noqa: E731
        for j in (0, 2, 5):
            ref = weights[cell == j] * g(xi[cell == j])
            fitted = got_w[got_cell == j] @ g(got_xi[got_cell == j])
            assert abs(fitted - ref.sum()) <= 1e-13 * np.abs(ref).sum()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_vmult_on_crowded_cut_cells_matches_the_dense_oracle(dim, degree, rng):
    # the dense oracle reads every point of the cut rules (ctx.cut_rules);
    # the cut block holds d rows for each of the (2k+1)^d volume points in
    # a crowded cell and 2 per surface point, and the rows of some cell fill
    # at least 3 slots
    ctx = _crowded_context(dim, degree)
    crowded, cap = _crowded(ctx), (2 * degree + 1) ** dim
    n_vol = np.bincount(ctx.volume.cell, minlength=len(ctx.cut_cells))
    assert crowded.any() and _spans_slots(ctx.cut, 3)
    _assert_slot_layout(ctx.cut)
    n_surf = np.bincount(ctx.surface.cell, minlength=len(n_vol))
    assert np.array_equal(np.bincount(_rows_of(ctx.cut)[2], minlength=len(n_vol)),
                          dim * np.where(crowded, cap, n_vol) + 2 * n_surf)
    u = rng.standard_normal(ctx.n_dofs)
    au = dense_operator_matrix(ctx) @ u
    assert np.abs(vmult(ctx, u) - au).max() <= 1e-13 * np.abs(au).max()


@pytest.mark.parametrize("make, has_crowded", [
    (lambda: disk_context(2, 6, 2), False),
    (lambda: disk_context(3, 5, 2), False),
    (lambda: _crowded_context(2, 2), True),
    (lambda: _crowded_context(3, 2), True),
], ids=["disk-2-6-2", "disk-3-5-2", "crowded-2-2", "crowded-3-2"])
def test_cells_at_or_under_the_cap_keep_their_cut_block_columns_bitwise(make, has_crowded, monkeypatch):
    # against the same context tabulated without moment fitting: a context
    # with no crowded cell keeps its whole cut block, and the columns of
    # every cell at or under the cap keep their bits in any context
    ctx = make()
    monkeypatch.setattr(operators, "_moment_fitted", lambda elem, *volume: volume)
    ref = make()
    assert np.array_equal(ctx.volume.weights, ref.volume.weights)  # the RHS rule is not fitted
    crowded = _crowded(ctx)
    assert crowded.any() == has_crowded
    if not has_crowded:
        for f in dataclasses.fields(ctx.cut):
            assert np.array_equal(getattr(ctx.cut, f.name), getattr(ref.cut, f.name))
    # by row, without the padding: S may differ once crowded cells shrink
    (rows, factors, cells), (rows_ref, factors_ref, cells_ref) = map(_rows_of, (ctx.cut, ref.cut))
    keep, keep_ref = ~crowded[cells], ~crowded[cells_ref]
    assert np.array_equal(rows[keep], rows_ref[keep_ref])
    assert np.array_equal(factors[keep], factors_ref[keep_ref]) and np.array_equal(cells[keep], cells_ref[keep_ref])


# ---------------------------------------------------------------------------
# right-hand side


def test_assemble_rhs_matches_direct_sum():
    ctx = disk_context(2, 4, 2)
    f = lambda x: 1.0 + x[..., 0] + 2.0 * x[..., 1] ** 2

    b_oracle = np.zeros(ctx.n_dofs)
    gx = ctx.elem.quad_points
    gw = ctx.elem.quad_weights
    h = ctx.mesh.spacing
    wx, wy = np.meshgrid(gw * h[0], gw * h[1], indexing="ij")
    for row, lo in zip(ctx.inside_dofs, ctx.mesh.cell_box(ctx.mesh.cell_multi(ctx.inside_cells))[0]):
        px, py = np.meshgrid(lo[0] + gx * h[0], lo[1] + gx * h[1], indexing="ij")
        pts = np.stack([px.ravel(), py.ravel()], axis=-1)
        basis = tensor_basis_eval(ctx.elem.nodes, (pts - lo) / h, (0, 0))
        b_oracle[row] += basis.T @ (f(pts) * (wx * wy).ravel())
    rules = ctx.cut_rules  # built on each access
    for j, cell in enumerate(ctx.cut_cells):
        rule = rules[int(cell)]
        lo, _ = ctx.mesh.cell_box(ctx.mesh.cell_multi(int(cell)))
        basis = tensor_basis_eval(ctx.elem.nodes, (rule.interior_points - lo) / h, (0, 0))
        b_oracle[ctx.cut_dofs[j]] += basis.T @ (f(rule.interior_points) * rule.interior_weights)

    b = assemble_rhs(ctx, f)
    assert np.abs(b - b_oracle).max() <= 1e-12 * np.abs(b_oracle).max()


def test_scalar_user_function_broadcasts():
    ctx = disk_context(2, 6, 2)
    assert np.array_equal(assemble_rhs(ctx, lambda x: 2.5), assemble_rhs(ctx, lambda x: np.full(x.shape[:-1], 2.5)))


@pytest.mark.parametrize("integral", [
    assemble_rhs,
    lambda ctx, fn: squared_l2_error(ctx, np.zeros(ctx.n_dofs), fn),
], ids=["assemble_rhs", "squared_l2_error"])
def test_user_function_values_are_checked(integral):
    ctx = disk_context(2, 6, 2)
    with pytest.raises(ValueError, match=r"non-finite value nan at x = \["):
        integral(ctx, lambda x: np.where(x[..., 0] > 0.0, np.nan, 1.0))
    with pytest.raises(ValueError):
        integral(ctx, lambda x: np.ones(x.shape[:-1] + (1,)))  # (n, 1) for n points


# ---------------------------------------------------------------------------
# timers and breakdown


def test_timers_and_breakdown():
    ctx = disk_context(2, 5, 2)
    reset_timers(ctx)
    u = np.ones(ctx.n_dofs)
    for _ in range(3):
        vmult(ctx, u)
    assert ctx.timers["applications"] == 3
    assert ctx.timers["total"] > 0
    parts = (
        ctx.timers["interior"]
        + ctx.timers["intersected"]
        + ctx.timers["ghost_penalty"]
        + ctx.timers["scatter_other"]
    )
    assert parts == pytest.approx(ctx.timers["total"], rel=1e-9)
    report = breakdown_report(ctx)
    assert [name for name, _, _ in report] == [
        "interior",
        "intersected",
        "ghost_penalty",
        "scatter_other",
    ]
    assert sum(pct for _, _, pct in report) == pytest.approx(100.0, abs=0.5)
    reset_timers(ctx)
    assert ctx.timers["applications"] == 0
    assert ctx.timers["total"] == 0.0


def test_a_replaced_context_counts_its_applications_on_its_own_timers(rng):
    # timers is no init field: a dataclasses.replace copy starts its own
    ctx = disk_context(2, 6, 2)
    copy = dataclasses.replace(ctx, volume=ctx.volume)
    vmult(copy, rng.standard_normal(ctx.n_dofs))
    assert copy.timers is not ctx.timers
    assert copy.timers["applications"] == 1 and ctx.timers["applications"] == 0


def test_a_context_from_its_constructor_starts_with_zeroed_timers(rng):
    # a context rebuilt from the init fields of a built one times its first
    # vmult and reports it as build_context's own contexts do
    built = disk_context(2, 6, 2)
    ctx = OperatorContext(**{f.name: getattr(built, f.name) for f in dataclasses.fields(built)
                             if f.init})
    assert ctx.timers == built.timers and ctx.timers["applications"] == 0
    u = rng.standard_normal(ctx.n_dofs)
    assert np.array_equal(vmult(ctx, u), vmult(built, u))
    assert ctx.timers["applications"] == 1 and ctx.timers["total"] > 0
    assert [name for name, _, _ in breakdown_report(ctx)] == list(operators._COMPONENTS)
