"""Matrix-free application of the stabilized cut Poisson operator.

``vmult`` applies  A = A_volume + A_nitsche + gamma_A * A_ghost  to a compact
vector of active DoFs without assembling anything:

* interior (uncut) cells use the sum-factorized cell Laplacian
  (``sumfac.cell_laplacian_batch``),
* cut cells integrate the same weak form over their precomputed volume rule
  and add the symmetric Nitsche boundary terms
  -(dn u, v) - (u, dn v) + (gamma_D / h)(u, v) on the embedded surface; both
  run on the point pair ``point_evaluate`` / ``point_integrate`` over chunks
  of at most _POINT_CHUNK points (``point_chunks``),
* ghost-penalty faces apply gamma_A * (hM1 x ... x G1(h) x ... x hM1), the
  Kronecker product of 1D factors with G1 on the face-normal axis.

The per-cell forms of the paper (``cut_cell_apply`` and its volume and
surface parts) run the batched cut kernels on one cell's points; the per-face
form ``ghost_face_apply`` is ``sumfac.kron_apply`` on one patch.  Cells,
cut-cell quadrature points and faces are processed in fixed-order batches;
all reductions are single-threaded with a fixed summation order, so repeated
applications are bitwise reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import prod

import numpy as np

from . import cutquad, geometry, sumfac, tensor1d
from .geometry import CartesianMesh, Label
from .sumfac import TensorField, cell_laplacian_batch, kron_batch

_CELL_CHUNK = 4096
_POINT_CHUNK = 1 << 15


@dataclass
class Parameters:
    """Discretization parameters; None picks the degree-based default."""

    degree: int
    gamma_ghost: float = 0.5
    gamma_dirichlet: float | None = None  # default 30 k (k+1)
    quad_order: int | None = None         # default k+1; uncut cells use at least k+1
    error_quad_order: int | None = None   # default k+2
    max_quad_depth: int = 8

    def __post_init__(self):
        if not 1 <= self.degree:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.gamma_ghost < 0:
            raise ValueError("gamma_ghost must be >= 0")
        k = self.degree
        if self.gamma_dirichlet is None:
            self.gamma_dirichlet = 30.0 * k * (k + 1)
        if self.quad_order is None:
            self.quad_order = k + 1
        if self.error_quad_order is None:
            self.error_quad_order = k + 2


@dataclass
class PointBlock:
    """Concatenated per-point data of all cut cells, grouped cell by cell."""

    points: np.ndarray   # (N, d) physical coordinates
    weights: np.ndarray  # (N,)
    cell: np.ndarray     # (N,) position in the cut-cell list
    ptr: np.ndarray      # (n_cut + 1,) CSR offsets
    vals: np.ndarray     # (N, d, k+1) 1D basis values at the reference coords
    grads: np.ndarray    # (N, d, k+1) 1D basis derivatives (reference)
    normals: np.ndarray | None = None  # (N, d) for surface blocks


@dataclass
class OperatorContext:
    """Everything vmult needs, precomputed once per (mesh, level set, k)."""

    mesh: CartesianMesh
    levelset: object
    params: Parameters
    elem: tensor1d.ReferenceElement1D
    classification: geometry.CellClassification
    dofmap: geometry.DofMap
    faces: np.ndarray               # (n_faces, 2) rows (axis, flat lower cell)
    scaled_mass: list[np.ndarray]   # h_a * M1 per axis
    ghost_1d: list[np.ndarray]      # G1(h_a) per axis
    inside_cells: np.ndarray
    cut_cells: np.ndarray
    inside_dofs: np.ndarray         # (n_inside, nloc) compact indices
    cut_dofs: np.ndarray            # (n_cut, nloc)
    inside_lower: np.ndarray        # (n_inside, d) cell corners
    face_dofs: dict[int, np.ndarray]  # axis -> (n_faces, patch size)
    volume: PointBlock
    surface: PointBlock
    cut_rules: dict[int, cutquad.CutCellQuadrature]
    fallback_count: int
    timers: dict[str, float] = field(default_factory=dict)
    _error_blocks: dict[int, PointBlock] = field(default_factory=dict)

    @property
    def n_dofs(self) -> int:
        return self.dofmap.n_active

    @property
    def h_min(self) -> float:
        return min(self.mesh.spacing)

    @property
    def nitsche_penalty(self) -> float:
        return self.params.gamma_dirichlet / self.h_min


def reset_timers(ctx: OperatorContext) -> None:
    ctx.timers = {
        "interior": 0.0,
        "intersected": 0.0,
        "ghost_penalty": 0.0,
        "scatter_other": 0.0,
        "total": 0.0,
        "applications": 0,
    }


def tabulate(elem, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1D basis values and derivatives per axis at reference coordinates
    xi (P, d): the (P, d, k+1) tables the point kernels read."""
    vals = np.empty(xi.shape + (elem.degree + 1,))
    grads = np.empty_like(vals)
    for a in range(xi.shape[1]):
        vals[:, a] = elem.evaluate(xi[:, a])
        grads[:, a] = elem.evaluate(xi[:, a], deriv=1)
    return vals, grads


def _build_point_block(mesh, elem, cut_cells, rules, surface: bool) -> PointBlock:
    pts, wts, cell_of, normals = [], [], [], []
    for j, c in enumerate(cut_cells):
        r = rules[int(c)]
        p = r.surface_points if surface else r.interior_points
        w = r.surface_weights if surface else r.interior_weights
        pts.append(p)
        wts.append(w)
        cell_of.append(np.full(len(w), j, dtype=np.int64))
        if surface:
            normals.append(r.surface_normals)
    d = mesh.dim
    pts = np.concatenate(pts) if pts else np.empty((0, d))
    wts = np.concatenate(wts) if wts else np.empty(0)
    cell_of = np.concatenate(cell_of) if cell_of else np.empty(0, dtype=np.int64)
    ptr = np.zeros(len(cut_cells) + 1, dtype=np.int64)
    np.add.at(ptr, cell_of + 1, 1)
    ptr = np.cumsum(ptr)
    lower = np.asarray(mesh.origin) + mesh.cell_multi(cut_cells[cell_of]) * np.asarray(mesh.spacing)
    vals, grads = tabulate(elem, (pts - lower) / np.asarray(mesh.spacing))
    nrm = (np.concatenate(normals) if normals else np.empty((0, d))) if surface else None
    return PointBlock(pts, wts, cell_of, ptr, vals, grads, nrm)


def _cut_rules(mesh, levelset, cells, order: int, max_depth: int) -> dict[int, cutquad.CutCellQuadrature]:
    """Cut-cell rules of the given order, keyed by flat cell index.

    Calls cutquad.cut_cell_quadrature through the module so that a caller
    swapping the attribute (a tracer) sees every call."""
    rules = {}
    for c in cells:
        lo, hi = mesh.cell_box(mesh.cell_multi(int(c)))
        try:
            rules[int(c)] = cutquad.cut_cell_quadrature(lo, hi, levelset, order, max_depth)
        except cutquad.QuadratureError as exc:
            raise cutquad.QuadratureError(f"cell {int(c)}: {exc}") from exc
    return rules


def build_context(mesh: CartesianMesh, levelset, params: Parameters) -> OperatorContext:
    """Classify, enumerate DoFs and ghost faces, build and tabulate cut rules."""
    k = params.degree
    elem = tensor1d.build_reference_element(k, max(params.quad_order, k + 1))
    classification = geometry.classify_cells(mesh, levelset, k + 2)
    dofmap = geometry.build_dofmap(mesh, k, classification)
    faces = geometry.ghost_faces(classification)

    mass = tensor1d.mass_matrix_1d(elem)
    scaled_mass = [h * mass for h in mesh.spacing]
    ghost_1d = [tensor1d.ghost_matrix_1d(elem, h) for h in mesh.spacing]

    inside_cells = classification.cells_with(Label.INSIDE)
    cut_cells = classification.cells_with(Label.CUT)
    face_dofs = {
        axis: dofmap.compact_cell_dofs(faces[faces[:, 0] == axis, 1], axis)
        for axis in range(mesh.dim)
        if (faces[:, 0] == axis).any()
    }

    rules = _cut_rules(mesh, levelset, cut_cells, params.quad_order, params.max_quad_depth)
    ctx = OperatorContext(
        mesh=mesh,
        levelset=levelset,
        params=params,
        elem=elem,
        classification=classification,
        dofmap=dofmap,
        faces=faces,
        scaled_mass=scaled_mass,
        ghost_1d=ghost_1d,
        inside_cells=inside_cells,
        cut_cells=cut_cells,
        inside_dofs=dofmap.compact_cell_dofs(inside_cells),
        cut_dofs=dofmap.compact_cell_dofs(cut_cells),
        inside_lower=mesh.cell_box(mesh.cell_multi(inside_cells))[0],
        face_dofs=face_dofs,
        volume=_build_point_block(mesh, elem, cut_cells, rules, surface=False),
        surface=_build_point_block(mesh, elem, cut_cells, rules, surface=True),
        cut_rules=rules,
        fallback_count=sum(r.fallback_count for r in rules.values()),
    )
    reset_timers(ctx)
    return ctx


# ---------------------------------------------------------------------------
# point kernels: evaluate / integrate on per-point 1D tables


def _tables(vals: np.ndarray, grads: np.ndarray, deriv_axis: int | None) -> list[np.ndarray]:
    return [(grads if a == deriv_axis else vals)[:, a, :] for a in range(vals.shape[1])]


def point_evaluate(up: np.ndarray, vals: np.ndarray, grads: np.ndarray, deriv_axis: int | None = None) -> np.ndarray:
    """Value (deriv_axis None) or reference derivative along deriv_axis at
    each point of the cell coefficients up (P, n, ..., n) gathered per point."""
    tabs = _tables(vals, grads, deriv_axis)
    if len(tabs) == 2:
        t = np.einsum("pji,pi->pj", up, tabs[0])
        return np.einsum("pj,pj->p", t, tabs[1])
    t = np.einsum("pkji,pi->pkj", up, tabs[0])
    t = np.einsum("pkj,pj->pk", t, tabs[1])
    return np.einsum("pk,pk->p", t, tabs[2])


def _outer(coef: np.ndarray, tabs: list[np.ndarray]) -> np.ndarray:
    if len(tabs) == 2:
        out = np.einsum("p,pi,pj->pji", coef, tabs[0], tabs[1])
    else:
        out = np.einsum("p,pi,pj,pk->pkji", coef, tabs[0], tabs[1], tabs[2])
    return out.reshape(coef.shape[0], -1)


def point_integrate(vals: np.ndarray, grads: np.ndarray, value_coef=None, grad_coefs=()) -> np.ndarray:
    """Test-function contributions (P, nloc) at each point: value_coef times
    phi_i plus grad_coefs[a] times the reference derivative of phi_i along a."""
    acc = None if value_coef is None else _outer(value_coef, _tables(vals, grads, None))
    for a, coef in enumerate(grad_coefs):
        contrib = _outer(coef, _tables(vals, grads, a))
        acc = contrib if acc is None else acc + contrib
    return acc


def point_chunks(blk: PointBlock, u3: np.ndarray | None = None):
    """Yield (slice, u3[cell] of those points) over blk in chunks of at most
    _POINT_CHUNK points, gathering the cell coefficients once per chunk
    (None when u3 is None)."""
    n = len(blk.weights)
    for start in range(0, n, _POINT_CHUNK):
        sl = slice(start, min(start + _POINT_CHUNK, n))
        yield sl, None if u3 is None else u3[blk.cell[sl]]


def _scatter_cells(out: np.ndarray, cells: np.ndarray, contrib: np.ndarray) -> None:
    """Add per-point contributions (P, nloc) into out (n_cells, nloc) by cell."""
    nloc = out.shape[1]
    flat = (cells[:, None] * nloc + np.arange(nloc, dtype=np.int64)).ravel()
    out += np.bincount(flat, weights=contrib.ravel(), minlength=out.size).reshape(out.shape)


def cut_volume_apply(blk: PointBlock, spacing, u3: np.ndarray, out: np.ndarray) -> None:
    """grad-grad term over the points of blk, accumulated into out (n_cells, nloc)."""
    for sl, up in point_chunks(blk, u3):
        vals, grads = blk.vals[sl], blk.grads[sl]
        z = [point_evaluate(up, vals, grads, a) * blk.weights[sl] / h ** 2 for a, h in enumerate(spacing)]
        _scatter_cells(out, blk.cell[sl], point_integrate(vals, grads, grad_coefs=z))


def nitsche_apply(blk: PointBlock, spacing, penalty: float, u3: np.ndarray, out: np.ndarray) -> None:
    """Symmetric Nitsche terms over the surface points of blk, into out."""
    for sl, up in point_chunks(blk, u3):
        vals, grads = blk.vals[sl], blk.grads[sl]
        w = blk.weights[sl]
        nrm = blk.normals[sl]
        u_val = point_evaluate(up, vals, grads)
        g_n = np.zeros_like(u_val)
        for a, h in enumerate(spacing):
            g_n += nrm[:, a] * point_evaluate(up, vals, grads, a) / h
        beta = [-u_val * w * nrm[:, a] / h for a, h in enumerate(spacing)]
        _scatter_cells(out, blk.cell[sl], point_integrate(vals, grads, (-g_n + penalty * u_val) * w, beta))


# ---------------------------------------------------------------------------
# ghost penalty


def _ghost_mats(ctx: OperatorContext, axis: int) -> list[np.ndarray]:
    """hM1 on the tangential axes and G1 on the face-normal axis."""
    return [ctx.ghost_1d[axis] if b == axis else ctx.scaled_mass[b] for b in range(ctx.mesh.dim)]


def _ghost_jobs(ctx: OperatorContext, u: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(face DoFs, gamma_A * face-operator values) per axis, in axis order."""
    if ctx.params.gamma_ghost == 0.0:
        return []
    jobs = []
    for axis in sorted(ctx.face_dofs):
        idx = ctx.face_dofs[axis]
        grid = u[idx].reshape((len(idx),) + ctx.dofmap.patch_extents(axis)[::-1])
        jobs.append((idx, ctx.params.gamma_ghost * kron_batch(_ghost_mats(ctx, axis), grid)))
    return jobs


def _scatter_jobs(jobs, n: int) -> np.ndarray:
    w = np.zeros(n)
    for idx, val in jobs:
        w += np.bincount(idx.ravel(), weights=val.ravel(), minlength=n)
    return w


# ---------------------------------------------------------------------------
# public operator actions


def vmult(ctx: OperatorContext, u: np.ndarray) -> np.ndarray:
    """Apply the full operator; per-component timings accumulate on ctx."""
    u = np.asarray(u, dtype=float)
    if u.shape != (ctx.n_dofs,):
        raise ValueError(f"expected vector of length {ctx.n_dofs}, got {u.shape}")
    t_start = time.perf_counter()
    jobs = []

    t0 = time.perf_counter()
    if len(ctx.inside_cells):
        jobs.append((ctx.inside_dofs, cell_laplacian_batch(ctx.elem, ctx.mesh.spacing, u[ctx.inside_dofs])))
    ctx.timers["interior"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    if len(ctx.cut_cells):
        u3 = u[ctx.cut_dofs].reshape((len(ctx.cut_cells),) + (ctx.elem.degree + 1,) * ctx.mesh.dim)
        w_cut = np.zeros(ctx.cut_dofs.shape)
        cut_volume_apply(ctx.volume, ctx.mesh.spacing, u3, w_cut)
        nitsche_apply(ctx.surface, ctx.mesh.spacing, ctx.nitsche_penalty, u3, w_cut)
        jobs.append((ctx.cut_dofs, w_cut))
    ctx.timers["intersected"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    jobs += _ghost_jobs(ctx, u)
    ctx.timers["ghost_penalty"] += time.perf_counter() - t0

    w = _scatter_jobs(jobs, ctx.n_dofs)

    total = time.perf_counter() - t_start
    ctx.timers["total"] += total
    ctx.timers["scatter_other"] = ctx.timers["total"] - (
        ctx.timers["interior"] + ctx.timers["intersected"] + ctx.timers["ghost_penalty"]
    )
    ctx.timers["applications"] += 1
    return w


def apply_ghost_penalty(ctx: OperatorContext, u: np.ndarray) -> np.ndarray:
    """Only the ghost-penalty part gamma_A * A_ghost (zero when gamma_A = 0)."""
    return _scatter_jobs(_ghost_jobs(ctx, np.asarray(u, dtype=float)), ctx.n_dofs)


def ghost_face_apply(ctx: OperatorContext, axis: int, u_patch: TensorField) -> TensorField:
    """One face normal to axis: gamma_A times tangential scaled masses and G1
    on the normal."""
    out = sumfac.kron_apply(_ghost_mats(ctx, axis), u_patch)
    return TensorField(out.extents, ctx.params.gamma_ghost * out.data)


def _cell_block(blk: PointBlock, j: int) -> PointBlock:
    """The points of the j-th cut cell of blk as a block of one cell."""
    sl = slice(int(blk.ptr[j]), int(blk.ptr[j + 1]))
    n = sl.stop - sl.start
    normals = None if blk.normals is None else blk.normals[sl]
    return PointBlock(blk.points[sl], blk.weights[sl], np.zeros(n, dtype=np.int64),
                      np.array([0, n]), blk.vals[sl], blk.grads[sl], normals)


def _cut_cell_forms(ctx: OperatorContext, cell_flat: int, u_local: TensorField,
                    volume: bool, surface: bool) -> TensorField:
    """The batched cut kernels on the points of one cut cell."""
    j = int(np.searchsorted(ctx.cut_cells, cell_flat))
    if j >= len(ctx.cut_cells) or ctx.cut_cells[j] != cell_flat:
        raise ValueError(f"cell {cell_flat} is not a cut cell")
    u3 = u_local.as_grid()[None]
    out = np.zeros((1, u_local.data.size))
    if volume:
        cut_volume_apply(_cell_block(ctx.volume, j), ctx.mesh.spacing, u3, out)
    if surface:
        nitsche_apply(_cell_block(ctx.surface, j), ctx.mesh.spacing, ctx.nitsche_penalty, u3, out)
    return TensorField(u_local.extents, out[0])


def cut_cell_volume_apply(ctx: OperatorContext, cell_flat: int, u_local: TensorField) -> TensorField:
    """grad-grad part of one cut cell (no boundary terms)."""
    return _cut_cell_forms(ctx, cell_flat, u_local, volume=True, surface=False)


def cut_cell_surface_apply(ctx: OperatorContext, cell_flat: int, u_local: TensorField) -> TensorField:
    """Nitsche boundary terms of one cut cell."""
    return _cut_cell_forms(ctx, cell_flat, u_local, volume=False, surface=True)


def cut_cell_apply(ctx: OperatorContext, cell_flat: int, u_local: TensorField) -> TensorField:
    """Volume plus Nitsche contribution of one cut cell."""
    return _cut_cell_forms(ctx, cell_flat, u_local, volume=True, surface=True)


# ---------------------------------------------------------------------------
# right-hand side and elevated-order rules


def inside_chunks(ctx: OperatorContext):
    """Slices of at most _CELL_CHUNK uncut cells."""
    n = len(ctx.inside_cells)
    for start in range(0, n, _CELL_CHUNK):
        yield slice(start, min(start + _CELL_CHUNK, n))


def interior_quad_points(ctx: OperatorContext, lowers: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """Physical tensor quadrature grid per cell: (C, q, ..., q, d)."""
    d = ctx.mesh.dim
    q = len(gx)
    c = lowers.shape[0]
    pts = np.empty((c,) + (q,) * d + (d,))
    for a in range(d):
        shape = [1] * d
        shape[d - 1 - a] = q
        pts[..., a] = lowers[:, a].reshape((c,) + (1,) * d) + (gx * ctx.mesh.spacing[a]).reshape(shape)
    return pts


def assemble_rhs(ctx: OperatorContext, f) -> np.ndarray:
    """Right-hand side b_i = int_{Omega} f phi_i over interior and cut cells."""
    d = ctx.mesh.dim
    q = len(ctx.elem.quad_points)
    jac = prod(ctx.mesh.spacing)
    wgrid = sumfac.reference_weight_grid(ctx.elem.quad_weights, d).reshape((q,) * d) * jac
    b = np.zeros(ctx.n_dofs)

    for sl in inside_chunks(ctx):
        pts = interior_quad_points(ctx, ctx.inside_lower[sl], ctx.elem.quad_points)
        t = kron_batch([ctx.elem.shape_values] * d, np.asarray(f(pts), dtype=float) * wgrid)
        b += np.bincount(ctx.inside_dofs[sl].ravel(), weights=t.reshape(t.shape[0], -1).ravel(), minlength=ctx.n_dofs)

    blk = ctx.volume
    if blk.weights.size:
        acc = np.zeros(ctx.cut_dofs.shape)
        for sl, _ in point_chunks(blk):
            fw = np.asarray(f(blk.points[sl]), dtype=float) * blk.weights[sl]
            _scatter_cells(acc, blk.cell[sl], point_integrate(blk.vals[sl], blk.grads[sl], fw))
        b += np.bincount(ctx.cut_dofs.ravel(), weights=acc.ravel(), minlength=ctx.n_dofs)
    return b


def error_point_block(ctx: OperatorContext, order: int) -> PointBlock:
    """Cut-cell volume rules at an elevated order (cached per order)."""
    if order not in ctx._error_blocks:
        rules = _cut_rules(ctx.mesh, ctx.levelset, ctx.cut_cells, order, ctx.params.max_quad_depth)
        ctx._error_blocks[order] = _build_point_block(ctx.mesh, ctx.elem, ctx.cut_cells, rules, surface=False)
    return ctx._error_blocks[order]


def breakdown_report(ctx: OperatorContext) -> list[tuple[str, float, float]]:
    """(component, seconds, percent) rows for the accumulated vmult timings."""
    total = ctx.timers["total"]
    rows = []
    for name in ("interior", "intersected", "ghost_penalty", "scatter_other"):
        seconds = ctx.timers[name]
        rows.append((name, seconds, 100.0 * seconds / total if total > 0 else 0.0))
    return rows
