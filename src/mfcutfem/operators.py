"""Matrix-free application of the stabilized cut Poisson operator.

``vmult`` applies  A = A_volume + A_nitsche + gamma_A * A_ghost  to a compact
vector of active DoFs without assembling a global matrix.  The operator is a
list of pieces (component, DoF table, local matrix); ``vmult`` gathers each
piece's local values, runs its kernel to local contributions and scatters
them, in this order:

* "interior": uncut cells, the Kronecker sum of the 1D stiffness and mass
  matrices, K1 / h_a along one axis and h_b M1 along the others, summed
  over the axes (``sumfac.cell_laplacian_kernel``),
* "intersected": cut cells integrate the same weak form over their
  precomputed volume rule and add the symmetric Nitsche boundary terms
  -(dn u, v) - (u, dn v) + (gamma_D / h)(u, v) on the embedded surface.  Both
  terms run in one pass of one kernel, ``cut_apply``, over one cut block:
  each cut cell's volume points and then its surface points.  A cell whose
  rule holds more than (2k+1)^d volume points (one that cut quadrature
  subdivided for want of a height axis: ball-union kinks, some sphere
  cells) enters the block with the moment-fitted rule on the (2k+1)^d
  tensor grid of Gauss nodes (``_moment_fitted``): every volume integrand
  lies in Q_2k, where that rule is exact, so the cell's volume matrix
  changes only in rounding; the right-hand side and the error keep the
  full rules.  The block holds basis rows r, each with a factor f, and the
  cut piece of a slot is R^T diag(f) R.  A volume point gives the d
  reference derivative rows d_a phi_i with factors w / h_a^2.  A surface
  point couples its value row phi_i and its Nitsche row D_i = sum_a (-w n_a
  / h_a) d_a phi_i through the symmetric 2x2 matrix [[penalty w, 1], [1,
  0]]; the block stores its two eigen-rows instead, so a surface point
  gives 2 rows, also in 3D, and no row couples to another.  The rows sit
  in fixed-size slots of S rows: a cell of n_c rows fills ceil(n_c / S)
  slots of its own, the last one padded with exact zeros, and S is the
  most common n_c (the smallest on a tie), so most cells fill one slot
  exactly.  The rows are slot-major, (n_slots, S, nloc), each slot one
  C-contiguous matrix.  One batched matrix-vector product takes each
  slot's gathered cell coefficients to one number y per row, y *= factors,
  and a second batched product takes y back to one row of nloc
  test-function values per slot.  A cell of several slots gives several
  rows, which the scatter sums,
* "ghost_penalty", one piece per axis: the faces normal to it apply
  gamma_A * (hM1 x ... x G1(h) x ... x hM1), the Kronecker product of 1D
  factors with G1 on the face-normal axis (``ghost_face_kernel``).

On a uniform Cartesian mesh every uncut cell has the same local matrix, and
so do all ghost faces of one axis.  ``build_context`` therefore probes the
interior kernel and each ghost axis's kernel once with an identity batch and
keeps the (m, m) results, ``interior_matrix`` and ``ghost_matrices``;
``vmult`` applies each of those pieces as one matrix product over its whole
batch.  The factored kernels stay the one implementation the matrices cache,
and the per-cell and per-face forms (``sumfac.cell_laplacian``,
``ghost_face_apply``) run them directly.  The cut piece has no shared matrix
and runs its kernel on every call.

Everything that depends only on the geometry is tabulated once, when the
context is built: the cut block (``cut_block``), whose basis rows,
products of the cut points' 1D tables, are tabulated chunk by chunk and
written to their row slots, with the rows' factors and each slot's cell;
the list of pieces (``pieces``), whose cut piece's DoF table holds the
DoFs of each slot's cell, nloc per slot; and one scatter index over the
values of all pieces.  No block holds a per-point DoF index.  A ``vmult``
call does only the work that depends on u: each piece gathers by its DoF
table once and writes its values into its slice of one value buffer, in
scatter order (the GEMMs through ``sumfac.contract_axis``, the cut piece
one row per slot), and a single ``bincount`` adds the buffer into the
result.

Empty pieces are left out, and so are the ghost pieces when gamma_A = 0.
``apply_ghost_penalty`` and ``assemble_rhs`` scatter with one ``bincount``
over their concatenated DoFs and values; cut cells' segment sums go to
their cells' DoFs.  The domain integrals ``assemble_rhs`` and
``squared_l2_error`` share the uncut tensor rule and cell walk, read user
functions through one checked evaluation, and on cut cells keep only the
rows of the rules (points, weights, cells), which they tabulate chunk by
chunk when they run (``_tabulated_chunks``): each is read once per call,
so no 1D table outlives its chunk.  The RHS sums f w times the value rows
by cell segment on the volume rules; the error gathers each point's cell
coefficients and contracts them one axis at a time on the rules of its
own order, k+2, built in the call: each caller reads the error once
per context, so the context keeps no rule of it.  Every basis row of a
cut point, value or derivative, is one product of 1D table entries per
axis (``_tensor_rows``).  All batches and reductions run in a fixed
order, so results are bitwise reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import prod

import numpy as np

from . import cutquad, geometry, sumfac, tensor1d
from .geometry import CartesianMesh, Label
from .sumfac import TensorField, cell_laplacian_kernel, kron_batch

_CELL_CHUNK = 4096
_POINT_CHUNK = 1 << 16  # values of a (k+1,)*d + (P,) array per point chunk
_COMPONENTS = ("interior", "intersected", "ghost_penalty", "scatter_other")  # of vmult's time


@dataclass
class Parameters:
    """Discretization parameters; None picks the degree-based default."""

    degree: int
    gamma_ghost: float = 0.5
    gamma_dirichlet: float | None = None  # default 30 k (k+1)
    quad_order: int | None = None         # default k+1; cut rules, sign samples, the RHS's uncut rule (at least k+1)
    max_quad_depth: int = 8

    def __post_init__(self):
        k = self.degree
        if self.gamma_dirichlet is None:
            self.gamma_dirichlet = 30.0 * k * (k + 1)
        if self.quad_order is None:
            self.quad_order = k + 1
        for name, least in (("degree", 1), ("quad_order", 1), ("max_quad_depth", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not 0 <= self.gamma_ghost < np.inf:
            raise ValueError(f"gamma_ghost must be finite and >= 0, got {self.gamma_ghost}")
        if not np.isfinite(self.gamma_dirichlet):
            raise ValueError(f"gamma_dirichlet must be finite, got {self.gamma_dirichlet}")


@dataclass
class PointBlock:
    """The rows of one kind of cut-cell rules (volume, surface or error
    order), concatenated cell by cell.  No block holds a table: the domain
    integrals tabulate theirs chunk by chunk when they run, and the basis
    rows of cut_apply are in the cut block."""

    points: np.ndarray   # (N, d) physical coordinates
    weights: np.ndarray  # (N,)
    cell: np.ndarray     # (N,) position in the cut-cell list, nondecreasing
    normals: np.ndarray | None = None  # (N, d) for the surface block


@dataclass
class CutBlock:
    """The one operand of cut_apply, R^T diag(f) R per slot: every cut cell's
    volume points and then its surface points as rows in fixed-size slots of
    S rows, each row with its factor.  A volume point gives the d reference
    derivative rows R_a with factors w / h_a^2; a surface point gives the two
    eigen-rows of its Nitsche coupling (cut_block).  A cell of n_c rows fills
    ceil(n_c / S) slots of its own, the last one padded with exact zeros in
    rows and factors.  S is the most common row count of a cell with points
    (the smallest on a tie), so most cells fill one slot exactly.  A cell has
    at most (2k+1)^d volume points: those of its rule, or the moment-fitted
    grid points that replace more.  Tabulated once, in this order, by
    cut_block."""

    rows: np.ndarray     # (n_slots, S, nloc)
    factors: np.ndarray  # (n_slots, S), 0 at padding
    cell: np.ndarray     # (n_slots,) the cut cell of each slot (position in the cut-cell list), nondecreasing
    real: np.ndarray     # (n_slots, S) True at rows, False at padding


def _zero_timers() -> dict:
    """vmult's accumulated seconds per component and in total, and its count."""
    return {**dict.fromkeys(_COMPONENTS + ("total",), 0.0), "applications": 0}


@dataclass
class OperatorContext:
    """Everything vmult needs, precomputed once per (mesh, level set, k); the
    fields not passed to the constructor are derived from the others, and
    each context, a dataclasses.replace copy too, starts its own timers."""

    mesh: CartesianMesh
    levelset: object
    params: Parameters
    elem: tensor1d.ReferenceElement1D
    classification: geometry.CellClassification
    dofmap: geometry.DofMap
    faces: np.ndarray               # (n_faces, 2) rows (axis, flat lower cell)
    inside_cells: np.ndarray
    cut_cells: np.ndarray
    inside_dofs: np.ndarray         # (n_inside, nloc) compact indices
    cut_dofs: np.ndarray            # (n_cut, nloc)
    face_dofs: dict[int, np.ndarray]  # axis -> (n_faces, patch size)
    volume: PointBlock              # the full volume rules, read by the RHS; their basis rows are in cut
    surface: PointBlock             # their basis rows are in cut
    cut: CutBlock
    fallbacks: np.ndarray           # (n_cut,) sign-of-center fallbacks of each cut cell's rules
    interior_matrix: np.ndarray     # (nloc, nloc) local matrix of every uncut cell
    ghost_matrices: dict[int, np.ndarray]  # axis -> (patch size,)*2, gamma_A included; empty if gamma_A = 0
    pieces: list[tuple] = field(init=False)          # (component, DoF table, local matrix) in scatter order
    scatter_index: np.ndarray = field(init=False)    # DoF of each value vmult's pieces produce, in order
    timers: dict[str, float] = field(init=False, default_factory=_zero_timers)

    def __post_init__(self):
        self.pieces = _pieces(self)  # none on a mesh with no active cell
        self.scatter_index = np.concatenate([np.empty(0, dtype=np.intp)] + [i for _, i, _ in self.pieces], axis=None)

    @property
    def n_dofs(self) -> int:
        return self.dofmap.n_active

    @property
    def fallback_count(self) -> int:
        return int(self.fallbacks.sum())

    @property
    def cut_rules(self) -> dict[int, cutquad.CutCellQuadrature]:
        """Each cut cell's rows of ``volume`` and ``surface`` and its fallback
        count, keyed by flat cell index, built on access."""
        v, s = self.volume, self.surface
        rules = cutquad.CutCellQuadrature(v.points, v.weights, v.cell, s.points, s.weights, s.normals, s.cell,
                                          self.fallbacks)
        return dict(zip(self.cut_cells.tolist(), map(rules.box, range(len(self.cut_cells)))))


def reset_timers(ctx: OperatorContext) -> None:
    ctx.timers = _zero_timers()


def tabulate(elem, xi: np.ndarray) -> np.ndarray:
    """1D basis values per axis at reference coordinates xi (P, d): the
    point-last (d, k+1, P) table the point kernels read, one array written
    axis by axis (elem.table)."""
    out = np.empty((xi.shape[1], elem.degree + 1, len(xi)))
    for a, tab in enumerate(out):
        elem.table(xi[:, a], out=tab)
    return out


def _chunks(cell: np.ndarray, nloc: int):
    """Chunks of P points, P nloc at most _POINT_CHUNK, of points grouped by
    their nondecreasing cell: (points, the starts of their per-cell
    segments in them, the segments' cells)."""
    step = max(1, _POINT_CHUNK // nloc)
    for start in range(0, len(cell), step):
        part = cell[start:start + step]
        starts = np.flatnonzero(np.diff(part, prepend=-1))
        yield slice(start, start + len(part)), starts, part[starts]


def _tabulated_chunks(ctx: OperatorContext, blk: PointBlock):
    """The chunks of a rules block (_chunks), each with the (d, k+1, P) 1D
    value tables of its points, tabulated for that chunk only: (points,
    segment starts, segment cells, tables)."""
    for sl, starts, cells in _chunks(blk.cell, ctx.cut_dofs.shape[1]):
        xi = _reference_coords(ctx.mesh, ctx.cut_cells, blk.points[sl], blk.cell[sl])
        yield sl, starts, cells, tabulate(ctx.elem, xi)


def cut_block(elem, spacing, volume: tuple, surface: tuple | None = None, penalty: float = 0.0) -> CutBlock:
    """The cut piece's one block from volume points (xi, weights, cell) and,
    if given, surface points (xi, weights, cell, normals), each kind at
    reference coordinates xi (N, d) and grouped by cell: each cell's volume
    points, moment-fitted where it has more than (2k+1)^d (_moment_fitted),
    and then its surface points, as rows in slots of S rows.  A volume point
    gives its d derivative rows R_a, factors w / h_a^2.  A surface point's
    value row phi and Nitsche row D = sum_a (-w n_a / h_a) R_a couple by
    [[p, 1], [1, 0]], p = penalty w, whose eigenvalues lam = sign(p) (|p| +
    sqrt(p^2 + 4)) / 2 and -1 / lam have no cancellation for any finite p:
    it gives the rows (lam phi + D) / sqrt(lam^2 + 1) with factor lam and
    the same for -1 / lam.  The rows are tabulated chunk by chunk from the
    1D tables of the chunk's points, each chunk's (d, nloc, P), at most
    _POINT_CHUNK values, written to its row slots."""
    volume = _moment_fitted(elem, *volume)
    parts = [volume + (np.zeros_like(volume[0]),)] + ([] if surface is None else [surface])  # no volume normal
    order = np.argsort(np.concatenate([part[2] for part in parts]), kind="stable")  # volume points stay first
    xi, weights, cell, normals = (np.concatenate(arrays)[order] for arrays in zip(*parts))
    surf = order >= len(volume[2])
    d, nloc, h = xi.shape[1], (elem.degree + 1) ** xi.shape[1], np.asarray(spacing, dtype=float)
    factors = weights[:, None] / np.square(h)  # (N, d): a surface point's first two are its eigenvalues
    p = penalty * weights[surf]
    lam = np.copysign(0.5 * (np.abs(p) + np.hypot(p, 2.0)), p)
    factors[surf, :2] = np.stack([lam, -1.0 / lam], axis=1)
    mine = np.arange(d) < np.where(surf, 2, d)[:, None]  # (N, d): the rows each point has, in block order
    row_cell = np.repeat(cell, mine.sum(1))
    counts = np.bincount(row_cell)  # each cell's rows, then its slots and each row's slot and place in it
    size = 1 + int(np.argmax(np.bincount(counts, minlength=2)[1:]))  # S: most common count but 0, least on a tie
    per_cell = -(-counts // size)
    rank = np.arange(len(row_cell)) - (np.cumsum(counts) - counts)[row_cell]
    slot, place = (np.cumsum(per_cell) - per_cell)[row_cell] + rank // size, rank % size
    n = per_cell.sum()
    blk = CutBlock(np.zeros((n, size, nloc)), np.zeros((n, size)),  # padding stays 0
                   np.repeat(np.arange(len(counts)), per_cell), np.zeros((n, size), dtype=bool))
    blk.factors[slot, place], blk.real[slot, place] = factors[mine], True
    end = 0
    for sl, _, _ in _chunks(cell, d * nloc):
        vals, part = tabulate(elem, xi[sl]), np.empty((d, nloc, sl.stop - sl.start))
        for a in range(d):  # R_a, with the derivative table of axis a alive for this call only
            _tensor_rows([elem.table(xi[sl, a], 1) if b == a else vals[b] for b in range(d)], 1, out=part[a])
        s = np.flatnonzero(surf[sl])  # surface columns: D summed from zero axis by axis, then the two rows
        coefs = -(weights[sl][s, None] * normals[sl][s]) / h
        nitsche = np.zeros((nloc, len(s)))
        for a in range(d):
            nitsche += coefs[:, a] * part[a][:, s]
        phi = _tensor_rows(vals[..., s], 1)
        for j, ev in enumerate(factors[sl][s, :2].T):
            part[j][:, s] = (ev * phi + nitsche) / np.hypot(ev, 1.0)
        start, end = end, end + np.count_nonzero(mine[sl])
        blk.rows[slot[start:end], place[start:end]] = part.transpose(2, 0, 1)[mine[sl]]
    return blk


def _moment_fitted(elem, xi, weights, cell) -> tuple:
    """Volume points (xi, weights, cell), grouped by cell, with the rule of
    every cell of more than (2k+1)^d points replaced by the interpolatory
    rule on the tensor grid of the 2k+1 Gauss nodes: weights W_j = sum_p
    w_p L_j(x_p), the moments of the cell's rule against the tensor
    Lagrange basis L_j of degree 2k on that grid, summed chunk by chunk
    from _tensor_rows of the 1D Lagrange tables.  Interpolation on the grid
    is exact on Q_2k, which holds every volume integrand d_a phi_i d_a phi_j,
    so the cell's volume matrix is the same but for rounding (weights may be
    negative).  Every other cell keeps its points, in order.  The tables
    are taken on [-1, 1], at 2 xi - 1: there the monomial coefficients of
    the 1D basis stay below 20 at k = 3, where on [0, 1] they reach 2,669
    and Horner's rule loses 5.7e-13."""
    d, n = xi.shape[1], 2 * elem.degree + 1
    nodes, m = np.polynomial.legendre.leggauss(n)[0], n**d
    counts = np.bincount(cell)
    crowded = np.flatnonzero(counts > m)
    if not crowded.size:
        return xi, weights, cell
    fit = tensor1d.build_reference_element(n - 1, nodes=nodes)
    keep = counts[cell] <= m
    moments, sub = np.zeros((len(crowded), m)), np.flatnonzero(~keep)
    for sl, starts, rank in _chunks(np.searchsorted(crowded, cell[sub]), m):
        rows = _tensor_rows(tabulate(fit, 2 * xi[sub[sl]] - 1), weights[sub[sl]])
        moments[rank] += np.add.reduceat(rows, starts, axis=1).T  # a cell split over two chunks adds twice
    grid = tensor1d.gauss_rule(n)[0][np.indices((n,) * d).reshape(d, -1)[::-1].T]  # (m, d), axis 0 fastest
    return (np.concatenate([xi[keep], np.tile(grid, (len(crowded), 1))]),
            np.concatenate([weights[keep], moments.ravel()]),
            np.concatenate([cell[keep], np.repeat(crowded, m)]))


def _reference_coords(mesh, cut_cells, points, cell) -> np.ndarray:
    """The points of the cut cells (cell: position in cut_cells) at their
    coordinates in the reference cell."""
    spacing = np.asarray(mesh.spacing)
    return (points - (np.asarray(mesh.origin) + mesh.cell_multi(cut_cells[cell]) * spacing)) / spacing


def _cut_rules(mesh, levelset, cells, order: int, max_depth: int) -> cutquad.CutCellQuadrature:
    """The rules of the given order of all the cells, by one call through the
    module, so that a caller swapping the attribute (a tracer) sees it.  A
    failure names its cell, or the first cell when it names no box."""
    lo, hi = mesh.cell_box(mesh.cell_multi(cells))
    try:
        return cutquad.cut_cell_quadrature(lo, hi, levelset, order, max_depth)
    except cutquad.QuadratureError as exc:
        raise cutquad.QuadratureError(f"cell {int(cells[exc.box or 0])}: {exc}") from exc


def build_context(mesh: CartesianMesh, levelset, params: Parameters) -> OperatorContext:
    """Classify as the cut rules sample, enumerate DoFs and ghost faces, build
    the cut rules, probe the local matrices of the interior and ghost pieces,
    and tabulate what every vmult reads: the cut block's basis rows, factors
    and slots, the pieces and the scatter index.  Rules stay untabulated."""
    k = params.degree
    elem = tensor1d.build_reference_element(k)
    classification = geometry.classify_cells(mesh, levelset, cutquad.sign_samples(params.quad_order))
    dofmap = geometry.build_dofmap(mesh, k, classification)
    faces = geometry.ghost_faces(classification)

    inside_cells = classification.cells_with(Label.INSIDE)
    cut_cells = classification.cells_with(Label.CUT)
    face_dofs = {
        axis: dofmap.compact_cell_dofs(faces[faces[:, 0] == axis, 1], axis)
        for axis in range(mesh.dim)
        if (faces[:, 0] == axis).any()
    }

    rules = _cut_rules(mesh, levelset, cut_cells, params.quad_order, params.max_quad_depth)
    vol_w, vol_cell = rules.interior_weights, rules.interior_box
    surf_w, surf_cell, normals = rules.surface_weights, rules.surface_box, rules.surface_normals
    vol_xi = _reference_coords(mesh, cut_cells, rules.interior_points, vol_cell)
    surf_xi = _reference_coords(mesh, cut_cells, rules.surface_points, surf_cell)
    return OperatorContext(
        mesh=mesh,
        levelset=levelset,
        params=params,
        elem=elem,
        classification=classification,
        dofmap=dofmap,
        faces=faces,
        inside_cells=inside_cells,
        cut_cells=cut_cells,
        inside_dofs=dofmap.compact_cell_dofs(inside_cells),
        cut_dofs=dofmap.compact_cell_dofs(cut_cells),
        face_dofs=face_dofs,
        volume=PointBlock(rules.interior_points, vol_w, vol_cell),
        surface=PointBlock(rules.surface_points, surf_w, surf_cell, normals),
        cut=cut_block(elem, mesh.spacing, (vol_xi, vol_w, vol_cell), (surf_xi, surf_w, surf_cell, normals),
                      params.gamma_dirichlet / min(mesh.spacing)),
        fallbacks=rules.fallbacks,
        interior_matrix=_probe(cell_laplacian_kernel(elem, mesh.spacing), (k + 1) ** mesh.dim),
        ghost_matrices={a: _probe(ghost_face_kernel(elem, mesh.spacing, params.gamma_ghost, a), idx.shape[1])
                        for a, idx in face_dofs.items() if params.gamma_ghost != 0.0},
    )


# ---------------------------------------------------------------------------
# point kernels: tensor rows of the 1D tables, and cut_apply on the
# tabulated basis rows


def _tensor_rows(tabs, coef, out: np.ndarray | None = None) -> np.ndarray:
    """coef (P,) times the product of the per-axis 1D tables tabs, each
    (k+1, P): the (nloc, P) rows of the tensor basis at each point, tensor
    axis 0 fastest.  Given a C-contiguous out (nloc, P), the last axis's
    product is one multiply into it, with no (nloc, P) temporary."""
    acc, last = coef, len(tabs) - 1
    for i, tab in enumerate(tabs):
        tab = tab.reshape(tab.shape[:1] + (1,) * (np.ndim(acc) - 1) + tab.shape[1:])
        into = out.reshape(np.broadcast_shapes(tab.shape, np.shape(acc))) if i == last and out is not None else None
        acc = np.multiply(tab, acc, out=into)
    return acc.reshape(prod(acc.shape[:-1]), acc.shape[-1])


def cut_apply(blk: CutBlock, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The cut piece for the coefficients g (n_slots, nloc) of each slot's
    cell: one row of nloc values per slot, in out (a new array if None),
    R^T diag(f) R g with R the slot's rows and f their factors.  One batched
    matrix-vector product takes g to y = R g (S per slot), y *= f, and a
    second batched product takes y back, y^T R: the grad-grad term at the
    volume rows and the symmetric Nitsche terms at the surface rows, each
    row on its own.  Padding adds exact zeros, and the rows of a cell's
    several slots are summed by the caller's scatter."""
    n, size = blk.factors.shape
    out = np.empty(g.shape) if out is None else out
    y = np.matmul(blk.rows, g[..., None]).reshape(n, 1, size)
    y *= blk.factors[:, None]
    np.matmul(y, blk.rows, out=out[:, None])
    return out


# ---------------------------------------------------------------------------
# operator pieces: (component, DoF table, local matrix)


def ghost_face_kernel(elem, spacing, gamma: float, axis: int):
    """gamma times the face operator of axis on face patches (B, m), m the
    patch size: h_b M1 on the tangential axes b and G1(h_axis) on the
    face-normal axis, the Kronecker product of the 1D factors."""
    k, mass = elem.degree, tensor1d.mass_matrix_1d(elem)
    mats = [tensor1d.ghost_matrix_1d(elem, h) if b == axis else h * mass for b, h in enumerate(spacing)]
    shape = tuple(2 * k + 1 if b == axis else k + 1 for b in range(len(spacing)))[::-1]
    return lambda u: (gamma * kron_batch(mats, u.reshape((len(u),) + shape))).reshape(len(u), -1)


def _probe(kernel, m: int) -> np.ndarray:
    """The (m, m) matrix of a linear batched kernel: row i of kernel(I) is its
    image of the i-th unit vector, so the matrix is that batch transposed."""
    return kernel(np.eye(m)).T


def _pieces(ctx: OperatorContext) -> list[tuple]:
    """(component, DoF table, local matrix) of every non-empty piece, in
    scatter order; the cut piece has no matrix and runs cut_apply.  Built
    once, into ctx.pieces, which vmult and the ghost penalty loop over."""
    pieces = []
    if len(ctx.inside_cells):
        pieces.append(("interior", ctx.inside_dofs, ctx.interior_matrix))
    if len(ctx.cut_cells):
        pieces.append(("intersected", ctx.cut_dofs[ctx.cut.cell], None))
    pieces += [("ghost_penalty", ctx.face_dofs[a], ctx.ghost_matrices[a]) for a in sorted(ctx.ghost_matrices)]
    return pieces


# ---------------------------------------------------------------------------
# public operator actions


def _dof_vector(ctx: OperatorContext, u) -> np.ndarray:
    """u as a float vector of ctx's DoFs; any other shape is a ValueError."""
    u = np.asarray(u, dtype=float)
    if u.shape != (ctx.n_dofs,):
        raise ValueError(f"expected vector of length {ctx.n_dofs}, got {u.shape}")
    return u


def vmult(ctx: OperatorContext, u: np.ndarray) -> np.ndarray:
    """Apply the full operator; per-component timings accumulate on ctx."""
    u = _dof_vector(ctx, u)
    t_start = time.perf_counter()
    vals, end = np.empty(ctx.scatter_index.size), 0  # each piece writes its slice, in scatter order
    for component, idx, mat in ctx.pieces:
        t0 = time.perf_counter()
        start, end = end, end + idx.size
        out = vals[start:end].reshape(idx.shape)
        if mat is not None:
            sumfac.contract_axis(mat, u[idx], 1, out=out)
        else:  # the cut piece: one gather by slot, two batched products over the cut block
            cut_apply(ctx.cut, np.take(u, idx), out)
        ctx.timers[component] += time.perf_counter() - t0
    w = np.bincount(ctx.scatter_index, weights=vals, minlength=ctx.n_dofs)

    ctx.timers["total"] += time.perf_counter() - t_start
    ctx.timers["scatter_other"] = ctx.timers["total"] - sum(ctx.timers[c] for c in _COMPONENTS[:-1])
    ctx.timers["applications"] += 1
    return w


def apply_ghost_penalty(ctx: OperatorContext, u: np.ndarray) -> np.ndarray:
    """Only the ghost-penalty part gamma_A * A_ghost (zero when gamma_A = 0)."""
    u = _dof_vector(ctx, u)
    ghost = [(idx, mat) for name, idx, mat in ctx.pieces if name == "ghost_penalty"]
    idx = np.concatenate([np.empty(0, dtype=np.intp)] + [i for i, _ in ghost], axis=None)  # none if gamma_A = 0
    vals = np.concatenate([np.empty(0)] + [sumfac.contract_axis(m, u[i], 1) for i, m in ghost], axis=None)
    return np.bincount(idx, weights=vals, minlength=ctx.n_dofs)


def ghost_face_apply(ctx: OperatorContext, axis: int, u_patch: TensorField) -> TensorField:
    """One face normal to axis: its ghost-penalty kernel on a batch of one."""
    ext = ctx.dofmap.patch_extents(axis)
    if not 0 <= axis < ctx.mesh.dim or u_patch.extents != ext:
        raise ValueError(f"expected a patch of extents {ext} normal to axis {axis}, got {u_patch.extents}")
    kernel = ghost_face_kernel(ctx.elem, ctx.mesh.spacing, ctx.params.gamma_ghost, axis)
    return TensorField(ext, kernel(u_patch.data[None])[0])


# ---------------------------------------------------------------------------
# domain integrals: right-hand side and squared L2 error


def _uncut_chunks(ctx: OperatorContext, order: int):
    """The tensor Gauss rule of the given order on the uncut cells in chunks of
    at most _CELL_CHUNK cells: (slice, physical points (C, q, ..., q, d), and
    the same (k+1, q) basis table and physical weight grid (q,) * d)."""
    gx, gw = tensor1d.gauss_rule(order)
    d, q, n = ctx.mesh.dim, order, len(ctx.inside_cells)
    tab = ctx.elem.table(gx)
    wgrid = sumfac.reference_weight_grid(gw, d).reshape((q,) * d) * prod(ctx.mesh.spacing)
    for start in range(0, n, _CELL_CHUNK):
        sl = slice(start, min(start + _CELL_CHUNK, n))
        lowers = ctx.mesh.cell_box(ctx.mesh.cell_multi(ctx.inside_cells[sl]))[0]
        pts = np.empty((lowers.shape[0],) + (q,) * d + (d,))
        for a in range(d):
            shape = [1] * d
            shape[d - 1 - a] = q
            pts[..., a] = lowers[:, a].reshape((-1,) + (1,) * d) + (gx * ctx.mesh.spacing[a]).reshape(shape)
        yield sl, pts, tab, wgrid


def _values(fn, pts: np.ndarray) -> np.ndarray:
    """A user function fn at the points pts (..., d), as floats of shape
    pts.shape[:-1] (a scalar broadcasts); a non-finite value is a ValueError
    that names its point."""
    vals = np.broadcast_to(np.asarray(fn(pts), dtype=float), pts.shape[:-1])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"non-finite value {vals.flat[bad[0]]} at x = {pts.reshape(-1, pts.shape[-1])[bad[0]]}")
    return vals


def assemble_rhs(ctx: OperatorContext, f) -> np.ndarray:
    """Right-hand side b_i = int_{Omega} f phi_i over interior and cut cells,
    uncut ones at Gauss order max(quad_order, k+1)."""
    idx, vals = [np.empty(0, dtype=np.intp)], [np.empty(0)]  # a mesh with no active cell has no value
    for sl, pts, tab, wgrid in _uncut_chunks(ctx, max(ctx.params.quad_order, ctx.elem.degree + 1)):
        idx.append(ctx.inside_dofs[sl])
        vals.append(kron_batch([tab] * ctx.mesh.dim, _values(f, pts) * wgrid))
    blk = ctx.volume
    for sl, starts, cells, tables in _tabulated_chunks(ctx, blk):
        idx.append(ctx.cut_dofs[cells].T)
        rows = _tensor_rows(tables, _values(f, blk.points[sl]) * blk.weights[sl])
        vals.append(np.add.reduceat(rows, starts, axis=1))  # summed over each cell's segment of the chunk
    return np.bincount(np.concatenate(idx, axis=None), weights=np.concatenate(vals, axis=None), minlength=ctx.n_dofs)


def squared_l2_error(ctx: OperatorContext, u_h: np.ndarray, u_exact) -> float:
    """Integral of (u_h - u_exact)^2 over the physical domain at order k+2,
    one above the exact order of the basis: the tensor Gauss rule on uncut
    cells and cut-cell volume rules of that order, built in the call and
    dropped at its end."""
    u_h = _dof_vector(ctx, u_h)
    d, order = ctx.mesh.dim, ctx.elem.degree + 2
    cell_shape = (-1,) + (ctx.elem.degree + 1,) * d
    err2 = 0.0
    for sl, pts, tab, wgrid in _uncut_chunks(ctx, order):
        t = kron_batch([tab.T] * d, u_h[ctx.inside_dofs[sl]].reshape(cell_shape))
        diff = t - _values(u_exact, pts)
        err2 += float(np.sum(diff * diff * wgrid))

    rules = _cut_rules(ctx.mesh, ctx.levelset, ctx.cut_cells, order, ctx.params.max_quad_depth)
    blk = PointBlock(rules.interior_points, rules.interior_weights, rules.interior_box)
    uc = np.take(u_h, ctx.cut_dofs.T)  # (nloc, n_cut)
    vals = np.empty(blk.weights.size)
    for sl, _, _, tables in _tabulated_chunks(ctx, blk):  # one tensor axis at a time, axis 0 (the fastest) first
        g = np.take(uc, blk.cell[sl], axis=1).reshape(cell_shape[1:] + (-1,))
        for tab in tables:
            g = np.einsum("...ip,ip->...p", g, tab)
        vals[sl] = g
    diff = vals - _values(u_exact, blk.points)
    return err2 + float(np.sum(diff * diff * blk.weights))


def breakdown_report(ctx: OperatorContext) -> list[tuple[str, float, float]]:
    """(component, seconds, percent) rows for the accumulated vmult timings."""
    total = ctx.timers["total"]
    rows = []
    for name in _COMPONENTS:
        seconds = ctx.timers[name]
        rows.append((name, seconds, 100.0 * seconds / total if total > 0 else 0.0))
    return rows
