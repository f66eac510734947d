"""Independent reference implementations used only by the tests.

Everything here is built from first principles — explicit Lagrange
polynomials via poly1d products, dense matrices, brute-force Kronecker
products — deliberately avoiding the package's own evaluation pipelines, so
agreement between the two is a meaningful check.  There are two
exceptions, former package code kept so that the code that replaced it can
be compared against it: the point pair on point-first tables, the einsum
kernels that the point-last ones replaced, and at the end the cut
quadrature's recursive one-box-at-a-time algorithm, compared bitwise, box
by box.
"""

import math

import numpy as np

from mfcutfem.cutquad import DERIVATIVE_DOMINANCE, ROOT_BITS, CutCellQuadrature, QuadratureError
from mfcutfem.tensor1d import gauss_rule


def lagrange_poly(nodes, i):
    """L_i as a poly1d built from the product formula."""
    p = np.poly1d([1.0])
    for j, xj in enumerate(nodes):
        if j != i:
            p = p * np.poly1d([1.0, -xj]) / (nodes[i] - xj)
    return p


def eval_basis(nodes, x, deriv=0):
    """Values (or deriv-th derivatives) of all Lagrange basis polynomials.

    Returns shape x.shape + (len(nodes),).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(len(nodes)):
        p = lagrange_poly(nodes, i)
        for _ in range(deriv):
            p = p.deriv()
        cols.append(p(x))
    return np.stack(cols, axis=-1)


def mass_matrix(nodes):
    """Exact 1D mass matrix on [0, 1] by polynomial antidifferentiation."""
    n = len(nodes)
    m = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            prod = lagrange_poly(nodes, i) * lagrange_poly(nodes, j)
            anti = prod.integ()
            m[i, j] = anti(1.0) - anti(0.0)
    return m


def jump_vector(nodes, m):
    """Jump of the m-th derivative at the shared point of a two-cell patch.

    Patch basis: len(nodes)-1 = k, functions 0..k-1 live only on the left
    cell, function k is shared, functions k+1..2k live only on the right
    cell.  Both cells have unit reference length.
    """
    k = len(nodes) - 1
    j = np.zeros(2 * k + 1)
    for i in range(k + 1):
        p = lagrange_poly(nodes, i)
        for _ in range(m):
            p = p.deriv()
        j[i] -= p(1.0)   # trace from the left cell
        j[k + i] += p(0.0)  # trace from the right cell
    return j


def ghost_matrix(nodes, h):
    k = len(nodes) - 1
    g = np.zeros((2 * k + 1, 2 * k + 1))
    for m in range(1, k + 1):
        jm = jump_vector(nodes, m)
        g += np.outer(jm, jm) / math.factorial(m) ** 2
    return g / h


def dense_kron(mats):
    """Dense matrix acting on flat fields whose FIRST axis index is fastest."""
    out = np.asarray(mats[0], dtype=float)
    for m in mats[1:]:
        out = np.kron(np.asarray(m, dtype=float), out)
    return out


def tensor_basis_eval(nodes, xi, derivs):
    """All (k+1)^d tensor-product basis functions at reference points.

    xi has shape (P, d); derivs is a length-d tuple of derivative orders per
    axis.  Columns are ordered with the axis-0 index fastest.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    d = xi.shape[1]
    out = eval_basis(nodes, xi[:, 0], derivs[0])
    for a in range(1, d):
        nxt = eval_basis(nodes, xi[:, a], derivs[a])
        out = (nxt[:, :, None] * out[:, None, :]).reshape(xi.shape[0], -1)
    return out


def gauss_points_weights(q):
    """Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


def dense_cell_stiffness(nodes, spacing, q):
    """Exact weak-Laplacian matrix of one uncut cell, assembled densely."""
    d = len(spacing)
    n = len(nodes)
    gx, gw = gauss_points_weights(q)
    pts = np.stack(np.meshgrid(*([gx] * d), indexing="ij")[::-1], axis=-1).reshape(-1, d)
    wts = np.ones(len(pts))
    for wg in np.meshgrid(*([gw] * d), indexing="ij"):
        wts *= wg.reshape(-1)
    jac = float(np.prod(spacing))
    a_mat = np.zeros((n**d, n**d))
    for a in range(d):
        derivs = tuple(1 if b == a else 0 for b in range(d))
        g = tensor_basis_eval(nodes, pts, derivs)
        a_mat += (g * wts[:, None]).T @ g * (jac / spacing[a] ** 2)
    return a_mat


def dense_cut_volume(nodes, spacing, cell_lo, pts, wts):
    """grad-grad matrix of one cut cell from given physical points/weights."""
    d = len(spacing)
    cell_lo = np.asarray(cell_lo, dtype=float)
    xi = (np.asarray(pts, dtype=float) - cell_lo) / np.asarray(spacing)
    n = len(nodes)
    a_mat = np.zeros((n**d, n**d))
    if len(wts) == 0:
        return a_mat
    for a in range(d):
        derivs = tuple(1 if b == a else 0 for b in range(d))
        g = tensor_basis_eval(nodes, xi, derivs)
        a_mat += (g * np.asarray(wts)[:, None]).T @ g / spacing[a] ** 2
    return a_mat


def dense_cut_nitsche(nodes, spacing, cell_lo, pts, wts, normals, penalty):
    """Symmetric Nitsche boundary matrix of one cut cell.

    penalty is the full coefficient gamma_D / h multiplying the (u, v) term.
    """
    d = len(spacing)
    n = len(nodes)
    a_mat = np.zeros((n**d, n**d))
    if len(wts) == 0:
        return a_mat
    cell_lo = np.asarray(cell_lo, dtype=float)
    xi = (np.asarray(pts, dtype=float) - cell_lo) / np.asarray(spacing)
    wts = np.asarray(wts, dtype=float)
    normals = np.asarray(normals, dtype=float)
    v = tensor_basis_eval(nodes, xi, (0,) * d)
    g_n = np.zeros_like(v)
    for a in range(d):
        derivs = tuple(1 if b == a else 0 for b in range(d))
        g_n += normals[:, a][:, None] * tensor_basis_eval(nodes, xi, derivs) / spacing[a]
    a_mat -= (v * wts[:, None]).T @ g_n
    a_mat -= (g_n * wts[:, None]).T @ v
    a_mat += penalty * (v * wts[:, None]).T @ v
    return a_mat


def dense_operator_matrix(ctx):
    """Assemble the full stabilized operator densely from the context's
    geometry (cells, faces, quadrature rules) with independent basis math."""
    from mfcutfem.geometry import Label

    n = ctx.n_dofs
    nodes = ctx.elem.nodes
    mesh = ctx.mesh
    a_full = np.zeros((n, n))

    cell_stiff = dense_cell_stiffness(nodes, mesh.spacing, len(ctx.elem.quad_points))
    for c in ctx.inside_cells:
        dofs = ctx.dofmap.compact_cell_dofs(np.array([c]))[0]
        a_full[np.ix_(dofs, dofs)] += cell_stiff

    penalty = ctx.params.gamma_dirichlet / min(mesh.spacing)
    rules = ctx.cut_rules  # built on each access
    for c in ctx.cut_cells:
        rule = rules[int(c)]
        lo, _ = mesh.cell_box(mesh.cell_multi(int(c)))
        dofs = ctx.dofmap.compact_cell_dofs(np.array([c]))[0]
        local = dense_cut_volume(nodes, mesh.spacing, lo, rule.interior_points, rule.interior_weights)
        local += dense_cut_nitsche(
            nodes, mesh.spacing, lo, rule.surface_points, rule.surface_weights,
            rule.surface_normals, penalty,
        )
        a_full[np.ix_(dofs, dofs)] += local

    for axis, lower in ctx.faces:
        mats = []
        for b in range(mesh.dim):
            if b == axis:
                mats.append(ghost_matrix(nodes, mesh.spacing[b]))
            else:
                mats.append(mesh.spacing[b] * mass_matrix(nodes))
        dense = ctx.params.gamma_ghost * dense_kron(mats)
        dofs = ctx.dofmap.compact_cell_dofs(lower, axis)[0]
        a_full[np.ix_(dofs, dofs)] += dense
    return a_full


def probe_matrix(apply_fn, n):
    """Column-by-column matrix of a linear operator given by its action."""
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(apply_fn(e))
    return np.stack(cols, axis=1)


def monomials_up_to(degree, d):
    """Exponent tuples of all monomials with total degree <= degree."""
    if d == 2:
        return [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return [
        (i, j, l)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
        for l in range(degree + 1 - i - j)
    ]


def circle_box_area(a, b, c, d, r=1.0):
    """Area of {x^2 + y^2 <= r^2} intersected with [a, b] x [c, d], for boxes
    in the closed first quadrant, from the antiderivative of sqrt(r^2 - x^2)."""
    assert 0 <= a < b and 0 <= c < d

    def antideriv(x):
        x = min(x, r)
        return 0.5 * (x * math.sqrt(max(r * r - x * x, 0.0)) + r * r * math.asin(x / r))

    x_top = math.sqrt(max(r * r - d * d, 0.0))  # circle drops below y=d past here
    x_bot = math.sqrt(max(r * r - c * c, 0.0))  # circle drops below y=c past here
    area = 0.0
    lo, hi = a, min(b, x_top)
    if hi > lo:
        area += (d - c) * (hi - lo)  # full-height strip
    lo, hi = max(a, x_top), min(b, x_bot)
    if hi > lo:
        area += antideriv(hi) - antideriv(lo) - c * (hi - lo)
    return area


def simplex_monomial_integral(exponents, c):
    """Integral of prod x_i^{e_i} over the corner simplex {x >= 0, sum x <= c}."""
    e = list(exponents)
    num = 1
    for ei in e:
        num *= math.factorial(ei)
    return num / math.factorial(sum(e) + len(e)) * c ** (sum(e) + len(e))


# ---------------------------------------------------------------------------
# the point pair on point-first tables: per-point 1D tables (P, d, k+1) and
# einsum contractions over k+1, all points at once


def point_first_tables(elem, xi):
    """1D basis values and derivatives per axis at reference coordinates
    xi (P, d), as (P, d, k+1) tables."""
    tabs = np.empty((2,) + xi.shape + (elem.degree + 1,))  # derivative order 0, 1
    for m, a in np.ndindex(2, xi.shape[1]):
        tabs[m, :, a] = elem.table(xi[:, a], deriv=m).T
    return tabs[0], tabs[1]


def point_first_block_tables(ctx, blk):
    """point_first_tables at the points of a cut-cell point block of ctx."""
    mesh = ctx.mesh
    lower = np.asarray(mesh.origin) + mesh.cell_multi(ctx.cut_cells[blk.cell]) * np.asarray(mesh.spacing)
    return point_first_tables(ctx.elem, (blk.points - lower) / np.asarray(mesh.spacing))


def _point_first_axes(vals, grads, deriv_axis):
    return [(grads if a == deriv_axis else vals)[:, a, :] for a in range(vals.shape[1])]


def point_first_evaluate(up, vals, grads, deriv_axis=None):
    """Value (deriv_axis None) or reference derivative along deriv_axis at
    each point of the cell coefficients up (P, k+1, ..., k+1) gathered per
    point, tensor axis 0 last."""
    for tab in _point_first_axes(vals, grads, deriv_axis):
        up = np.einsum("p...i,pi->p...", up, tab)
    return up


def _point_first_outer(coef, tabs):
    for tab in tabs:
        coef = coef[:, None] * tab.reshape(tab.shape + (1,) * (coef.ndim - 1))
    return coef.reshape(coef.shape[0], -1)


def point_first_integrate(vals, grads, value_coef=None, grad_coefs=()):
    """Test-function contributions (P, nloc) at each point: value_coef times
    phi_i plus grad_coefs[a] times the reference derivative of phi_i along a."""
    acc = None if value_coef is None else _point_first_outer(value_coef, _point_first_axes(vals, grads, None))
    for a, coef in enumerate(grad_coefs):
        contrib = _point_first_outer(coef, _point_first_axes(vals, grads, a))
        acc = contrib if acc is None else acc + contrib
    return acc


def _point_first_by_cell(cell, contrib, n_cells):
    out = np.zeros((n_cells, contrib.shape[1]))
    np.add.at(out, cell, contrib)
    return out


def point_first_volume(vals, grads, weights, cell, spacing, u_cells):
    """grad-grad term of the points, (n_cells, nloc) for u_cells (n_cells, nloc)."""
    d, n = vals.shape[1], vals.shape[2]
    up = u_cells.reshape((-1,) + (n,) * d)[cell]
    z = [point_first_evaluate(up, vals, grads, a) * weights / h**2 for a, h in enumerate(spacing)]
    return _point_first_by_cell(cell, point_first_integrate(vals, grads, grad_coefs=z), len(u_cells))


def point_first_nitsche(vals, grads, weights, normals, cell, spacing, penalty, u_cells):
    """Symmetric Nitsche terms of the surface points, (n_cells, nloc)."""
    d, n = vals.shape[1], vals.shape[2]
    up = u_cells.reshape((-1,) + (n,) * d)[cell]
    u_val = point_first_evaluate(up, vals, grads)
    g_n = sum(normals[:, a] * point_first_evaluate(up, vals, grads, a) / h for a, h in enumerate(spacing))
    beta = [-u_val * weights * normals[:, a] / h for a, h in enumerate(spacing)]
    contrib = point_first_integrate(vals, grads, (-g_n + penalty * u_val) * weights, beta)
    return _point_first_by_cell(cell, contrib, len(u_cells))


# ---------------------------------------------------------------------------
# cut quadrature one box at a time: the recursive reference of the batched
# rules, one dimension-reduction step per call and one recursion per sub-box


def _cq_eval(phi, x, gradient=False):
    kind, shape = ("gradient", x.shape) if gradient else ("value", x.shape[:-1])
    out = np.asarray(phi.gradient(x) if gradient else phi.value(x))
    if out.shape != shape:
        raise QuadratureError(f"level set {kind} has shape {out.shape} for points {x.shape}")
    bad = ~np.isfinite(out)
    if bad.any():
        point = x[tuple(np.argwhere(bad)[0][: x.ndim - 1])]
        raise QuadratureError(f"level set {kind} is not finite at {point.tolist()}")
    return out


class _NeedSubdivision(Exception):
    pass


def _cq_pinned(pins, x):
    return np.where(np.isnan(pins), x, pins)


def _cq_sample_grid(lo, hi, per_axis):
    axes = [np.linspace(l, h, per_axis) if h > l else np.array([l]) for l, h in zip(lo, hi)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _cq_tensor_rule(lo, hi, rule):
    gx, gw = rule
    pts_1d = [l + gx * (h - l) if h > l else np.array([l]) for l, h in zip(lo, hi)]
    wts_1d = [gw * (h - l) if h > l else np.ones(1) for l, h in zip(lo, hi)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*pts_1d, indexing="ij")], axis=-1)
    wts = np.ones(1)
    for w in wts_1d:
        wts = np.multiply.outer(wts, w).ravel()
    return pts, wts


def _cq_pick_height_axis(phi, pins, lo, hi, free, samples):
    g = _cq_eval(phi, _cq_pinned(pins[:, None], _cq_sample_grid(lo, hi, samples)), True)[..., free]
    dominant = np.abs(g) >= DERIVATIVE_DOMINANCE * np.abs(g).max(axis=-1, keepdims=True)
    ok = ((g > 0).all(axis=(0, 1)) | (g < 0).all(axis=(0, 1))) & dominant.all(axis=(0, 1))
    score = np.where(ok, np.abs(g).min(axis=(0, 1)), 0.0)
    if not score.max() > 0:
        raise _NeedSubdivision
    return int(free[np.argmax(score)])


def _cq_line_points(base, axis, t):
    x = np.repeat(base[:, None, :], t.shape[-1], axis=1)
    x[..., axis] = t
    return x


def _cq_zeroin(f, a, b, fa, fb, tol):
    """Brent's zeroin (Brent 1973, ch. 4) on one bracket [a, b] whose end
    values fa, fb have strictly opposite signs, step by step as in the book;
    returns the best point b and f(b) once |c - b| / 2 <= tol1 or f(b) = 0."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b, fb
        step = None
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * xm * q - abs(tol1 * q) and p < abs(0.5 * e * q):
                step = p / q
        if step is None:
            d = e = xm
        else:
            d, e = step, d
        a, fa = b, fb
        b = b + (d if abs(d) > tol1 else math.copysign(tol1, xm))
        fb = f(b)
        if fb * math.copysign(1.0, fc) > 0:
            c, fc = a, fa
            d = e = b - a


def _cq_roots_on_lines(phi, pins, base, axis, lo_a, hi_a, q):
    row, line = (i.ravel() for i in np.indices((len(pins), len(base))))
    ts = np.linspace(np.full(row.size, lo_a), hi_a, q + 4, axis=-1)
    vals = _cq_eval(phi, _cq_pinned(pins[row, None], _cq_line_points(base[line], axis, ts)))
    scale = np.abs(vals).reshape(len(pins), -1).max(axis=1)
    lines, roots = [], []
    for scan in (1, 2):
        k, j = np.nonzero(vals == 0.0)
        lines.append(line[k])
        roots.append(ts[k, j])
        k, j = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
        row, line, t0, t1, f0, f1 = row[k], line[k], ts[k, j], ts[k, j + 1], vals[k, j], vals[k, j + 1]
        if scan == 2 or not line.size:
            break
        ts = np.linspace(t0, t1, q + 4, axis=-1)
        inner = _cq_eval(phi, _cq_pinned(pins[row, None], _cq_line_points(base[line], axis, ts[:, 1:-1])))
        vals = np.column_stack([f0, inner, f1])
    tol = 2.0**-ROOT_BITS * (hi_a - lo_a)
    root, fr = np.empty(line.size), np.empty(line.size)
    for i in range(line.size):
        def f(t):
            x = _cq_pinned(pins[row[i], None, None], _cq_line_points(base[line[i], None], axis, np.array([[t]])))
            return _cq_eval(phi, x)[0, 0]
        root[i], fr[i] = _cq_zeroin(f, t0[i], t1[i], f0[i], f1[i], tol)
    if ((scale[row] > 0) & (np.abs(fr) > 1e-6 * scale[row])).any():
        raise QuadratureError("root finding did not converge")
    return np.concatenate([*lines, line]), np.concatenate([*roots, root])


def _cq_reduce(lo, hi, phi, pins, rule, samples):
    free = np.flatnonzero(np.asarray(hi) > np.asarray(lo))
    if free.size == 1:
        axis, base, base_w = int(free[0]), np.array([lo]), np.ones(1)
    else:
        axis = _cq_pick_height_axis(phi, pins, lo, hi, free, samples)
        faces = np.concatenate([pins, pins])
        faces[: len(pins), axis], faces[len(pins):, axis] = lo[axis], hi[axis]
        bottom = [lo[a] if a == axis else h for a, h in enumerate(hi)]
        base, base_w = _cq_box_rule(lo, bottom, phi, faces, rule, samples)
    line, root = _cq_roots_on_lines(phi, pins, base, axis, lo[axis], hi[axis], len(rule[0]))
    order = np.lexsort((root, line))
    line, root = line[order], root[order]
    keep = np.ones(line.size, dtype=bool)
    keep[1:] = (line[1:] != line[:-1]) | (np.diff(root) > 1e-12 * (hi[axis] - lo[axis]))
    return axis, base, base_w, line[keep], root[keep]


def _cq_pieces(n_lines, line, root, lo_a, hi_a):
    ends = np.arange(n_lines)
    lines = np.concatenate([ends, line, ends])
    breaks = np.concatenate([np.full(n_lines, lo_a), root, np.full(n_lines, hi_a)])
    order = np.lexsort((np.repeat([0, 1, 2], [n_lines, line.size, n_lines]), lines))
    lines, breaks = lines[order], breaks[order]
    same = lines[1:] == lines[:-1]
    return lines[1:][same], breaks[:-1][same], breaks[1:][same]


def _cq_line_rule(base, base_w, axis, line, t0, t1, rule):
    gx, gw = rule
    seg = t1 - t0
    t = t0[:, None] + gx * seg[:, None]
    pts = _cq_line_points(base[line], axis, t).reshape(-1, base.shape[1])
    return pts, (base_w[line][:, None] * gw * seg[:, None]).ravel()


def _cq_box_rule(lo, hi, phi, pins, rule, samples):
    vals = _cq_eval(phi, _cq_pinned(pins[:, None], _cq_sample_grid(lo, hi, samples)))
    pins = pins[((vals > 0).any(axis=1) & (vals < 0).any(axis=1)) | (vals == 0.0).any(axis=1)]
    if not len(pins):
        return _cq_tensor_rule(lo, hi, rule)
    axis, base, base_w, line, root = _cq_reduce(lo, hi, phi, pins, rule, samples)
    return _cq_line_rule(base, base_w, axis, *_cq_pieces(len(base), line, root, lo[axis], hi[axis]), rule)


def _cq_cut_rule(lo, hi, phi, rule, depth, parts, counter):
    samples = max(len(rule[0]) + 1, 3)
    vals = _cq_eval(phi, _cq_sample_grid(lo, hi, samples))
    if (vals < 0).all():
        return
    if (vals >= 0).all():
        for part, a in zip(parts, _cq_tensor_rule(lo, hi, rule)):
            part.append(a)
        return
    try:
        axis, base, base_w, line, root = _cq_reduce(lo, hi, phi, np.full((1, len(lo)), np.nan), rule, samples)
    except _NeedSubdivision:
        center = 0.5 * (np.asarray(lo) + np.asarray(hi))
        if depth <= 0:
            counter[0] += 1
            if _cq_eval(phi, center[None, :])[0] >= 0:
                for part, a in zip(parts, _cq_tensor_rule(lo, hi, rule)):
                    part.append(a)
            return
        for corner in range(2 ** len(lo)):
            upper = [corner >> a & 1 for a in range(len(lo))]
            slo = [center[a] if u else lo[a] for a, u in enumerate(upper)]
            shi = [hi[a] if u else center[a] for a, u in enumerate(upper)]
            _cq_cut_rule(slo, shi, phi, rule, depth - 1, parts, counter)
        return
    piece, t0, t1 = _cq_pieces(len(base), line, root, lo[axis], hi[axis])
    inside = _cq_eval(phi, _cq_line_points(base[piece], axis, 0.5 * (t0 + t1)[:, None]))[:, 0] > 0
    for part, a in zip(parts, _cq_line_rule(base, base_w, axis, piece[inside], t0[inside], t1[inside], rule)):
        part.append(a)
    if root.size:
        x = _cq_line_points(base[line], axis, root[:, None])[:, 0]
        g = _cq_eval(phi, x, True)
        norm = np.linalg.norm(g, axis=-1)
        for part, a in zip(parts[2:], (x, base_w[line] * norm / np.abs(g[:, axis]), -g / norm[:, None])):
            part.append(a)


def per_cell_cut_quadrature(lo, hi, phi, q, max_depth=8):
    """The cut rule of one box, as a stack of one, by recursive dimension
    reduction and depth-first subdivision, sub-box by sub-box in corner
    order."""
    rule = gauss_rule(q)
    lo = [float(v) for v in np.asarray(lo).ravel()]
    hi = [float(v) for v in np.asarray(hi).ravel()]
    d = len(lo)
    parts = [[np.empty((0, d))], [np.empty(0)], [np.empty((0, d))], [np.empty(0)], [np.empty((0, d))]]
    counter = [0]
    _cq_cut_rule(lo, hi, phi, rule, max_depth, parts, counter)
    points, weights, s_points, s_weights, normals = (np.concatenate(p) for p in parts)
    box = lambda w: np.zeros(len(w), dtype=np.int64)  # noqa: E731
    return CutCellQuadrature(points, weights, box(weights), s_points, s_weights, normals, box(s_weights),
                             np.array([counter[0]]))


# ---------------------------------------------------------------------------
# conjugate gradients as textbooks write it


def textbook_cg(apply, b, tol_rel, max_iter):
    """Unpreconditioned CG from x0 = 0 with the residual norm from
    np.linalg.norm and a newly allocated search direction each iteration;
    returns (x, iterations, residual-norm history)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    norm_b = np.linalg.norm(r)
    history = [norm_b]
    rs = r @ r
    for iterations in range(1, max_iter + 1):
        ap = apply(p)
        alpha = rs / (p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        history.append(np.linalg.norm(r))
        if history[-1] <= tol_rel * norm_b:
            return x, iterations, np.array(history)
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, max_iter, np.array(history)
