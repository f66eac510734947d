"""Independent reference implementations used only by the tests.

Everything here is built from first principles — explicit Lagrange
polynomials via poly1d products, dense matrices, brute-force Kronecker
products — deliberately avoiding the package's own evaluation pipelines, so
agreement between the two is a meaningful check.
"""

import math

import numpy as np


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
    for c in ctx.cut_cells:
        rule = ctx.cut_rules[int(c)]
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
