"""High-order quadrature on implicitly bounded cell fractions.

Given boxes K and a level set phi, builds Gauss-type rules for the volume
K n {phi > 0} and the surface K n {phi = 0} by dimension reduction (Saye,
SIAM J. Sci. Comput. 2015): pick a height axis along which d(phi)/dx_a has
uniform sign, integrate the other axes with a recursively built base rule
that is split at the zeros of phi restricted to the bottom/top faces, and
resolve each vertical line by root finding (two sign scans isolate the
roots, then Brent's zeroin refines every bracket with a sign change).

One call builds the rules of a whole stack of boxes, one reduction level at
a time, so each step reads the level set once for all boxes.  Points are
always d-dimensional.  A face of a box is a box whose hi equals its lo on
the pinned axes, and a restriction of phi to it is a row of a ``pins`` array
holding the pinned coordinate on the fixed axes and NaN on the free ones,
with the box that owns it beside it.  A top-down pass picks the height axis
of every box at every level from all its rows and keeps the face rows on
which phi changes sign; a bottom-up pass finds the roots on the base lines
of all boxes of a level, as (line, root) rows sorted by line and then by
root, and emits the Gauss pieces between them for all lines at once: first
the base rules, then the volume pieces and surface points of every box.

A box whose reduction finds no height axis at some level is bisected into
2^d sub-boxes, which go back on a worklist, up to ``max_depth``; below that
a sign-of-center fallback fires and is counted per box.  Each pass over the
worklist (at most _CELL_CHUNK boxes) samples signs and runs the top-down
pass, so it subdivides at once; the bottom-up pass runs once over the
resolved boxes of every depth, at most _CELL_CHUNK of them per call, so a
deeper subdivision adds one pass of top-down reads and no root finding
pass.  The rules are rows, box by box, each with its box, and depth-first
over sub-boxes.  Signs come from samples, not bounds: interfaces that
oscillate below the sample resolution can be missed.  ``_eval`` is the
package's one reader of phi; ``box_signs`` samples its signs on each box,
``sign_samples(q)`` per axis, for the whole-box test here and for
``geometry.classify_cells`` in ``build_context``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor1d import gauss_rule

# an axis qualifies as height direction when |d(phi)/dx_a| is at least this
# fraction of the largest component at every sample point, with uniform sign
DERIVATIVE_DOMINANCE = 1e-3
ROOT_BITS = 48  # zeroin's tolerance: roots to 2^-48 (~4e-15) of the line, or a few ulps
_CELL_CHUNK = 4096  # boxes per pass over the worklist and per bottom-up call


class QuadratureError(ValueError):
    """The level set broke its contract (a value of the wrong shape or not
    finite, or a root that does not converge); ``box`` is the position of the
    failing box in the stack the call was given, None when it names none."""

    def __init__(self, message: str, box: int | None = None):
        super().__init__(message)
        self.box = box


@dataclass
class CutCellQuadrature:
    """Volume and surface rules of a stack of boxes as rows, box by box, with
    each row's box (nondecreasing); normals point out of {phi > 0}, and
    ``fallbacks`` counts the sign-of-center fallbacks of each box."""

    interior_points: np.ndarray   # (N, d)
    interior_weights: np.ndarray  # (N,)
    interior_box: np.ndarray      # (N,)
    surface_points: np.ndarray    # (S, d)
    surface_weights: np.ndarray   # (S,)
    surface_normals: np.ndarray   # (S, d)
    surface_box: np.ndarray       # (S,)
    fallbacks: np.ndarray         # (C,)

    @property
    def fallback_count(self) -> int:
        return int(self.fallbacks.sum())

    def box(self, i: int) -> CutCellQuadrature:
        """The rows of box i, as the rule of a stack of one."""
        v, s = (slice(*np.searchsorted(b, [i, i + 1])) for b in (self.interior_box, self.surface_box))
        return CutCellQuadrature(self.interior_points[v], self.interior_weights[v], self.interior_box[v] - i,
                                 self.surface_points[s], self.surface_weights[s], self.surface_normals[s],
                                 self.surface_box[s] - i, self.fallbacks[i:i + 1])


def _eval(phi, x: np.ndarray, owner: np.ndarray, gradient: bool = False) -> np.ndarray:
    """phi's value (or gradient) at the points x (R, ..., d); the one reader of
    the level set, which must give finite arrays of shape x.shape[:-1]
    (or x.shape).  owner[r] is the input box of row r, named by a failure."""
    kind, shape = ("gradient", x.shape) if gradient else ("value", x.shape[:-1])
    out = np.asarray(phi.gradient(x) if gradient else phi.value(x))
    if out.shape != shape:
        point = x.reshape(-1, x.shape[-1])[0]
        raise QuadratureError(f"level set {kind} has shape {out.shape} for points {x.shape}, e.g. {point.tolist()}",
                              int(owner[0]))
    bad = ~np.isfinite(out)
    if bad.any():
        at = tuple(np.argwhere(bad)[0][: x.ndim - 1])
        raise QuadratureError(f"level set {kind} is not finite at {x[at].tolist()}", int(owner[at[0]]))
    return out


def _pinned(pins: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The points x with each restriction's pinned coordinates put in."""
    return np.where(np.isnan(pins), x, pins)


def _starts(box: np.ndarray) -> np.ndarray:
    """First row of every run of equal entries of the sorted ``box``."""
    return np.flatnonzero(np.r_[True, box[1:] != box[:-1]])


def _free(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Free axes (hi > lo), increasing, of boxes (B, d) that all have the
    same number f of them: (B, f); f = d when there are no boxes."""
    if not len(lo):
        return np.empty(lo.shape, dtype=np.int64)
    return np.nonzero(hi > lo)[1].reshape(len(lo), -1)


def _tensor_grid(lo: np.ndarray, free: np.ndarray, pts_1d: np.ndarray):
    """Points (B, n^f, d) of the tensor grids of pts_1d (B, f, n) on the free
    axes of each box, first free axis slowest, with lo on the other axes;
    and the (n^f, f) multi-index of each grid point."""
    n_box, f, n = pts_1d.shape
    idx = np.indices((n,) * f).reshape(f, -1).T
    x = np.repeat(lo[:, None, :], len(idx), axis=1)
    for j in range(f):
        x[np.arange(n_box), :, free[:, j]] = pts_1d[:, j, idx[:, j]]
    return x, idx


def _sample_grid(lo: np.ndarray, hi: np.ndarray, per_axis: int) -> np.ndarray:
    """Sample grids (B, per_axis^f, d) of the boxes, box corners included;
    an axis with hi == lo gets one sample."""
    free = _free(lo, hi)
    lin = np.linspace(np.take_along_axis(lo, free, 1), np.take_along_axis(hi, free, 1), per_axis, axis=-1)
    return _tensor_grid(lo, free, lin)[0]


def box_signs(phi, lo: np.ndarray, hi: np.ndarray, per_axis: int, owner: np.ndarray) -> np.ndarray:
    """phi >= 0 (B, per_axis^f) on the sample grids of the boxes (lo, hi)
    (B, d), B >= 1, read in chunks of at most _CELL_CHUNK boxes; a failure
    names owner[i], the input box of box i."""
    return np.concatenate([_eval(phi, _sample_grid(lo[s], hi[s], per_axis), owner[s]) >= 0
                           for s in (slice(i, i + _CELL_CHUNK) for i in range(0, len(lo), _CELL_CHUNK))])


def sign_samples(q: int) -> int:
    """Sign samples per axis of a box for rules of q Gauss points per axis:
    q + 1, and at least 3.  build_context classifies its cells with the same
    count, so their labels follow the rules' order, not the degree."""
    return max(q + 1, 3)


def _tensor_rule(lo: np.ndarray, hi: np.ndarray, boxes: np.ndarray, rule):
    """Tensor product of the 1D Gauss ``rule`` over each whole box of
    ``boxes`` as (points, weights, box) rows, box by box; an axis with
    hi == lo gets one point of weight one."""
    gx, gw = rule
    lo, hi = lo[boxes], hi[boxes]
    free = _free(lo, hi)
    l = np.take_along_axis(lo, free, 1)[..., None]
    span = np.take_along_axis(hi, free, 1)[..., None] - l
    pts, idx = _tensor_grid(lo, free, l + gx * span)
    w_1d = gw * span
    wts = np.ones(pts.shape[:2])
    for j in range(free.shape[1]):
        wts = wts * w_1d[:, j, idx[:, j]]
    return pts.reshape(-1, lo.shape[1]), wts.ravel(), np.repeat(boxes, wts.shape[1])


def _height_axes(phi, pins, box, lo, hi, samples: int, cell) -> tuple[np.ndarray, np.ndarray]:
    """(boxes, axis): for every box owning rows of ``pins`` (rows grouped by
    ``box``), the free axis of (lo, hi) with sign-uniform, everywhere-dominant
    partial derivative for all its restrictions, or -1 where none exists."""
    starts = _starts(box)
    g = _eval(phi, _pinned(pins[:, None], _sample_grid(lo[box], hi[box], samples)), cell[box], True)
    free = _free(lo[box], hi[box])
    g = np.take_along_axis(g, free[:, None, :], axis=-1)
    a = np.abs(g)
    dominant = (a >= DERIVATIVE_DOMINANCE * a.max(axis=-1, keepdims=True)).all(axis=1)
    pos, neg, dom = (np.logical_and.reduceat(v, starts) for v in ((g > 0).all(axis=1), (g < 0).all(axis=1), dominant))
    score = np.where((pos | neg) & dom, np.minimum.reduceat(a.min(axis=1), starts), 0.0)
    axis = np.take_along_axis(free[starts], np.argmax(score, axis=1)[:, None], 1)[:, 0]
    return box[starts], np.where(score.max(axis=1) > 0, axis, -1)


def _line_points(base: np.ndarray, axis: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points (B, T, d) on the lines through base (B, d) along axis (B,) at
    the heights t (B, T)."""
    x = np.repeat(base[:, None, :], t.shape[-1], axis=1)
    x[np.arange(len(base)), :, axis] = t
    return x


def _zeroin(read, a, b, fa, fb, tol):
    """Brent-Dekker zeroin (Brent 1973, ch. 4) on all brackets [a, b] at
    once, their end values fa, fb of strictly opposite sign.

    Each bracket keeps its best point b, contrapoint c (phi changes sign
    between them), previous point a and its last two steps d, e.  A step is
    a secant or inverse quadratic step where Brent's test accepts it and a
    bisection otherwise, and moves b by at least tol1; ``read(k, t)`` gives
    phi at the heights t of the open brackets k, one read per step.  A
    bracket stops at |c - b| / 2 <= tol1 = 2 eps |b| + tol / 2 or at
    phi(b) = 0.  Returns b and phi(b) of every bracket.
    """
    c, fc = a, fa
    d = e = b - a
    k = np.arange(b.size)
    root, f_root = np.empty_like(b), np.empty_like(b)
    while True:
        swap = np.abs(fc) < np.abs(fb)  # b the end of least |phi|
        a, b, c = np.where(swap, b, a), np.where(swap, c, b), np.where(swap, b, c)
        fa, fb, fc = np.where(swap, fb, fa), np.where(swap, fc, fb), np.where(swap, fb, fc)
        tol1 = 2.0 * np.finfo(float).eps * np.abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        done = (np.abs(xm) <= tol1) | (fb == 0.0)
        root[k[done]], f_root[k[done]] = b[done], fb[done]
        if done.all():
            return root, f_root
        go = ~done
        a, b, c, fa, fb, fc, d, e, tol, tol1, xm, k = (v[go] for v in (a, b, c, fa, fb, fc, d, e, tol, tol1, xm, k))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # in lanes that bisect
            s, r, u = fb / fa, fb / fc, fa / fc
            secant = a == c
            p = np.where(secant, 2.0 * xm * s, s * (2.0 * xm * u * (u - r) - (b - a) * (r - 1.0)))
            den = np.where(secant, 1.0 - s, (u - 1.0) * (r - 1.0) * (s - 1.0))
            den = np.where(p > 0, -den, den)
            p = np.abs(p)
            interpolate = ((np.abs(e) >= tol1) & (np.abs(fa) > np.abs(fb))
                           & (2.0 * p < 3.0 * xm * den - np.abs(tol1 * den)) & (p < np.abs(0.5 * e * den)))
            e = np.where(interpolate, d, xm)
            d = np.where(interpolate, p / den, xm)
        a, fa = b, fb
        b = b + np.where(np.abs(d) > tol1, d, np.copysign(tol1, xm))
        fb = read(k, b)
        new = np.sign(fb) == np.sign(fc)  # the sign change is now between a and b
        c, fc = np.where(new, a, c), np.where(new, fa, fc)
        d = np.where(new, b - a, d)
        e = np.where(new, d, e)


def _roots_on_lines(phi, pins, box, base, base_box, axis, lo, hi, q: int, cell):
    """All roots of every restriction (row of ``pins``, owned by ``box``)
    along every base line of its box (rows of ``base``, grouped by
    ``base_box``), on [lo, hi] of the box's height axis ``axis[box]``.

    A bracket is a (restriction, line, t_lo, t_hi) row; the first ones are
    the whole lines.  Two sign scans split every bracket at q+4 equally
    spaced heights: an exact zero is a root, and every sub-piece with a
    strict sign change is a bracket of the next step, which keeps its end
    values and reads phi only inside it, so no sign is decided on a value
    read twice.  The scans isolate roots (q+3)^-2 of the line apart; then
    ``_zeroin`` takes every bracket left to its root, to 2^-ROOT_BITS of the
    line or the rounding of its coordinates.  Returns (line_index, root)
    rows sorted by line and then by root, with roots closer than 1e-12 of
    the span on one line merged.
    """
    first = np.searchsorted(base_box, box)
    count = np.searchsorted(base_box, box, side="right") - first
    row_start = np.cumsum(count) - count
    row = np.repeat(np.arange(len(pins)), count)
    line = np.arange(row.size) + np.repeat(first - row_start, count)

    def read(row, line, t):
        b = box[row]
        return _eval(phi, _pinned(pins[row, None], _line_points(base[line], axis[b], t)), cell[b])

    b, a = box[row], axis[box[row]]
    ts = np.linspace(lo[b, a], hi[b, a], q + 4, axis=-1)
    vals = read(row, line, ts)
    scale = np.maximum.reduceat(np.abs(vals).max(axis=1), row_start)  # one per restriction
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
        vals = np.column_stack([f0, read(row, line, ts[:, 1:-1]), f1])
    b, a = box[row], axis[box[row]]
    tol = 2.0**-ROOT_BITS * (hi[b, a] - lo[b, a])
    root, fr = _zeroin(lambda k, t: read(row[k], line[k], t[:, None])[:, 0], t0, t1, f0, f1, tol)
    bad = (scale[row] > 0) & (np.abs(fr) > 1e-6 * scale[row])
    if bad.any():
        raise QuadratureError("root finding did not converge", int(cell[box[row[np.argmax(bad)]]]))
    line, root = np.concatenate([*lines, line]), np.concatenate([*roots, root])
    order = np.lexsort((root, line))
    line, root = line[order], root[order]
    b = base_box[line[1:]]
    span = hi[b, axis[b]] - lo[b, axis[b]]
    keep = np.ones(line.size, dtype=bool)
    keep[1:] = (line[1:] != line[:-1]) | (np.diff(root) > 1e-12 * span)
    return line[keep], root[keep]


def _pieces(line: np.ndarray, root: np.ndarray, lo_a: np.ndarray, hi_a: np.ndarray):
    """(line, start, end) of the pieces between consecutive breaks (the line
    ends lo_a, hi_a and the sorted roots) of every line, line by line."""
    n_lines = len(lo_a)
    ends = np.arange(n_lines)
    lines = np.concatenate([ends, line, ends])
    breaks = np.concatenate([lo_a, root, hi_a])
    order = np.lexsort((np.repeat([0, 1, 2], [n_lines, line.size, n_lines]), lines))
    lines, breaks = lines[order], breaks[order]
    same = lines[1:] == lines[:-1]
    return lines[1:][same], breaks[:-1][same], breaks[1:][same]


def _line_rule(base, base_w, axis, line, t0, t1, rule):
    """Gauss points and weights of the 1D ``rule`` on the pieces [t0, t1] of
    the base lines ``line`` (along axis[line]), piece by piece."""
    gx, gw = rule
    seg = t1 - t0
    t = t0[:, None] + gx * seg[:, None]
    pts = _line_points(base[line], axis[line], t).reshape(-1, base.shape[1])
    return pts, (base_w[line][:, None] * gw * seg[:, None]).ravel()


def _top_down(lo, hi, phi, cut, samples: int, cell):
    """Height axes and restrictions of every reduction level of the boxes
    ``cut``.  Returns the d levels as (pins, box, axis), rows grouped by box
    (none below the last level a box reaches) and axis (B,) per box;
    ``tops``, where tops[l] holds the upper corners of the level-l face
    boxes (the height axes of the levels above collapsed to lo); and
    ``split``, the boxes some level of which found no height axis."""
    n_box, d = lo.shape
    split = np.zeros(n_box, dtype=bool)
    levels, tops = [], [hi]
    pins, box = np.full((len(cut), d), np.nan), cut
    for level in range(d):
        if not len(box):
            break
        axis = np.full(n_box, -1)
        if level == d - 1:
            axis[box] = _free(lo[box], tops[-1][box])[:, 0]
            levels.append((pins, box, axis))
            break
        boxes, found = _height_axes(phi, pins, box, lo, tops[-1], samples, cell)
        axis[boxes] = found
        split[boxes[found < 0]] = True
        keep = ~split[box]
        pins, box = pins[keep], box[keep]
        levels.append((pins, box, axis))
        # every restriction pinned to the bottom and the top face of its axis
        faces, face_box = np.concatenate([pins, pins]), np.concatenate([box, box])
        faces[np.arange(len(faces)), axis[face_box]] = np.concatenate([lo[box, axis[box]], hi[box, axis[box]]])
        top = tops[-1].copy()
        top[box, axis[box]] = lo[box, axis[box]]
        tops.append(top)
        vals = _eval(phi, _pinned(faces[:, None], _sample_grid(lo[face_box], top[face_box], samples)), cell[face_box])
        keep = ((vals > 0).any(axis=1) & (vals < 0).any(axis=1)) | (vals == 0.0).any(axis=1)
        order = np.argsort(face_box[keep], kind="stable")
        pins, box = faces[keep][order], face_box[keep][order]
    levels += [(pins, box, np.full(n_box, -1))] * (d - len(levels))  # levels no box reaches
    return levels, tops + tops[-1:] * (d - len(tops)), split


def _bottom_up(lo, hi, tops, levels, phi, rule, cell):
    """Rules of the cut boxes (lo, hi) (B, d) whose reduction found a height
    axis at every level: their ``_top_down`` levels (pins, box, axis), with
    each box's rows at level l on the face box (lo, tops[l]), taken from the
    bottom level up.  Returns the interior (points, weights, box) and
    surface (points, weights, normals, box) rows, each box's rows in order."""
    d = lo.shape[1]
    q = len(rule[0])
    interior, surface = [], []
    below = None  # (points, weights, box) of the face rules of the level below
    for level in reversed(range(d)):
        pins, box, axis = levels[level]
        if not len(box):
            below = None
            continue
        boxes = box[_starts(box)]
        if level == d - 1:
            base, base_w, base_box = lo[boxes], np.ones(len(boxes)), boxes
        else:
            # whole-face tensor rules where no face restriction changes sign
            flat = boxes if below is None else boxes[~np.isin(boxes, below[2])]
            parts = [_tensor_rule(lo, tops[level + 1], flat, rule)] + ([] if below is None else [below])
            base, base_w, base_box = (np.concatenate(p) for p in zip(*parts))
            order = np.argsort(base_box, kind="stable")
            base, base_w, base_box = base[order], base_w[order], base_box[order]
        line, root = _roots_on_lines(phi, pins, box, base, base_box, axis, lo, hi, q, cell)
        line_axis = axis[base_box]
        piece, t0, t1 = _pieces(line, root, lo[base_box, line_axis], hi[base_box, line_axis])
        if level:
            below = (*_line_rule(base, base_w, line_axis, piece, t0, t1, rule), np.repeat(base_box[piece], q))
            continue
        mid = _line_points(base[piece], line_axis[piece], 0.5 * (t0 + t1)[:, None])
        inside = _eval(phi, mid, cell[base_box[piece]])[:, 0] > 0
        piece, t0, t1 = piece[inside], t0[inside], t1[inside]
        interior.append((*_line_rule(base, base_w, line_axis, piece, t0, t1, rule), np.repeat(base_box[piece], q)))
        if root.size:
            x = _line_points(base[line], line_axis[line], root[:, None])[:, 0]
            g = _eval(phi, x, cell[base_box[line]], True)
            norm = np.linalg.norm(g, axis=-1)
            weights = base_w[line] * norm / np.abs(g[np.arange(line.size), line_axis[line]])
            surface.append((x, weights, -g / norm[:, None], base_box[line]))
    return interior, surface


def _stack_rules(lo, hi, phi, rule, max_depth: int) -> CutCellQuadrature:
    """Rules of the boxes (lo, hi) (C, d): passes over a worklist of boxes,
    each with its input box, subdivision path (corner digits, zero-padded)
    and depth.  A pass samples signs, emits whole-box and fallback rules,
    runs ``_top_down`` and subdivides at once; the cut boxes it resolves
    wait, with their levels and tops, for one ``_bottom_up`` over those of
    every pass, run before they would exceed _CELL_CHUNK and at the end.  A
    leaf's points are ordered by (input box, path)."""
    n, d = lo.shape
    samples = sign_samples(len(rule[0]))
    work = [lo, hi, np.arange(n), np.zeros((n, max_depth), dtype=np.int64), np.zeros(n, dtype=np.int64)]
    corners = np.arange(2**d)[:, None] >> np.arange(d) & 1  # (2^d, d): upper half per axis
    leaf_cell, leaf_path = [work[2][:0]], [work[3][:0]]
    interior, surface = [(lo[:0], lo[:0, 0], work[2][:0])], [(lo[:0], lo[:0, 0], lo[:0], work[2][:0])]
    fallbacks = np.zeros(n, dtype=np.int64)
    n_leaves = 0
    pending = []  # per pass: (leaf, cell, lo, hi, tops, levels) of the cut boxes it resolved

    def flush():
        leaf, cell, lo_p, hi_p = (np.concatenate(c) for c in zip(*(p[:4] for p in pending)))
        tops = [np.concatenate(t) for t in zip(*(p[4] for p in pending))]
        levels = [[np.concatenate(c) for c in zip(*level)] for level in zip(*(p[5] for p in pending))]
        vol, surf = _bottom_up(lo_p, hi_p, tops, levels, phi, rule, cell)
        interior.extend((*rows[:-1], leaf[rows[-1]]) for rows in vol)
        surface.extend((*rows[:-1], leaf[rows[-1]]) for rows in surf)
        pending.clear()

    while len(work[0]):
        lo_c, hi_c, cell, path, depth = (a[-_CELL_CHUNK:] for a in work)
        work = [a[:-_CELL_CHUNK] for a in work]
        vals = box_signs(phi, lo_c, hi_c, samples, cell)
        cut = np.flatnonzero(~vals.all(axis=1) & vals.any(axis=1))
        levels, tops, split = _top_down(lo_c, hi_c, phi, cut, samples, cell)
        whole = np.flatnonzero(vals.all(axis=1))
        fall = np.flatnonzero(split & (depth == max_depth))
        if fall.size:
            np.add.at(fallbacks, cell[fall], 1)
            center = 0.5 * (lo_c[fall] + hi_c[fall])
            whole = np.concatenate([whole, fall[_eval(phi, center, cell[fall]) >= 0]])
        sub = split & (depth < max_depth)
        leaf = np.cumsum(~sub) - 1 + n_leaves
        n_leaves = leaf[-1] + 1
        leaf_cell.append(cell[~sub])
        leaf_path.append(path[~sub])
        pts, wts, box = _tensor_rule(lo_c, hi_c, whole, rule)
        interior.append((pts, wts, leaf[box]))
        done = cut[~split[cut]]
        if done.size:
            if sum(len(p[0]) for p in pending) + done.size > _CELL_CHUNK:
                flush()
            local = np.full(len(lo_c), -1)  # a resolved box's position among the pending ones
            local[done] = sum(len(p[0]) for p in pending) + np.arange(done.size)
            pending.append((leaf[done], cell[done], lo_c[done], hi_c[done], [t[done] for t in tops],
                            [(pins[~split[box]], local[box[~split[box]]], axis[done]) for pins, box, axis in levels]))
        if sub.any():
            center = 0.5 * (lo_c[sub] + hi_c[sub])
            k = len(corners)
            child_path = np.repeat(path[sub], k, axis=0)
            child_path[np.arange(len(child_path)), np.repeat(depth[sub], k)] = np.tile(np.arange(k), len(center))
            children = [
                np.where(corners, center[:, None], lo_c[sub][:, None]).reshape(-1, d),
                np.where(corners, hi_c[sub][:, None], center[:, None]).reshape(-1, d),
                np.repeat(cell[sub], k), child_path, np.repeat(depth[sub] + 1, k),
            ]
            work = [np.concatenate([w, c]) for w, c in zip(work, children)]
    if pending:
        flush()

    leaf_cell, leaf_path = np.concatenate(leaf_cell), np.concatenate(leaf_path)
    rank = np.empty(n_leaves, dtype=np.int64)
    rank[np.lexsort((*leaf_path.T[::-1], leaf_cell))] = np.arange(n_leaves)

    def rows(parts):
        """The columns of parts in (input box, path) order, then the input box."""
        *cols, leaf = (np.concatenate(c) for c in zip(*parts))
        order = np.argsort(rank[leaf], kind="stable")
        return [c[order] for c in cols] + [leaf_cell[leaf[order]]]

    return CutCellQuadrature(*rows(interior), *rows(surface), fallbacks)


def cut_cell_quadrature(lo, hi, phi, q: int, max_depth: int = 8) -> CutCellQuadrature:
    """Volume/surface rule of the boxes with corners lo, hi (C, d), built
    together; one box (d,) is a stack of one."""
    rule = gauss_rule(q)  # rejects q < 1
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim not in (1, 2) or not lo.shape[-1] or not (lo < hi).all():
        raise ValueError("invalid box")
    return _stack_rules(np.atleast_2d(lo), np.atleast_2d(hi), phi, rule, max_depth)


def dump_quadrature_csv(path, rules: dict) -> None:
    """Debug dump: cell_index, kind (I volume / S surface), coords, weight,
    and for surface rows the normal components."""
    d = next(iter(rules.values())).interior_points.shape[1] if rules else 3
    axes = "xyz"[:d]
    fmt = lambda values: [repr(float(v)) for v in values]  # noqa: E731
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(["cell_index", "kind", *axes, "w", *("n" + a for a in axes)]) + "\n")
        for cell, r in rules.items():
            rows = [("I", p, w, [""] * d) for p, w in zip(r.interior_points, r.interior_weights)]
            rows += [("S", p, w, fmt(n)) for p, w, n in zip(r.surface_points, r.surface_weights, r.surface_normals)]
            f.writelines(",".join([str(cell), kind, *fmt(p), *fmt([w]), *n]) + "\n" for kind, p, w, n in rows)
