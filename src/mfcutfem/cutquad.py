"""High-order quadrature on implicitly bounded cell fractions.

Given a box K and a level set phi, builds Gauss-type rules for the volume
K n {phi > 0} and the surface K n {phi = 0} by dimension reduction: pick a
height axis along which d(phi)/dx_a has uniform sign, integrate the other
axes with a recursively built base rule that is split at the zeros of phi
restricted to the bottom/top faces, and resolve each vertical line by root
finding (sign scan, bisection, one Newton polish).

When no axis qualifies the box is bisected into 2^d sub-boxes up to
``max_depth``; below that a sign-of-center fallback fires and is counted.
The construction is sampling-based, not certified: interfaces that oscillate
below the sample resolution can be missed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor1d import gauss_rule

# an axis qualifies as height direction when |d(phi)/dx_a| is at least this
# fraction of the largest component at every sample point, with uniform sign
DERIVATIVE_DOMINANCE = 1e-3
BISECTION_STEPS = 48  # fixed count, resolves to ~4e-15 of the segment length


class QuadratureError(RuntimeError):
    pass


class _NeedSubdivision(Exception):
    pass


@dataclass
class CutCellQuadrature:
    """Volume and surface rules of one cut cell (physical points/weights).

    Surface normals point out of {phi > 0}; ``fallback_count`` counts
    sign-of-center fallbacks that fired during construction."""

    interior_points: np.ndarray
    interior_weights: np.ndarray
    surface_points: np.ndarray
    surface_weights: np.ndarray
    surface_normals: np.ndarray
    fallback_count: int = 0


class _Slice:
    """A level-set-like function with one coordinate pinned."""

    def __init__(self, parent, axis: int, coord: float):
        self.parent = parent
        self.axis = axis
        self.coord = coord

    def _lift(self, x):
        x = np.asarray(x, dtype=float)
        return np.insert(x, self.axis, self.coord, axis=-1)

    def value(self, x):
        return self.parent.value(self._lift(x))

    def gradient(self, x):
        g = self.parent.gradient(self._lift(x))
        return np.delete(g, self.axis, axis=-1)


def _sample_grid(lo, hi, per_axis: int) -> np.ndarray:
    """Tensor sample grid including the box corners, shape (per_axis^m, m)."""
    axes = [np.linspace(l, h, per_axis) for l, h in zip(lo, hi)]
    if len(axes) == 1:
        return axes[0][:, None]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _tensor_rule(lo, hi, rule) -> tuple[np.ndarray, np.ndarray]:
    """Plain tensor-product of the 1D Gauss ``rule`` over the whole box."""
    gx, gw = rule
    pts_1d = [l + gx * (h - l) for l, h in zip(lo, hi)]
    wts_1d = [gw * (h - l) for l, h in zip(lo, hi)]
    grids = np.meshgrid(*pts_1d, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = np.ones(1)
    for w in wts_1d:
        wts = np.multiply.outer(wts, w).ravel()
    return pts, wts


def _has_sign_change(vals: np.ndarray) -> bool:
    return bool((vals > 0).any() and (vals < 0).any()) or bool((vals == 0.0).any())


def _pick_height_axis(funcs, lo, hi, samples: int) -> int:
    """Axis with sign-uniform, everywhere-dominant partial derivative for
    every function in ``funcs``; raises _NeedSubdivision when none exists."""
    m = len(lo)
    pts = _sample_grid(lo, hi, samples)
    grads = [np.atleast_2d(f.gradient(pts)) for f in funcs]
    best_axis, best_score = -1, 0.0
    for a in range(m):
        ok = True
        score = np.inf
        for g in grads:
            ga = g[:, a]
            mag = np.abs(g).max(axis=1)
            if not ((ga > 0).all() or (ga < 0).all()):
                ok = False
                break
            if (np.abs(ga) < DERIVATIVE_DOMINANCE * mag).any():
                ok = False
                break
            score = min(score, np.abs(ga).min())
        if ok and score > best_score:
            best_axis, best_score = a, score
    if best_axis < 0:
        raise _NeedSubdivision
    return best_axis


def _line_points(base_pts: np.ndarray, axis: int, t: np.ndarray) -> np.ndarray:
    """Combine base points (B, m-1) with height coordinates (B, T) -> (B, T, m)."""
    b, t_count = t.shape
    out = np.empty((b, t_count, base_pts.shape[1] + 1))
    out[..., axis] = t
    rest = [a for a in range(base_pts.shape[1] + 1) if a != axis]
    out[..., rest] = base_pts[:, None, :]
    return out


def _roots_on_lines(f, base_pts: np.ndarray, axis: int, lo_a: float, hi_a: float, q: int):
    """All roots of t -> f(..., t, ...) on [lo_a, hi_a] for every base point.

    Scans q+3 equal sub-intervals for sign changes, bisects each bracket a
    fixed number of steps, then applies one Newton polish clipped to the
    bracket.  Returns (line_index, root) arrays, unsorted across lines but
    ascending within each line's scan order.
    """
    n_lines = base_pts.shape[0]
    ts = np.linspace(lo_a, hi_a, q + 4)
    vals = f.value(_line_points(base_pts, axis, np.broadcast_to(ts, (n_lines, ts.size))))

    exact = np.argwhere(vals == 0.0)
    exact_lines = exact[:, 0]
    exact_roots = ts[exact[:, 1]]

    sign_change = vals[:, :-1] * vals[:, 1:] < 0.0
    line_idx, seg_idx = np.nonzero(sign_change)
    t_lo = ts[seg_idx].astype(float)
    t_hi = ts[seg_idx + 1].astype(float)
    f_lo = vals[line_idx, seg_idx]
    if line_idx.size:
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (t_lo + t_hi)
            fm = f.value(_line_points(base_pts[line_idx], axis, mid[:, None]))[:, 0]
            left = (fm > 0) == (f_lo > 0)
            t_lo = np.where(left, mid, t_lo)
            f_lo = np.where(left, fm, f_lo)
            t_hi = np.where(left, t_hi, mid)
        root = 0.5 * (t_lo + t_hi)
        # one Newton step with the height-direction derivative
        x = _line_points(base_pts[line_idx], axis, root[:, None])
        fr = f.value(x)[:, 0]
        dr = f.gradient(x)[:, 0, axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(np.abs(dr) > 0, fr / dr, 0.0)
        root = np.clip(root - step, t_lo, t_hi)
        scale = np.abs(vals).max() if vals.size else 1.0
        res = np.abs(f.value(_line_points(base_pts[line_idx], axis, root[:, None]))[:, 0])
        if scale > 0 and (res > 1e-6 * scale).any():
            raise QuadratureError("root finding did not converge")
    else:
        root = np.empty(0)

    lines = np.concatenate([exact_lines, line_idx])
    roots = np.concatenate([exact_roots, root])
    return lines.astype(np.int64), roots


def _merge_roots(roots: np.ndarray, span: float) -> np.ndarray:
    """Sort and deduplicate roots that coincide to within the bisection width."""
    if roots.size == 0:
        return roots
    roots = np.sort(roots)
    keep = np.concatenate([[True], np.diff(roots) > 1e-12 * span])
    return roots[keep]


def _reduce(lo, hi, funcs, rule, samples: int):
    """One dimension-reduction step over the box for every function in funcs.

    Picks the height axis, builds the base rule over the other axes (split at
    the zeros of each function on the bottom and top faces) and finds the
    roots along every base line.  Returns (axis, base points, base weights,
    sorted merged roots per base line); a 1D box has a single empty base
    point of weight one.  Raises _NeedSubdivision when no axis qualifies."""
    if len(lo) == 1:
        axis, base, base_w = 0, np.zeros((1, 0)), np.ones(1)
    else:
        axis = _pick_height_axis(funcs, lo, hi, samples)
        sub_lo = [v for a, v in enumerate(lo) if a != axis]
        sub_hi = [v for a, v in enumerate(hi) if a != axis]
        faces = [_Slice(f, axis, c) for c in (lo[axis], hi[axis]) for f in funcs]
        base, base_w = _box_rule(sub_lo, sub_hi, faces, rule, samples)
    found = [_roots_on_lines(f, base, axis, lo[axis], hi[axis], len(rule[0])) for f in funcs]
    lines = np.concatenate([li for li, _ in found])
    roots = np.concatenate([rt for _, rt in found])
    span = hi[axis] - lo[axis]
    return axis, base, base_w, [_merge_roots(roots[lines == b], span) for b in range(base.shape[0])]


def _line_rule(line: np.ndarray, weight: float, axis: int, breaks: np.ndarray, rule, keep=None):
    """Gauss points and weights of the 1D ``rule`` on the segments between
    consecutive breaks of one base line (line (1, m-1) with base weight
    ``weight``); ``keep`` masks the segments to emit."""
    gx, gw = rule
    t0, seg = breaks[:-1], np.diff(breaks)
    if keep is not None:
        t0, seg = t0[keep], seg[keep]
    t = t0[:, None] + gx * seg[:, None]
    return _line_points(line, axis, t.reshape(1, -1))[0], (weight * gw * seg[:, None]).ravel()


def _box_rule(lo, hi, funcs, rule, samples: int):
    """Quadrature covering the WHOLE box, with Gauss pieces split so that no
    piece straddles a zero of any function in ``funcs``."""
    pts = _sample_grid(lo, hi, samples)
    funcs = [f for f in funcs if _has_sign_change(np.atleast_1d(f.value(pts)))]
    if not funcs:
        return _tensor_rule(lo, hi, rule)
    axis, base, base_w, roots = _reduce(lo, hi, funcs, rule, samples)
    pieces = [
        _line_rule(base[b : b + 1], base_w[b], axis, np.concatenate([[lo[axis]], bp, [hi[axis]]]), rule)
        for b, bp in enumerate(roots)
    ]
    return np.concatenate([p for p, _ in pieces]), np.concatenate([w for _, w in pieces])


def _append(parts: list, arrays) -> None:
    for part, a in zip(parts, arrays):
        part.append(a)


def _cut_rule(lo, hi, phi, rule, depth: int, parts: list, counter: list) -> None:
    """Append the volume and surface pieces of one box to ``parts`` (lists of
    interior points, interior weights, surface points, surface weights and
    normals); recursive subdivision entry point.  ``rule`` is the 1D Gauss
    rule every box and sub-box shares."""
    samples = max(len(rule[0]) + 1, 3)
    vals = phi.value(_sample_grid(lo, hi, samples))
    if (vals < 0).all():
        return
    if (vals >= 0).all():
        _append(parts, _tensor_rule(lo, hi, rule))
        return

    try:
        axis, base, base_w, roots = _reduce(lo, hi, [phi], rule, samples)
    except _NeedSubdivision:
        center = 0.5 * (np.asarray(lo) + np.asarray(hi))
        if depth <= 0:
            counter[0] += 1
            if phi.value(center[None, :])[0] >= 0:
                _append(parts, _tensor_rule(lo, hi, rule))
            return
        for corner in range(2 ** len(lo)):
            upper = [corner >> a & 1 for a in range(len(lo))]
            slo = [center[a] if u else lo[a] for a, u in enumerate(upper)]
            shi = [hi[a] if u else center[a] for a, u in enumerate(upper)]
            _cut_rule(slo, shi, phi, rule, depth - 1, parts, counter)
        return

    for b, bp in enumerate(roots):
        line = base[b : b + 1]
        breaks = np.concatenate([[lo[axis]], bp, [hi[axis]]])
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        inside = phi.value(_line_points(line, axis, mids[None, :]))[0] > 0
        _append(parts, _line_rule(line, base_w[b], axis, breaks, rule, inside))
        if bp.size:
            x = _line_points(line, axis, bp[None, :])[0]
            g = np.atleast_2d(phi.gradient(x))
            norm = np.linalg.norm(g, axis=-1)
            _append(parts[2:], (x, base_w[b] * norm / np.abs(g[:, axis]), -g / norm[:, None]))


def cut_cell_quadrature(lo, hi, phi, q: int, max_depth: int = 8) -> CutCellQuadrature:
    """Build the combined volume/surface rule of one (possibly cut) box."""
    rule = gauss_rule(q)  # rejects q < 1
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    lo = [float(v) for v in np.asarray(lo).ravel()]
    hi = [float(v) for v in np.asarray(hi).ravel()]
    if len(lo) != len(hi) or any(l >= h for l, h in zip(lo, hi)):
        raise ValueError("invalid box")
    d = len(lo)
    parts = [[np.empty((0, d))], [np.empty(0)], [np.empty((0, d))], [np.empty(0)], [np.empty((0, d))]]
    counter = [0]
    _cut_rule(lo, hi, phi, rule, max_depth, parts, counter)
    return CutCellQuadrature(*(np.concatenate(p) for p in parts), counter[0])


def dump_quadrature_csv(path, rules: dict) -> None:
    """Debug dump: cell_index, kind (I volume / S surface), coords, weight,
    and for surface rows the normal components."""
    first = next(iter(rules.values()), None)
    d = first.interior_points.shape[1] if first is not None else 3
    coord_names = ["x", "y", "z"][:d]
    norm_names = ["nx", "ny", "nz"][:d]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(["cell_index", "kind", *coord_names, "w", *norm_names]) + "\n")
        for cell, rule in rules.items():
            for p, w in zip(rule.interior_points, rule.interior_weights):
                row = [str(cell), "I", *(repr(float(v)) for v in p), repr(float(w))]
                f.write(",".join(row + [""] * d) + "\n")
            for p, w, n in zip(rule.surface_points, rule.surface_weights, rule.surface_normals):
                row = [str(cell), "S", *(repr(float(v)) for v in p), repr(float(w))]
                f.write(",".join(row + [repr(float(v)) for v in n]) + "\n")
