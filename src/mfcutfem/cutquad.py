"""High-order quadrature on implicitly bounded cell fractions.

Given a box K and a level set phi, builds Gauss-type rules for the volume
K n {phi > 0} and the surface K n {phi = 0} by dimension reduction: pick a
height axis along which d(phi)/dx_a has uniform sign, integrate the other
axes with a recursively built base rule that is split at the zeros of phi
restricted to the bottom/top faces, and resolve each vertical line by root
finding (a sign scan repeated on every bracket with a sign change).

Points are always d-dimensional.  A face of a box is a box whose hi equals
its lo on the pinned axes, and the restrictions of phi to it are the rows of
a ``pins`` array (F, d) holding the pinned coordinate on the fixed axes and
NaN on the free ones, so that one level-set call reads them all.  The roots
on the base lines are (line, root) rows sorted by line and then by root, and
the Gauss pieces between them are emitted for all lines at once.

When no axis qualifies the box is bisected into 2^d sub-boxes up to
``max_depth``; below that a sign-of-center fallback fires and is counted.
The construction is sampling-based, not certified: interfaces that oscillate
below the sample resolution can be missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor1d import gauss_rule

# an axis qualifies as height direction when |d(phi)/dx_a| is at least this
# fraction of the largest component at every sample point, with uniform sign
DERIVATIVE_DOMINANCE = 1e-3
ROOT_BITS = 48  # root brackets end no wider than 2^-48 (~4e-15) of the line


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


def _eval(phi, x: np.ndarray, gradient: bool = False) -> np.ndarray:
    """phi's value (or gradient) at the points x (..., d); the one reader of
    the level set, which must give finite arrays of shape x.shape[:-1]
    (or x.shape)."""
    kind, shape = ("gradient", x.shape) if gradient else ("value", x.shape[:-1])
    out = np.asarray(phi.gradient(x) if gradient else phi.value(x))
    if out.shape != shape:
        point = x.reshape(-1, x.shape[-1])[0]
        raise QuadratureError(f"level set {kind} has shape {out.shape} for points {x.shape}, e.g. {point.tolist()}")
    bad = ~np.isfinite(out)
    if bad.any():
        point = x[tuple(np.argwhere(bad)[0][: x.ndim - 1])]
        raise QuadratureError(f"level set {kind} is not finite at {point.tolist()}")
    return out


def _pinned(pins: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The points x with each restriction's pinned coordinates put in."""
    return np.where(np.isnan(pins), x, pins)


def _sample_grid(lo, hi, per_axis: int) -> np.ndarray:
    """Tensor sample grid including the box corners, shape (n, d); an axis
    with hi == lo gets one sample."""
    axes = [np.linspace(l, h, per_axis) if h > l else np.array([l]) for l, h in zip(lo, hi)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _tensor_rule(lo, hi, rule) -> tuple[np.ndarray, np.ndarray]:
    """Plain tensor-product of the 1D Gauss ``rule`` over the whole box; an
    axis with hi == lo gets one point of weight one."""
    gx, gw = rule
    pts_1d = [l + gx * (h - l) if h > l else np.array([l]) for l, h in zip(lo, hi)]
    wts_1d = [gw * (h - l) if h > l else np.ones(1) for l, h in zip(lo, hi)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*pts_1d, indexing="ij")], axis=-1)
    wts = np.ones(1)
    for w in wts_1d:
        wts = np.multiply.outer(wts, w).ravel()
    return pts, wts


def _pick_height_axis(phi, pins, lo, hi, free: np.ndarray, samples: int) -> int:
    """Free axis with sign-uniform, everywhere-dominant partial derivative
    for every restriction; raises _NeedSubdivision when none exists."""
    g = _eval(phi, _pinned(pins[:, None], _sample_grid(lo, hi, samples)), True)[..., free]
    dominant = np.abs(g) >= DERIVATIVE_DOMINANCE * np.abs(g).max(axis=-1, keepdims=True)
    ok = ((g > 0).all(axis=(0, 1)) | (g < 0).all(axis=(0, 1))) & dominant.all(axis=(0, 1))
    score = np.where(ok, np.abs(g).min(axis=(0, 1)), 0.0)
    if not score.max() > 0:
        raise _NeedSubdivision
    return int(free[np.argmax(score)])


def _line_points(base: np.ndarray, axis: int, t: np.ndarray) -> np.ndarray:
    """Points (B, T, d) on the lines through base (B, d) along ``axis`` at the
    heights t (B, T)."""
    x = np.repeat(base[:, None, :], t.shape[-1], axis=1)
    x[..., axis] = t
    return x


def _roots_on_lines(phi, pins, base: np.ndarray, axis: int, lo_a: float, hi_a: float, q: int):
    """All roots of every restriction on [lo_a, hi_a] along every base line.

    A bracket is a (restriction, line, t_lo, t_hi) row; the first ones are
    the whole lines.  Each scan splits every bracket at q+4 equally spaced
    heights: an exact zero is a root, and every sub-piece with a strict sign
    change is a bracket of the next scan, which keeps its end values and
    reads phi only inside it, so no sign is decided on a value read twice.
    After 1 + ceil(ROOT_BITS / log2(q+3)) scans a bracket is at most
    2^-ROOT_BITS of the line wide and its midpoint is the root.  Returns
    unsorted (line_index, root) arrays.
    """
    row, line = (i.ravel() for i in np.indices((len(pins), len(base))))
    ts = np.linspace(np.full(row.size, lo_a), hi_a, q + 4, axis=-1)
    vals = _eval(phi, _pinned(pins[row, None], _line_points(base[line], axis, ts)))
    scale = np.abs(vals).reshape(len(pins), -1).max(axis=1)  # one per restriction
    lines, roots = [], []
    scans = 1 + math.ceil(ROOT_BITS / math.log2(q + 3))
    for scan in range(1, scans + 1):
        k, j = np.nonzero(vals == 0.0)
        _append([lines, roots], (line[k], ts[k, j]))
        k, j = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
        row, line, f_lo, f_hi = row[k], line[k], vals[k, j], vals[k, j + 1]
        ts = np.linspace(ts[k, j], ts[k, j + 1], q + 4, axis=-1)
        if scan == scans or not line.size:
            break
        inner = _eval(phi, _pinned(pins[row, None], _line_points(base[line], axis, ts[:, 1:-1])))
        vals = np.column_stack([f_lo, inner, f_hi])
    root = 0.5 * (ts[:, 0] + ts[:, -1])
    if line.size:
        fr = _eval(phi, _pinned(pins[row, None], _line_points(base[line], axis, root[:, None])))[:, 0]
        if ((scale[row] > 0) & (np.abs(fr) > 1e-6 * scale[row])).any():
            raise QuadratureError("root finding did not converge")
    return np.concatenate([*lines, line]), np.concatenate([*roots, root])


def _reduce(lo, hi, phi, pins, rule, samples: int):
    """One dimension-reduction step over the box for every restriction (row
    of ``pins``).

    Picks the height axis among the free axes, builds the base rule on the
    bottom face (split at the zeros of every restriction pinned to the bottom
    and top faces) and finds the roots along every base line.  Returns (axis,
    base points, base weights, line, root) with the (line, root) rows sorted
    by line and then by root, and roots closer than 1e-12 of the span on one
    line merged; a box with one free axis has its lower corner as the single
    base point of weight one.  Raises _NeedSubdivision when no axis
    qualifies."""
    free = np.flatnonzero(np.asarray(hi) > np.asarray(lo))
    if free.size == 1:
        axis, base, base_w = int(free[0]), np.array([lo]), np.ones(1)
    else:
        axis = _pick_height_axis(phi, pins, lo, hi, free, samples)
        faces = np.concatenate([pins, pins])
        faces[: len(pins), axis], faces[len(pins) :, axis] = lo[axis], hi[axis]
        bottom = [lo[a] if a == axis else h for a, h in enumerate(hi)]
        base, base_w = _box_rule(lo, bottom, phi, faces, rule, samples)
    line, root = _roots_on_lines(phi, pins, base, axis, lo[axis], hi[axis], len(rule[0]))
    order = np.lexsort((root, line))
    line, root = line[order], root[order]
    keep = np.ones(line.size, dtype=bool)
    keep[1:] = (line[1:] != line[:-1]) | (np.diff(root) > 1e-12 * (hi[axis] - lo[axis]))
    return axis, base, base_w, line[keep], root[keep]


def _pieces(n_lines: int, line: np.ndarray, root: np.ndarray, lo_a: float, hi_a: float):
    """(line, start, end) of the pieces between consecutive breaks (the box
    ends and the sorted roots) of every line, line by line."""
    ends = np.arange(n_lines)
    lines = np.concatenate([ends, line, ends])
    breaks = np.concatenate([np.full(n_lines, lo_a), root, np.full(n_lines, hi_a)])
    order = np.lexsort((np.repeat([0, 1, 2], [n_lines, line.size, n_lines]), lines))
    lines, breaks = lines[order], breaks[order]
    same = lines[1:] == lines[:-1]
    return lines[1:][same], breaks[:-1][same], breaks[1:][same]


def _line_rule(base, base_w, axis: int, line, t0, t1, rule):
    """Gauss points and weights of the 1D ``rule`` on the pieces [t0, t1] of
    the base lines ``line``, piece by piece."""
    gx, gw = rule
    seg = t1 - t0
    t = t0[:, None] + gx * seg[:, None]
    pts = _line_points(base[line], axis, t).reshape(-1, base.shape[1])
    return pts, (base_w[line][:, None] * gw * seg[:, None]).ravel()


def _box_rule(lo, hi, phi, pins, rule, samples: int):
    """Quadrature covering the WHOLE box, with Gauss pieces split so that no
    piece straddles a zero of any restriction."""
    vals = _eval(phi, _pinned(pins[:, None], _sample_grid(lo, hi, samples)))
    pins = pins[((vals > 0).any(axis=1) & (vals < 0).any(axis=1)) | (vals == 0.0).any(axis=1)]
    if not len(pins):
        return _tensor_rule(lo, hi, rule)
    axis, base, base_w, line, root = _reduce(lo, hi, phi, pins, rule, samples)
    return _line_rule(base, base_w, axis, *_pieces(len(base), line, root, lo[axis], hi[axis]), rule)


def _append(parts: list, arrays) -> None:
    for part, a in zip(parts, arrays):
        part.append(a)


def _cut_rule(lo, hi, phi, rule, depth: int, parts: list, counter: list) -> None:
    """Append the volume and surface pieces of one box to ``parts`` (lists of
    interior points, interior weights, surface points, surface weights and
    normals); recursive subdivision entry point.  ``rule`` is the 1D Gauss
    rule every box and sub-box shares."""
    samples = max(len(rule[0]) + 1, 3)
    vals = _eval(phi, _sample_grid(lo, hi, samples))
    if (vals < 0).all():
        return
    if (vals >= 0).all():
        _append(parts, _tensor_rule(lo, hi, rule))
        return

    try:
        axis, base, base_w, line, root = _reduce(lo, hi, phi, np.full((1, len(lo)), np.nan), rule, samples)
    except _NeedSubdivision:
        center = 0.5 * (np.asarray(lo) + np.asarray(hi))
        if depth <= 0:
            counter[0] += 1
            if _eval(phi, center[None, :])[0] >= 0:
                _append(parts, _tensor_rule(lo, hi, rule))
            return
        for corner in range(2 ** len(lo)):
            upper = [corner >> a & 1 for a in range(len(lo))]
            slo = [center[a] if u else lo[a] for a, u in enumerate(upper)]
            shi = [hi[a] if u else center[a] for a, u in enumerate(upper)]
            _cut_rule(slo, shi, phi, rule, depth - 1, parts, counter)
        return

    piece, t0, t1 = _pieces(len(base), line, root, lo[axis], hi[axis])
    inside = _eval(phi, _line_points(base[piece], axis, 0.5 * (t0 + t1)[:, None]))[:, 0] > 0
    _append(parts, _line_rule(base, base_w, axis, piece[inside], t0[inside], t1[inside], rule))
    if root.size:
        x = _line_points(base[line], axis, root[:, None])[:, 0]
        g = _eval(phi, x, True)
        norm = np.linalg.norm(g, axis=-1)
        _append(parts[2:], (x, base_w[line] * norm / np.abs(g[:, axis]), -g / norm[:, None]))


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
