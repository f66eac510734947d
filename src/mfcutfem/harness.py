"""Experiment drivers and command-line front end.

Subcommands
-----------
convergence   L2-error refinement study on a disk (2D) or ball (3D) domain
kernelbench   per-cell/per-face kernel microbenchmarks
multiballs    vmult throughput across seeded multi-ball domains
breakdown     vmult wall time split into operator components

Each driver writes CSV files (UTF-8, LF, full round-trip float precision)
and, for convergence and breakdown, a self-contained SVG plot whose data
marks carry ``data-row`` attributes referencing CSV data rows one-to-one.
Rerunning a driver with the same configuration reproduces every non-timing
column bitwise.

Configuration comes from ``key = value`` lines (``--config FILE``) with
command-line flags taking precedence.  Exit codes: 0 success, 2 configuration
error or degenerate set-up (breakdown on a geometry with no active degrees
of freedom), 3 when ``--strict`` is set and any solve failed to converge or
any context needed sign-of-center quadrature fallbacks (both logged as
warnings).
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from dataclasses import dataclass, fields
from math import prod
from pathlib import Path

import numpy as np

from .geometry import (
    BallUnionLevelSet,
    HalfSpaceLevelSet,
    SphereLevelSet,
    box_mesh,
    generate_balls,
    load_balls,
    save_balls,
)
from .operators import (
    Parameters,
    assemble_rhs,
    breakdown_report,
    build_context,
    cut_apply,
    cut_block,
    ghost_face_kernel,
    reset_timers,
    vmult,
)
from .solver import cg_solve, l2_error, manufactured_problem, radial_cosine_problem
from .sumfac import cell_laplacian_kernel
from .tensor1d import build_reference_element

BOX_HALF_WIDTH = 1.26  # the unit ball never touches the box boundary

CONVERGENCE_HEADER = "k,refinement,h,n_dofs,iterations,l2_error,rate"
THROUGHPUT_HEADER = "n_balls,seed,k,n_dofs,cut_fraction,dofs_per_second"
BREAKDOWN_HEADER = "component,seconds,percent"
KERNELBENCH_HEADER = "d,k,kernel,microseconds,relative"

_DOMAINS = ("disk", "sphere", "balls", "halfspace")
_DOMAIN_DIMS = {"disk": 2, "sphere": 3}
_PROBLEMS = {"cosine": radial_cosine_problem, "quadratic": manufactured_problem}  # name -> (u_exact, f) of dim

_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910", "#117a65")


class ConfigError(Exception):
    """Invalid configuration value or file; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """One experiment run; every field maps to a config-file key / CLI flag."""

    command: str
    degrees: tuple[int, ...] = (1, 2, 3)
    refinements: int = 5
    dim: int | None = None  # unset: the domain's where the run reads it (disk 2, sphere 3), else 2
    domain: str = "disk"
    problem: str = "cosine"
    seed: int = 0
    r0: float = 1.0
    offset: float = 0.5
    ball_counts: tuple[int, ...] = (1, 2, 4, 8, 16)
    ball_file: str | None = None
    gamma_ghost: float | None = None
    gamma_dirichlet: float | None = None
    quad_order: int | None = None
    max_quad_depth: int | None = None
    out_dir: str = "results"
    repeats: int = 50
    strict: bool = False
    interpolate_only: bool = False


def _parser(convert, what: str):
    """A config value parser: convert(text), any ValueError a ConfigError
    that says what was expected."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise ConfigError(f"expected {what}, got {text!r}") from exc
    return parse


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


_PARSERS = {
    "tuple[int, ...]": _parser(lambda text: tuple(int(t) for t in text.split(",") if t.strip()),
                               "comma-separated integers"),
    "int": _parser(int, "an integer"),
    "float": _parser(float, "a number"),
    "str": str,
    "bool": _parse_bool,
}

# one parser per RunConfig field, chosen by the field's annotation
_CONVERTERS = {
    f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(RunConfig) if f.name != "command"
}


def load_config_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _CONVERTERS[key](val.strip())
    return values


def validate_config(cfg: RunConfig) -> None:
    if cfg.command not in _DRIVERS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    if not cfg.degrees:
        raise ConfigError("degrees must not be empty")
    if any(k not in (1, 2, 3, 4) for k in cfg.degrees):
        raise ConfigError(f"degrees must lie in 1..4, got {cfg.degrees}")
    if cfg.refinements < 1:
        raise ConfigError(f"refinements must be >= 1, got {cfg.refinements}")
    if cfg.domain not in _DOMAINS:
        raise ConfigError(f"domain must be one of {_DOMAINS}, got {cfg.domain!r}")
    if cfg.dim is not None and cfg.dim != _dim(cfg):
        raise ConfigError(f"dim {cfg.dim} disagrees with the {cfg.domain} domain, which is {_dim(cfg)}D")
    if _dim(cfg) not in (2, 3):
        raise ConfigError(f"dim must be 2 or 3, got {cfg.dim}")
    if cfg.problem not in _PROBLEMS:
        raise ConfigError(f"problem must be one of {tuple(_PROBLEMS)}, got {cfg.problem!r}")
    if cfg.command == "convergence" and cfg.domain not in ("disk", "sphere"):
        raise ConfigError("convergence supports only the disk and sphere domains")
    if not 0 < cfg.r0 < np.inf or not np.isfinite(cfg.offset):
        raise ConfigError(f"r0 must be positive and finite, and offset finite; got r0={cfg.r0}, offset={cfg.offset}")
    if not cfg.ball_counts or any(n < 1 for n in cfg.ball_counts):
        raise ConfigError(f"ball_counts must be positive, got {cfg.ball_counts}")
    if cfg.command == "multiballs" and cfg.ball_file is not None and len(cfg.ball_counts) > 1:
        raise ConfigError(f"ball_file gives one domain; multiballs needs one ball count, got {cfg.ball_counts}")
    reads_balls = cfg.command == "multiballs" or (cfg.command, cfg.domain) == ("breakdown", "balls")
    if cfg.ball_file is not None and reads_balls:
        try:
            centers, radii = load_balls(cfg.ball_file)
            BallUnionLevelSet(centers, radii)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad ball file {cfg.ball_file}: {exc}") from exc
        if centers.ndim != 2 or centers.shape[1] != _dim(cfg):
            raise ConfigError(f"ball file {cfg.ball_file} must give centres of dim {_dim(cfg)}, got {centers.shape}")
    if cfg.repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if cfg.seed < 0:  # numpy's generators take non-negative seeds only
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    for k in cfg.degrees:
        try:
            _params(cfg, k)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _dim(cfg: RunConfig) -> int:
    """The run's dimension: a disk's or sphere's own where the driver reads
    the domain (convergence, breakdown), else dim, which defaults to 2."""
    if cfg.command in ("convergence", "breakdown") and cfg.domain in _DOMAIN_DIMS:
        return _DOMAIN_DIMS[cfg.domain]
    return 2 if cfg.dim is None else cfg.dim


def _params(cfg: RunConfig, k: int) -> Parameters:
    """Parameters of degree k; options left unset keep their defaults."""
    names = [f.name for f in fields(Parameters) if f.name != "degree"]
    return Parameters(degree=k, **{n: getattr(cfg, n) for n in names if getattr(cfg, n) is not None})


# ---------------------------------------------------------------------------
# CSV and SVG output


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _text(x: float, y: float, s: str, anchor: str = "start", size: int = 12, extra: str = "") -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" font-family="sans-serif" '
        f'text-anchor="{anchor}"{extra}>{s}</text>'
    )


def write_loglog_svg(path, series, title: str, xlabel: str, ylabel: str) -> None:
    """Log-log plot; series = (label, ref_slope, xs, ys, csv_row_numbers)."""
    width, height = 640, 480
    ml, mr, mt, mb = 75, 25, 45, 55
    floor = 1e-17
    lx = [math.log10(x) for (_, _, xs, _, _) in series for x in xs]
    ly = [math.log10(max(y, floor)) for (_, _, _, ys, _) in series for y in ys]
    xmin, xmax = min(lx), max(lx)
    ymin, ymax = min(ly), max(ly)
    if xmax - xmin < 1e-9:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax - ymin < 1e-9:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    ymax += 0.08 * (ymax - ymin)  # headroom for reference slope lines
    xpad = 0.04 * (xmax - xmin)
    xmin, xmax = xmin - xpad, xmax + xpad

    def sx(v: float) -> float:
        return ml + (v - xmin) / (xmax - xmin) * (width - ml - mr)

    def sy(v: float) -> float:
        return height - mb - (v - ymin) / (ymax - ymin) * (height - mb - mt)

    body = [
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="#444"/>',
        _text(width / 2, 25, title, anchor="middle", size=15),
        _text(width / 2, height - 12, xlabel, anchor="middle"),
        _text(18, height / 2, ylabel, anchor="middle",
              extra=f' transform="rotate(-90 18 {height / 2:.2f})"'),
    ]
    for e in range(math.ceil(xmin), math.floor(xmax) + 1):
        x = sx(e)
        body.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{height - mb}" stroke="#ddd"/>')
        body.append(_text(x, height - mb + 16, f"1e{e}", anchor="middle", size=11))
    for e in range(math.ceil(ymin), math.floor(ymax) + 1):
        y = sy(e)
        body.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{width - mr}" y2="{y:.2f}" stroke="#ddd"/>')
        body.append(_text(ml - 6, y + 4, f"1e{e}", anchor="end", size=11))

    for i, (label, slope, xs, ys, row_ids) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        px = [sx(math.log10(x)) for x in xs]
        py = [sy(math.log10(max(y, floor))) for y in ys]
        if len(px) > 1:
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
            body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y, row in zip(px, py, row_ids):
            body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="{color}" data-row="{row}"/>')
        if slope is not None and len(xs) > 1:
            # dashed guide of the expected slope, anchored above the last point
            x0, x1 = math.log10(xs[-1]), math.log10(xs[0])
            y0 = math.log10(max(ys[-1], floor)) + math.log10(2.0)
            y1 = y0 + slope * (x1 - x0)
            body.append(
                f'<line x1="{sx(x0):.2f}" y1="{sy(y0):.2f}" x2="{sx(x1):.2f}" y2="{sy(y1):.2f}" '
                f'stroke="{color}" stroke-dasharray="5 4" stroke-width="1"/>'
            )
            body.append(_text(sx(x1) + 4, sy(y1) + 4, f"slope {slope:g}", size=10))
        body.append(_text(width - mr - 8, mt + 18 + 16 * i, label, anchor="end", size=12,
                          extra=f' fill="{color}"'))
    Path(path).write_text(_svg_document(width, height, body), encoding="utf-8", newline="\n")


def write_stacked_bar_svg(path, rows, title: str) -> None:
    """One stacked bar; rows = (component, seconds, percent) CSV data rows."""
    width, height = 460, 480
    bar_x, bar_w = 110, 130
    base_y, full_h = height - 60, 350
    body = [_text(width / 2, 28, title, anchor="middle", size=15)]
    y = base_y
    for i, (component, _seconds, percent) in enumerate(rows):
        seg = full_h * percent / 100.0
        y -= seg
        color = _PALETTE[i % len(_PALETTE)]
        body.append(
            f'<rect x="{bar_x}" y="{y:.2f}" width="{bar_w}" height="{max(seg, 0.0):.2f}" '
            f'fill="{color}" stroke="#333" data-row="{i + 1}"/>'
        )
        ly = 90 + 24 * i
        body.append(f'<rect x="{bar_x + bar_w + 40}" y="{ly - 11}" width="13" height="13" fill="{color}"/>')
        body.append(_text(bar_x + bar_w + 60, ly, f"{component} ({percent:.1f}%)", size=12))
    body.append(f'<line x1="{bar_x - 15}" y1="{base_y}" x2="{bar_x + bar_w + 15}" y2="{base_y}" stroke="#444"/>')
    Path(path).write_text(_svg_document(width, height, body), encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# shared driver helpers


def _median_batch_seconds(fn, repeats: int, batches: int = 3) -> float:
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _balls(cfg: RunConfig, n: int, lo, hi):
    """(centers, radii) from the ball file, or n balls generated from the seed."""
    if cfg.ball_file is not None:
        return load_balls(cfg.ball_file)
    return generate_balls(n, cfg.seed, lo, hi, cfg.r0)


def _timed_vmults(ctx, rng, repeats: int) -> float:
    """Median seconds of a batch of repeats vmults of one random vector, after
    a warm-up; ctx's timers then hold all the timed applications."""
    u = rng.standard_normal(ctx.n_dofs)
    vmult(ctx, u)  # warm-up
    reset_timers(ctx)
    return _median_batch_seconds(lambda: vmult(ctx, u), repeats)


def _fallbacks(ctx, where: str) -> bool:
    """Whether ctx's cut rules needed sign-of-center fallbacks, logged as a warning."""
    if ctx.fallback_count:
        _log(f"warning: {ctx.fallback_count} sign-of-center quadrature fallbacks ({where})")
    return ctx.fallback_count > 0


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _volume_points(ctx) -> str:
    """The cut cells' volume points in their rules and in the cut block, where
    a cell of more than (2k+1)^d keeps (2k+1)^d moment-fitted ones: the
    block's real rows less 2 per surface point, over d rows per volume point."""
    rows = np.count_nonzero(ctx.cut.real) - 2 * ctx.surface.weights.size
    return f"volume_points rule={ctx.volume.weights.size} block={rows // ctx.mesh.dim}"


def _cut_rows(ctx) -> str:
    """The cut block's rows, stored (padding included) and real."""
    return f"cut_rows stored={ctx.cut.real.size} real={np.count_nonzero(ctx.cut.real)}"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _convergence_mesh(dim: int, level: int):
    cells = 6 * 2**level
    return box_mesh([-BOX_HALF_WIDTH] * dim, [BOX_HALF_WIDTH] * dim, [cells] * dim)


# ---------------------------------------------------------------------------
# drivers


def run_convergence(cfg: RunConfig) -> int:
    """Refinement study: coarsest mesh has 6 cells per axis, each level halves h."""
    dim = _dim(cfg)
    u_exact, f = _PROBLEMS[cfg.problem](dim)
    levelset = SphereLevelSet(np.zeros(dim), 1.0)
    out = _out_dir(cfg)

    rows: list[list] = []
    series = []
    failures = 0
    for k in cfg.degrees:
        hs, errs, row_ids = [], [], []
        prev_err = None
        for level in range(cfg.refinements):
            mesh = _convergence_mesh(dim, level)
            ctx = build_context(mesh, levelset, _params(cfg, k))
            failures += _fallbacks(ctx, f"k={k}, refinement={level}")
            if cfg.interpolate_only:
                u = np.asarray(u_exact(ctx.dofmap.dof_coordinates()), dtype=float)
                iterations = 0
            else:
                rhs = assemble_rhs(ctx, f)
                report = cg_solve(ctx, rhs, tol_rel=1e-8)
                u = report.solution
                iterations = report.iterations
                if not report.converged:
                    failures += 1
                    _log(
                        f"warning: CG did not converge (k={k}, refinement={level}, "
                        f"{report.stop_reason}, relative residual {report.relative_residual:.3e})"
                    )
            err = l2_error(ctx, u, u_exact)
            h = min(mesh.spacing)
            rate = None if prev_err is None or err <= 0 else math.log2(prev_err / err)
            rows.append([k, level, h, ctx.n_dofs, iterations, err, rate])
            hs.append(h)
            errs.append(err)
            row_ids.append(len(rows))
            prev_err = err
            _log(f"convergence k={k} refinement={level}: n_dofs={ctx.n_dofs} l2_error={err:.3e}")
        series.append((f"k={k}", k + 1, hs, errs, row_ids))

    write_csv(out / "convergence.csv", CONVERGENCE_HEADER, rows)
    write_loglog_svg(out / "convergence.svg", series, "L2 error vs mesh size", "h", "L2 error")
    _log(f"wrote {out / 'convergence.csv'} and {out / 'convergence.svg'}")
    return 3 if (cfg.strict and failures) else 0


def _bench_point_cell(elem, spacing, u_cells, pts_ref, weights):
    """The per-point cut-cell kernel as a call: a cut block of volume points
    only at arbitrary reference points, pts_ref (n_cells, points per cell,
    d), is tabulated here by one cut_block call, as build_context tabulates
    its one (every cell has S rows, d per point: one slot each, no
    padding), and the call gathers by slot and applies cut_apply, a weak
    Laplacian per cell, as vmult does.  The reference points stand in for
    the physical ones."""
    n_cells, n_pts, d = pts_ref.shape
    blk = cut_block(elem, spacing, (pts_ref.reshape(-1, d), weights, np.repeat(np.arange(n_cells), n_pts)))
    return lambda: cut_apply(blk, np.take(u_cells, blk.cell, axis=0))


def run_kernelbench(cfg: RunConfig) -> int:
    """Per-application microseconds for the three per-cell/per-face kernels
    (the factored cell and ghost-face kernels that vmult's cached matrices
    are probed from, and the per-point cut-cell kernel on a cut block
    tabulated beforehand), measured over vectorized cell batches; `relative`
    normalizes by the sum-factorized cell kernel at the smallest degree of
    the sweep (within each dimension)."""
    out = _out_dir(cfg)
    batch = 256
    loops = max(1, -(-1000 // batch))  # >= 1000 applications per timing batch
    rng = np.random.default_rng(cfg.seed)
    rows: list[list] = []
    for d in (2, 3):
        base_us = None
        for k in cfg.degrees:
            elem = build_reference_element(k)
            spacing = (0.1,) * d
            n = k + 1
            nloc = n**d
            u_cells = rng.standard_normal((batch, nloc))
            pts_ref = rng.random((batch, nloc, d))
            weights = np.full(batch * nloc, prod(spacing) / nloc)
            cell = cell_laplacian_kernel(elem, spacing)
            ghost_face = ghost_face_kernel(elem, spacing, 1.0, 0)
            u_patch = rng.standard_normal((batch, (2 * k + 1) * n ** (d - 1)))

            kernels = [
                ("sumfac_cell", lambda: cell(u_cells)),
                ("point_cell", _bench_point_cell(elem, spacing, u_cells, pts_ref, weights)),
                ("ghost_face", lambda: ghost_face(u_patch)),
            ]
            for name, fn in kernels:
                seconds = _median_batch_seconds(fn, loops)
                per_app_us = seconds / (loops * batch) * 1e6
                if base_us is None:  # first kernel is sumfac_cell at the smallest k
                    base_us = per_app_us
                rows.append([d, k, name, per_app_us, per_app_us / base_us])
                _log(f"kernelbench d={d} k={k} {name}: {per_app_us:.3f} us/application")
    write_csv(out / "kernelbench.csv", KERNELBENCH_HEADER, rows)
    _log(f"wrote {out / 'kernelbench.csv'}")
    return 0


def run_multiballs(cfg: RunConfig) -> int:
    """Throughput sweep over ball counts on a fixed mesh of 2^refinements
    cells per axis; each run also writes its own timing breakdown CSV."""
    dim = _dim(cfg)
    k = cfg.degrees[0]
    out = _out_dir(cfg)
    cells = 2**cfg.refinements
    lo = [-BOX_HALF_WIDTH] * dim
    hi = [BOX_HALF_WIDTH] * dim
    mesh = box_mesh(lo, hi, [cells] * dim)

    rows: list[list] = []
    failures = 0
    for n_balls in cfg.ball_counts:
        centers, radii = _balls(cfg, n_balls, lo, hi)
        save_balls(out / f"balls_{n_balls}.txt", centers, radii)
        ctx = build_context(mesh, BallUnionLevelSet(centers, radii), _params(cfg, k))
        failures += _fallbacks(ctx, f"n_balls={n_balls}")
        cut_fraction = ctx.classification.cut_fraction
        if ctx.n_dofs == 0:
            rows.append([n_balls, cfg.seed, k, 0, cut_fraction, 0.0])
            _log(f"multiballs n={n_balls}: degenerate domain (no active DoFs), skipped timing")
            continue
        seconds = _timed_vmults(ctx, np.random.default_rng([cfg.seed, n_balls]), cfg.repeats)
        dofs_per_second = ctx.n_dofs * cfg.repeats / seconds
        rows.append([n_balls, cfg.seed, k, ctx.n_dofs, cut_fraction, dofs_per_second])
        write_csv(out / f"breakdown_balls{n_balls}.csv", BREAKDOWN_HEADER, breakdown_report(ctx))
        _log(
            f"multiballs n={n_balls}: n_dofs={ctx.n_dofs} cut_fraction={cut_fraction:.3f} "
            f"throughput={dofs_per_second:.3e} DoFs/s {_volume_points(ctx)} {_cut_rows(ctx)}"
        )
    write_csv(out / "multiballs.csv", THROUGHPUT_HEADER, rows)
    _log(f"wrote {out / 'multiballs.csv'}")
    return 3 if (cfg.strict and failures) else 0


def _breakdown_domain(cfg: RunConfig):
    dim = _dim(cfg)
    if cfg.domain in _DOMAIN_DIMS:
        return _convergence_mesh(dim, cfg.refinements - 1), SphereLevelSet(np.zeros(dim), 1.0)
    lo = [-BOX_HALF_WIDTH] * dim
    hi = [BOX_HALF_WIDTH] * dim
    if cfg.domain == "balls":
        centers, radii = _balls(cfg, cfg.ball_counts[0], lo, hi)
        mesh = box_mesh(lo, hi, [2**cfg.refinements] * dim)
        return mesh, BallUnionLevelSet(centers, radii)
    normal = np.zeros(dim)
    normal[0] = 1.0
    mesh = box_mesh(lo, hi, [6 * 2 ** (cfg.refinements - 1)] * dim)
    return mesh, HalfSpaceLevelSet(normal, cfg.offset)


def run_breakdown(cfg: RunConfig) -> int:
    """Accumulate vmult timers over repeated applications and report the
    interior / intersected / ghost-penalty / scatter+other split."""
    out = _out_dir(cfg)
    k = cfg.degrees[0]
    mesh, levelset = _breakdown_domain(cfg)
    ctx = build_context(mesh, levelset, _params(cfg, k))
    if ctx.n_dofs == 0:
        _log("breakdown: degenerate domain (no active DoFs)")
        return 2
    _timed_vmults(ctx, np.random.default_rng(cfg.seed), cfg.repeats)
    rows = breakdown_report(ctx)
    write_csv(out / "breakdown.csv", BREAKDOWN_HEADER, rows)
    write_stacked_bar_svg(out / "breakdown.svg", rows, f"vmult time breakdown (k={k})")
    for component, seconds, percent in rows:
        _log(f"breakdown {component}: {seconds:.4f} s ({percent:.1f}%)")
    _log(f"breakdown {_volume_points(ctx)} {_cut_rows(ctx)}")
    _log(f"wrote {out / 'breakdown.csv'} and {out / 'breakdown.svg'}")
    return 3 if (_fallbacks(ctx, f"breakdown k={k}") and cfg.strict) else 0


# ---------------------------------------------------------------------------
# command line


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcutfem",
        description="Matrix-free cut finite element experiment drivers.",
    )
    parser.add_argument("command", choices=_DRIVERS)
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key = value configuration file; flags override it")
    for key, conv in _CONVERTERS.items():
        flag = "--" + key.replace("_", "-")
        if conv is _parse_bool:
            parser.add_argument(flag, dest=key, nargs="?", const="true", default=None,
                                metavar="BOOL")
        else:
            parser.add_argument(flag, dest=key, default=None, metavar="VALUE")
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        values.update(load_config_file(args.config))
    for key, conv in _CONVERTERS.items():
        raw = getattr(args, key)
        if raw is not None:
            values[key] = conv(raw) if isinstance(raw, str) else raw
    cfg = RunConfig(command=args.command, **values)
    validate_config(cfg)
    return cfg


_DRIVERS = {
    "convergence": run_convergence,
    "kernelbench": run_kernelbench,
    "multiballs": run_multiballs,
    "breakdown": run_breakdown,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _DRIVERS[cfg.command](cfg)
    except ConfigError as exc:  # from the configuration or a driver (its output directory)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
