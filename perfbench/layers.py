"""Per-layer metrics of a traced run, named after the package's modules.

Times come from spans (tracing.py); counts come from the context the run
built.  Metrics marked *computed* are derived from array shapes and sizes,
not measured: flops and bytes are what each vmult path must touch at least
once, ignoring caches, so they compare versions of the code, not machines.
"""

from __future__ import annotations

import dataclasses
import statistics
from math import prod

import numpy as np

import tracing


def trace_targets(geometry, cutquad, operators, solver):
    """(module, attribute, span name) for each call the traced run records.

    Each attribute is the name a caller looks up at call time: build_context
    calls geometry.* and cutquad.cut_cell_quadrature, l2_error reaches
    cutquad.cut_cell_quadrature through error_point_block, and the benchmark
    calls the rest through operators and solver (cg_solve applies the
    operator the benchmark passes it, which calls operators.vmult).
    """
    return [
        (geometry, "classify_cells", "geometry.classify"),
        (geometry, "build_dofmap", "geometry.dofmap"),
        (geometry, "ghost_faces", "geometry.ghost_faces"),
        (cutquad, "cut_cell_quadrature", "cutquad.cut_cell_quadrature"),
        (operators, "build_context", "operators.build_context"),
        (operators, "assemble_rhs", "operators.assemble_rhs"),
        (operators, "vmult", "operators.vmult"),
        (solver, "cg_solve", "solver.cg_solve"),
        (solver, "l2_error", "solver.l2_error"),
    ]


def context_bytes(ctx) -> int:
    """nbytes of every distinct array reachable from the context's fields
    (cut rules included), leaving out the l2_error rule cache."""
    seen: set[int] = set()

    def walk(obj) -> int:
        if isinstance(obj, np.ndarray):
            if id(obj) in seen:
                return 0
            seen.add(id(obj))
            return obj.nbytes
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return sum(walk(getattr(obj, f.name)) for f in dataclasses.fields(obj))
        if isinstance(obj, dict):
            return sum(walk(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return sum(walk(v) for v in obj)
        return 0

    return sum(walk(getattr(ctx, f.name)) for f in dataclasses.fields(ctx)
               if f.name not in ("_error_blocks", "timers"))


def _sumfac_flops(n_in: int, n_out: int, d: int) -> int:
    """One sweep of d 1D contractions taking n_in^d values to n_out^d."""
    flops, ext = 0, [n_in] * d
    for b in range(d):
        flops += 2 * n_out * n_in * (prod(ext) // ext[b])
        ext[b] = n_out
    return flops


def vmult_costs(ctx) -> dict[str, tuple[int, int]]:
    """Computed (flops, bytes) of one vmult for each path.

    Bytes count each array a path gathers, builds or scatters once: index
    arrays, gathered inputs, per-point tables and temporaries, local outputs
    and the bincount into the global vector.
    """
    d = ctx.mesh.dim
    n = ctx.elem.degree + 1
    q = len(ctx.elem.quad_points)
    nloc = n**d
    f8 = 8
    out = {}

    c = len(ctx.inside_cells)
    per_cell = d * (2 * _sumfac_flops(n, q, d) + 2 * q**d) + d * nloc
    out["interior"] = (c * per_cell, c * nloc * 5 * f8 + ctx.n_dofs * f8)

    pv, ps = ctx.volume.weights.size, ctx.surface.weights.size
    contract = 2 * sum(n**j for j in range(1, d + 1))
    outer = d * nloc + nloc
    point_tables = 2 * d * n * f8 + 2 * f8           # vals, grads, weight, cell
    point_arrays = 5 * nloc * f8                      # gathered u, contribution, index, bincount
    nc = len(ctx.cut_cells)
    out["intersected"] = (
        pv * d * (contract + outer) + ps * (d + 1) * (contract + outer),
        (pv + ps) * (point_tables + point_arrays) + ps * d * f8 + nc * nloc * 5 * f8 + ctx.n_dofs * f8,
    )

    flops = nbytes = 0
    if ctx.params.gamma_ghost != 0.0:
        for axis, idx in ctx.face_dofs.items():
            ext = ctx.dofmap.patch_extents(axis)
            patch = prod(ext)
            flops += idx.shape[0] * (sum(2 * m * patch for m in ext) + patch)
            nbytes += idx.shape[0] * patch * 5 * f8 + ctx.n_dofs * f8
    out["ghost_penalty"] = (flops, nbytes)
    return out


def _dur(span) -> float:
    return span.end - span.start


def per_layer_metrics(spans, raw) -> dict:
    """Metric name -> (value, unit) from the traced pass of measure()."""
    self_t = tracing.self_times(spans)
    below = lambda root, name: tracing.descendants(spans, root, name)  # noqa: E731

    # the round whose time to solution is the median; its parts add up to it
    rounds = [s for s in spans if s.name == "bench.time_to_solution"]
    i = sorted(range(len(rounds)), key=lambda j: _dur(rounds[j]))[len(rounds) // 2]
    tts, report, ctx = rounds[i], raw["rounds"][i]["report"], raw["ctx"]

    build = below(tts, "operators.build_context")[0]
    rhs = below(tts, "operators.assemble_rhs")[0]
    cg = below(tts, "solver.cg_solve")[0]
    l2 = below(tts, "solver.l2_error")[0]
    quad = below(build, "cutquad.cut_cell_quadrature")
    cell_ms = [1e3 * _dur(s) for s in quad] or [0.0]
    classify = tracing.total(below(build, "geometry.classify"))
    dofmap = tracing.total(below(build, "geometry.dofmap"))
    faces = tracing.total(below(build, "geometry.ghost_faces"))
    error_rules = tracing.total(below(l2, "cutquad.cut_cell_quadrature"))

    # blocking path: level set -> build -> rhs -> solve -> error, by module
    path_geometry = tracing.total(below(tts, "geometry.levelset")) + classify + dofmap + faces
    path_cutquad = tracing.total(quad) + error_rules
    path_operators = self_t[build.id] + _dur(rhs) + tracing.total(below(cg, "operators.vmult"))
    path_solver = self_t[cg.id] + self_t[l2.id]

    apps = len(raw["vmult_s"])
    split = {name: 1e3 * seconds / apps for name, seconds in raw["breakdown"].items()}
    rules = list(ctx.cut_rules.values())
    points = [r.interior_weights.size + r.surface_weights.size for r in rules] or [0]
    costs = vmult_costs(ctx)
    n_cut = len(ctx.cut_cells)

    m = {
        "geometry.classify_s": (classify, "s"),
        "geometry.dofmap_s": (dofmap, "s"),
        "geometry.ghost_faces_s": (faces, "s"),
        "geometry.n_dofs": (ctx.n_dofs, "count"),
        "geometry.cut_cells": (n_cut, "count"),
        "geometry.ghost_faces": (len(ctx.faces), "count"),
        "geometry.cut_fraction": (ctx.classification.cut_fraction, "ratio"),
        "cutquad.build_s": (tracing.total(quad), "s"),
        "cutquad.error_rules_s": (error_rules, "s"),
        "cutquad.calls": (len(quad), "count"),
        "cutquad.cell_ms_p50": (statistics.median(cell_ms), "ms"),
        "cutquad.cell_ms_max": (max(cell_ms), "ms"),
        "cutquad.fallbacks": (ctx.fallback_count, "count"),
        "cutquad.fallbacks_per_cell": (ctx.fallback_count / max(n_cut, 1), "ratio"),
        "cutquad.points_total": (sum(points), "count"),
        "cutquad.points_max_per_cell": (max(points), "count"),
        "operators.setup_self_s": (self_t[build.id], "s"),
        "operators.rhs_s": (_dur(rhs), "s"),
        "operators.vmult.interior_ms": (split["interior"], "ms"),
        "operators.vmult.intersected_ms": (split["intersected"], "ms"),
        "operators.vmult.ghost_penalty_ms": (split["ghost_penalty"], "ms"),
        "operators.vmult.scatter_other_ms": (split["scatter_other"], "ms"),
        "operators.context_bytes": (context_bytes(ctx), "B"),
        "operators.vmult.flops_computed": (sum(f for f, _ in costs.values()), "flop"),
        "operators.vmult.bytes_computed": (sum(b for _, b in costs.values()), "B"),
        "solver.cg_iterations": (report.iterations, "count"),
        "solver.cg_converged": (float(report.converged), "bool"),
        "solver.relative_residual": (report.relative_residual, "ratio"),
        "solver.cg_overhead_s": (self_t[cg.id], "s"),
        "solver.l2_error_s": (_dur(l2), "s"),
        "solver.l2_error_self_s": (self_t[l2.id], "s"),
        "setup.traced_s": (_dur(build), "s"),
        "path.geometry_s": (path_geometry, "s"),
        "path.cutquad_s": (path_cutquad, "s"),
        "path.operators_s": (path_operators, "s"),
        "path.solver_s": (path_solver, "s"),
        "path.uncovered_s": (self_t[tts.id], "s"),
        "path.time_to_solution_s": (_dur(tts), "s"),
    }
    for path, (flops, nbytes) in costs.items():
        m[f"operators.vmult.{path}.flops_computed"] = (flops, "flop")
        m[f"operators.vmult.{path}.bytes_computed"] = (nbytes, "B")
    return m
