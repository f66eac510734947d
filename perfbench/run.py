"""Layered benchmark of mfcutfem: time to solution, set-up and vmult cost.

    python3 perfbench/run.py --workload disk2d --seed 0 --seconds 50 --trace 0

One run makes the workload's inputs from the seed and then, in one process,
runs rounds until --seconds have passed (at least MIN_ROUNDS).  A round
is level set -> build_context -> assemble_rhs -> cg_solve -> l2_error (the
time to solution) followed by a batch of individually timed vmults.  The run
checks every output (checks.py) and prints every metric with its unit; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same work twice,
untraced and then with spans recorded around the calls into each module, and
reports the per-layer metrics (layers.py) and the tracing overhead.  The run
record and any spans are also written to .perfbench/ in the checkout.  The
exit code is 0 only when every check passes."""

from __future__ import annotations

import os

# Pinned before NumPy loads.  With one BLAS thread every reduction runs in a
# fixed order on any machine, so l2_error and iteration counts repeat bitwise
# and the committed references (keyed by thread count) apply.  Only the
# command pins them: importing this module leaves the environment alone.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    os.environ.update(dict.fromkeys(BLAS_ENV, str(BLAS_THREADS)))

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import fastspeed  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402

BOX = 1.26          # half width of the background box, as in the CLI drivers
MIN_ROUNDS = 3      # rounds per run at least
VMULT_BATCH = 100   # timed vmult applications per round
RESULTS_DIR = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    cells: int
    degree: int
    max_quad_depth: int
    balls: int            # 0: one unit ball; n: union of n balls


# Each workload puts a different module on the critical path: disk2d the CG
# iterations and the interior kernel, multiball3d the per-point cut-cell path
# and cut quadrature's subdivision and fallbacks at kinks.  The geometry does
# not move with the seed, which draws only the vectors of the vmult timing
# and the symmetry probe: a sub-cell shift drawn from the seed changed
# disk2d's CG iterations from 923 to 1002 (IQR 5% of the median over ten
# seeds) and, on the coarse 3D meshes, DoFs by 20%, CG iterations by 18% and
# fallbacks from 80 to 134, all of which would count as run-to-run spread.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("disk2d", 2, 48, 2, 8, 0),
        Workload("multiball3d", 3, 6, 1, 2, 3),
    )
}

_BALL_CONFIG_SEED = 0  # the ball union is fixed; a shift can only translate it


def _shifted(fn, shift):
    return lambda x: fn(np.asarray(x, dtype=float) - shift)


def ball_union_problem(centers: np.ndarray, radii: np.ndarray):
    """u = prod_i (|x - c_i|^2 - r_i^2), zero on the boundary of the union.

    Returns (u_exact, f) with f = -Laplacian(u).  With g_i = |x - c_i|^2 - r_i^2,
    lap g_i = 2d and grad g_i . grad g_j = 4 (x - c_i).(x - c_j).
    """

    def parts(x):
        diff = np.asarray(x, dtype=float)[..., None, :] - centers  # (..., n, d)
        return diff, np.sum(diff * diff, axis=-1) - radii**2

    def u_exact(x):
        return np.prod(parts(x)[1], axis=-1)

    def f(x):
        diff, g = parts(x)
        n, d = g.shape[-1], diff.shape[-1]
        lap = np.zeros(g.shape[:-1])
        for i in range(n):
            lap += 2 * d * np.prod(np.delete(g, i, axis=-1), axis=-1)
            for j in range(i + 1, n):
                rest = np.prod(np.delete(g, [i, j], axis=-1), axis=-1)
                lap += 8 * np.sum(diff[..., i, :] * diff[..., j, :], axis=-1) * rest
        return -lap

    return u_exact, f


def make_inputs(wl: Workload):
    """(mesh, params, make_levelset, u_exact, f) of the workload.

    The geometry and the exact solution are translated together by a fixed
    amount of up to half a cell per axis, so the surface does not sit on
    mesh lines while the problem stays the same.
    """
    from mfcutfem import geometry, operators, solver

    d = wl.dim
    mesh = geometry.box_mesh([-BOX] * d, [BOX] * d, [wl.cells] * d)
    params = operators.Parameters(degree=wl.degree, max_quad_depth=wl.max_quad_depth)
    rng = np.random.default_rng([0, d, wl.balls])
    shift = rng.uniform(-0.5, 0.5, size=d) * np.asarray(mesh.spacing)
    if wl.balls == 0:
        u0, f0 = solver.radial_cosine_problem(d)
        return (mesh, params, lambda: geometry.SphereLevelSet(shift, 1.0),
                _shifted(u0, shift), _shifted(f0, shift))
    centers, radii = geometry.generate_balls(wl.balls, _BALL_CONFIG_SEED, [-BOX] * d, [BOX] * d, r0=2.0)
    centers = centers + shift
    u_exact, f = ball_union_problem(centers, radii)
    return mesh, params, lambda: geometry.BallUnionLevelSet(centers, radii), u_exact, f


def fields(ctx) -> dict:
    """Non-timing outputs of build_context compared against the reference."""
    return {
        "n_dofs": int(ctx.n_dofs),
        "cut_cells": int(len(ctx.cut_cells)),
        "ghost_faces": int(len(ctx.faces)),
        "fallbacks": int(ctx.fallback_count),
    }


def tail_percentile(n: int) -> float:
    """Highest of a few percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    raise ValueError(f"{n} samples leave no percentile with ten beyond it")


# Fixed from the smallest sample count a run can have, so every run of every
# workload reports the same percentile.
TAIL_PERCENTILE = tail_percentile(MIN_ROUNDS * VMULT_BATCH)


def measure(wl: Workload, seed: int, seconds: float, rec, rounds: int | None = None) -> dict:
    """One pass of the benchmark's work; returns raw timings and outputs.

    A round is level set -> build_context -> assemble_rhs -> cg_solve ->
    l2_error (the time to solution) followed by a batch of timed vmults on
    that round's operator.  Rounds repeat until ``seconds`` have passed and at
    least MIN_ROUNDS ran, or exactly ``rounds`` times when given (the
    traced pass repeats the untraced pass's count).
    """
    from mfcutfem import operators, solver

    mesh, params, make_levelset, u_exact, f = make_inputs(wl)
    rng = np.random.default_rng([seed, 1])
    v = None
    raw: dict = {"rounds": [], "vmult_s": [], "vmult_finite": [], "breakdown": {}}
    marks = fastspeed.Marks()
    t_begin = time.perf_counter()
    while True:
        r: dict = {}
        t_round = time.perf_counter()
        with rec.span("bench.time_to_solution"):
            with rec.span("geometry.levelset"):
                levelset = make_levelset()
            t0 = time.perf_counter()
            ctx = operators.build_context(mesh, levelset, params)
            r["setup_s"] = time.perf_counter() - t0
            b = operators.assemble_rhs(ctx, f)
            # cg_solve takes any operator; this one marks each application
            apply = marks.wrap(lambda x: operators.vmult(ctx, x))
            marks.times.clear()
            t0 = time.perf_counter()
            report = solver.cg_solve(apply, b)
            t1 = time.perf_counter()
            r["solve_s"] = t1 - t0
            r["cg_steps"] = fastspeed.steps(t0, marks.times, t1)
            r["l2_error"] = solver.l2_error(ctx, report.solution, u_exact)
        r["time_to_solution_s"] = time.perf_counter() - t_round
        r.update(fields=fields(ctx), report=report, rhs_finite=bool(np.isfinite(b).all()),
                 solution_finite=bool(np.isfinite(report.solution).all()))
        raw["rounds"].append(r)

        if v is None:
            v = rng.standard_normal(ctx.n_dofs)
        operators.reset_timers(ctx)
        with rec.span("bench.vmults"):
            for _ in range(VMULT_BATCH):
                t0 = time.perf_counter()
                w = operators.vmult(ctx, v)
                raw["vmult_s"].append(time.perf_counter() - t0)
                raw["vmult_finite"].append(bool(np.isfinite(w).all()))
        for name, sec, _ in operators.breakdown_report(ctx):
            raw["breakdown"][name] = raw["breakdown"].get(name, 0.0) + sec

        done = len(raw["rounds"])
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= MIN_ROUNDS and time.perf_counter() - t_begin >= seconds:
            break
    raw["measure_s"] = time.perf_counter() - t_begin
    raw["ctx"] = ctx

    with rec.span("bench.symmetry_probe"):
        x, y = rng.standard_normal((2, ctx.n_dofs))
        ax, ay = operators.vmult(ctx, x), operators.vmult(ctx, y)
        raw["symmetry"] = abs(x @ ay - y @ ax) / (np.linalg.norm(x) * np.linalg.norm(ay))
    return raw


def end_to_end_metrics(raw: dict) -> dict:
    """Per-run statistics over the rounds.

    setup_s is the median over rounds.  solve_s is the CG solve at the host's
    fast speed, from its individually timed steps (fastspeed.py), and
    dofs_per_s is DoFs over one of its operator applications at that speed.
    time_to_solution_s is the mean over rounds of the rest of the round plus
    solve_s.
    """
    rounds = raw["rounds"]
    cg_steps = [r["cg_steps"] for r in rounds]
    solve = fastspeed.fast_solve_time(cg_steps)
    rest = statistics.fmean(r["time_to_solution_s"] - r["solve_s"] for r in rounds)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "solve_s": (solve, "s"),
        "time_to_solution_s": (rest + solve, "s"),
        "dofs_per_s": (raw["ctx"].n_dofs / fastspeed.fast_step_times(cg_steps)[1], "dofs/s"),
        "l2_error": (rounds[0]["l2_error"], "norm"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def vmult_distribution(raw: dict) -> dict:
    """Median and tail of the timed applications, for the run record.

    They describe the host's load as much as the program: the median moves
    with the share of the run the host spent slow (fastspeed.py), so they
    are recorded but not among the metrics BENCHMARK.json bounds.
    """
    vm = np.asarray(raw["vmult_s"])
    batches = vm.reshape(len(raw["rounds"]), VMULT_BATCH)
    return {
        "vmult_ms_p50": 1e3 * float(np.median(batches, axis=1).mean()),
        "vmult_ms_tail": 1e3 * float(np.percentile(vm, TAIL_PERCENTILE)),
        "vmult_tail_percentile": TAIL_PERCENTILE,
        "vmult_samples": len(vm),
    }


def blas_threads() -> str:
    """The BLAS thread count this process runs with, as pinned in the environment."""
    return os.environ.get(BLAS_ENV[0], "unpinned")


def machine_record(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    return {
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "commit": commit,
        "seed": seed,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, reference: dict | None = None):
    """Run one workload; returns (result line dict, run record dict, spans)."""
    if reference is None:
        reference = checks.load_reference()
    raw = measure(wl, seed, seconds, tracing.NullRecorder())
    expected = checks.expected(reference, blas_threads(), wl.name)
    ops = checks.gate(raw, expected)
    spans: list[tracing.Span] = []
    if trace:
        from mfcutfem import cutquad, geometry, operators, solver

        rec = tracing.Recorder()
        with tracing.patched(rec, layers.trace_targets(geometry, cutquad, operators, solver)):
            with rec.span("bench.measure"):
                traced = measure(wl, seed, seconds, rec, rounds=len(raw["rounds"]))
        spans = rec.spans
        metrics = layers.per_layer_metrics(spans, traced)
        metrics["trace.overhead"] = (traced["measure_s"] / raw["measure_s"], "ratio")
        ops += checks.gate(traced, expected)
        raw = traced
    else:
        metrics = end_to_end_metrics(raw)

    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    record = {
        "workload": wl.name,
        "machine": machine_record(seed),
        "seconds": seconds,
        "trace": int(trace),
        **vmult_distribution(raw),
        "rounds": len(raw["rounds"]),
        "cg_iterations": raw["rounds"][0]["report"].iterations,
        "l2_error_repr": repr(raw["rounds"][0]["l2_error"]),
        "l2_error_bitwise": expected is not None and all(
            r["l2_error"] == expected["l2_error"] for r in raw["rounds"]),
        "fields": raw["rounds"][0]["fields"],
        "round_s": {key: [r[key] for r in raw["rounds"]]
                    for key in ("setup_s", "solve_s", "time_to_solution_s")},
        "cg_step_ms": dict(zip(("update", "application"), (
            1e3 * t for t in fastspeed.fast_step_times([r["cg_steps"] for r in raw["rounds"]])))),
        "failure_rate": failed / attempted,
        "failed_checks": [f"{op.name}: {c}" for op in ops for c in op.failures],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record, spans


def _write_outputs(result, record, spans) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    m = record["machine"]
    path = RESULTS_DIR / f"{record['workload']}-seed{m['seed']}-trace{record['trace']}.json"
    payload = {"record": record, "result": result,
               "spans": [vars(s) for s in spans]}
    path.write_text(json.dumps(payload, indent=1) + "\n")


def use_sources() -> str | None:
    """Import mfcutfem from this checkout's src/; returns a problem or None."""
    if not (SRC / "mfcutfem" / "__init__.py").is_file():
        return f"no mfcutfem sources under {SRC}"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mfcutfem

    if Path(mfcutfem.__file__).resolve().parent != SRC / "mfcutfem":
        return f"imported mfcutfem from {mfcutfem.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = use_sources()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    result, record, spans = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    _write_outputs(result, record, spans)
    for line in record["failed_checks"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(record, indent=1))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name in ("vmult_ms_p50", "vmult_ms_tail"):
        print(f"{name:40s} {record[name]:.6g} ms")
    print(f"{'failure_rate':40s} {record['failure_rate']:.6g} ratio")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
