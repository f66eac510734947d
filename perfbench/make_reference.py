"""Regenerate reference.json, the committed non-timing outputs per workload.

    python3 perfbench/make_reference.py [--workload NAME ...]

For each workload (whose system the seed does not change) this runs level set ->
build_context -> assemble_rhs -> cg_solve -> l2_error at the benchmark's
pinned BLAS thread count and stores DoFs, cut cells, ghost faces, fallbacks,
CG iterations and l2_error under that thread count.  Entries of other
workloads and thread counts are kept.  Regenerate only when a change means
to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # the same pin as run.py, before NumPy loads
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import argparse
import json
import sys

import checks
import run


def reference_entry(wl: run.Workload) -> dict:
    from mfcutfem import operators, solver

    mesh, params, make_levelset, u_exact, f = run.make_inputs(wl)
    ctx = operators.build_context(mesh, make_levelset(), params)
    report = solver.cg_solve(ctx, operators.assemble_rhs(ctx, f))
    return {**run.fields(ctx), "cg_iterations": report.iterations,
            "l2_error": solver.l2_error(ctx, report.solution, u_exact)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = ap.parse_args(argv)
    problem = run.use_sources()
    if problem:
        print(f"make_reference: {problem}", file=sys.stderr)
        return 2

    ref = checks.load_reference() if checks.REFERENCE.exists() else {}
    if run.blas_threads() != str(run.BLAS_THREADS):
        print(f"make_reference: BLAS threads {run.blas_threads()}, run.py pins {run.BLAS_THREADS}", file=sys.stderr)
        return 2
    by_threads = ref.setdefault("blas_threads", {}).setdefault(run.blas_threads(), {})
    for name in args.workload or sorted(run.WORKLOADS):
        by_threads[name] = reference_entry(run.WORKLOADS[name])
        print(name, by_threads[name], file=sys.stderr, flush=True)
    checks.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
