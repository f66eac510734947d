"""Driving full experiments: the run functions and their CLI twins.

Everything in demos 01-03 is wired together by four experiment runners
that sweep parameters, time kernels, and write CSV tables plus SVG
plots into an output directory:

    convergence  -- L2 error and CG iterations across mesh refinements
    kernelbench  -- throughput of the per-cell and per-face kernels
    multiballs   -- operator-apply (vmult) throughput on random unions of balls
    breakdown    -- where the operator-apply time goes, by component

Each runner takes a RunConfig and returns a process exit code
(0 = success, 2 = degenerate setup such as an empty domain, 3 = a
strict-mode convergence failure).  The installed `mfcutfem` command
exposes the same four runs; the equivalent CLI line is shown next to
each call below.

Run:  python3 demos/04_experiment_harness.py
"""

import pathlib

from mfcutfem.harness import RunConfig, run_breakdown, run_convergence, run_kernelbench

out = pathlib.Path(__file__).parent / "output"


def peek(path, n=5):
    lines = pathlib.Path(path).read_text().splitlines()
    for line in lines[:n]:
        print(f"    {line}")
    if len(lines) > n:
        print(f"    ... ({len(lines) - n} more rows)")
    print()


# --- convergence ----------------------------------------------------------
# CLI: mfcutfem convergence --degrees 1,2 --refinements 3 --dim 2 \
#          --domain disk --problem cosine --out-dir demos/output/convergence
cfg = RunConfig(
    command="convergence",
    degrees=(1, 2),
    refinements=3,          # meshes of 6, 12, 24 cells per axis
    dim=2,
    domain="disk",
    problem="cosine",
    out_dir=str(out / "convergence"),
)
code = run_convergence(cfg)
print(f"convergence run exited with {code}; convergence.csv:")
peek(out / "convergence" / "convergence.csv")

# --- kernel throughput ----------------------------------------------------
# CLI: mfcutfem kernelbench --degrees 1,2 --out-dir demos/output/kernelbench
cfg = RunConfig(
    command="kernelbench",
    degrees=(1, 2),
    out_dir=str(out / "kernelbench"),
)
code = run_kernelbench(cfg)
print(f"kernelbench run exited with {code}; kernelbench.csv")
print("(relative = time per application, normalized per dimension to the")
print(" sum-factorized cell kernel at the lowest degree):")
peek(out / "kernelbench" / "kernelbench.csv", n=13)

# --- operator time breakdown ---------------------------------------------
# CLI: mfcutfem breakdown --degrees 2 --refinements 1 --repeats 10 \
#          --out-dir demos/output/breakdown
cfg = RunConfig(
    command="breakdown",
    degrees=(2,),
    refinements=1,
    repeats=10,
    out_dir=str(out / "breakdown"),
)
code = run_breakdown(cfg)
print(f"breakdown run exited with {code}; breakdown.csv")
print("(percent of vmult wall time per component, plus breakdown.svg):")
peek(out / "breakdown" / "breakdown.csv", n=6)

# --- multiballs -----------------------------------------------------------
# The random-geometry stress test is heavier (it builds one operator
# context per ball count and times vmults on it; nothing is solved);
# invoke it from the shell when wanted:
#
#   mfcutfem multiballs --ball-counts 1,2,4 --refinements 5 --repeats 10 \
#       --seed 3 --out-dir demos/output/multiballs
#
# It writes multiballs.csv (dofs/s per geometry), the sampled ball
# centers/radii as balls_<n>.txt (reusable via --ball-file together
# with a single --ball-counts value), and a
# per-geometry time breakdown as breakdown_balls<n>.csv.

print(f"all artifacts are under {out}/")
