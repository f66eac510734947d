"""Correctness gate of the benchmark.

Every call into the program that a run makes is one operation; an operation
fails when any check on its output fails:

* build_context (each round): DoFs, cut cells, ghost faces and fallbacks
  equal the committed reference;
* assemble_rhs: finite;
* cg_solve: converged, finite solution and residual;
* l2_error: finite and within L2_RTOL of the committed reference;
* vmult (each timed application): finite output;
* symmetry probe: |x.Ay - y.Ax| <= SYMMETRY_TOL |x| |Ay| on random vectors.

References live in reference.json, keyed by BLAS thread count and workload
(the seed does not change a workload's system); make_reference.py
regenerates them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# At a fixed BLAS thread count l2_error repeats bitwise here; the tolerance
# only absorbs last-bit changes from another CPU's BLAS kernels or a refactor
# that reorders sums (run records say whether the match was bitwise).  Any
# real change to the discretization moves l2_error by far more.
L2_RTOL = 1e-7
SYMMETRY_TOL = 1e-10


@dataclass
class Op:
    name: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def expected(reference: dict, threads: str, workload: str) -> dict | None:
    return reference.get("blas_threads", {}).get(str(threads), {}).get(workload)


def gate(raw: dict, exp: dict | None) -> list[Op]:
    """One Op per program call of the run, with the failures found."""
    missing = "no committed reference for this BLAS thread count and workload"
    ops = []
    for i, r in enumerate(raw["rounds"]):
        op = Op(f"build_context[{i}]", [missing] if exp is None else [])
        for key, value in r["fields"].items():
            if exp is not None and value != exp[key]:
                op.failures.append(f"{key} = {value}, reference {exp[key]}")
        ops.append(op)

        ops.append(Op(f"assemble_rhs[{i}]", [] if r["rhs_finite"] else ["non-finite right-hand side"]))

        rep = r["report"]
        op = Op(f"cg_solve[{i}]")
        if not rep.converged:
            op.failures.append(f"not converged after {rep.iterations} iterations "
                               f"(relative residual {rep.relative_residual:.3e})")
        if not (r["solution_finite"] and math.isfinite(rep.relative_residual)):
            op.failures.append("non-finite solution or residual")
        ops.append(op)

        l2 = r["l2_error"]
        op = Op(f"l2_error[{i}]")
        if not math.isfinite(l2):
            op.failures.append(f"non-finite l2_error {l2}")
        elif exp is None:
            op.failures.append(missing)
        elif abs(l2 - exp["l2_error"]) > L2_RTOL * abs(exp["l2_error"]):
            op.failures.append(f"l2_error {l2!r}, reference {exp['l2_error']!r}")
        ops.append(op)

    ops.extend(Op(f"vmult[{i}]", [] if ok else ["non-finite output"])
               for i, ok in enumerate(raw["vmult_finite"]))

    sym = raw["symmetry"]
    ops.append(Op("symmetry_probe", [] if sym <= SYMMETRY_TOL else
                  [f"|x.Ay - y.Ax| / (|x| |Ay|) = {sym:.3e} > {SYMMETRY_TOL:.0e}"]))
    return ops
