"""End-to-end acceptance gate.

Nine independent checks cover convergence, operator equivalence against dense
assembly, ghost-penalty structure, cut-quadrature geometry, small-cut
robustness, kernel complexity, throughput trends and determinism.  Each test
prints exactly one `criterion N (...): PASS|FAIL` line on the real stdout so
the gate remains readable under pytest's output capture.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from mfcutfem.cutquad import cut_cell_quadrature, dump_quadrature_csv
from mfcutfem.geometry import (
    HalfSpaceLevelSet,
    Label,
    SphereLevelSet,
    box_mesh,
    classify_cells,
)
from mfcutfem.harness import (
    RunConfig,
    run_breakdown,
    run_convergence,
    run_kernelbench,
    run_multiballs,
)
from mfcutfem.operators import (
    Parameters,
    apply_ghost_penalty,
    assemble_rhs,
    build_context,
    ghost_face_apply,
    vmult,
)
from mfcutfem.solver import cg_solve
from mfcutfem.sumfac import TensorField, apply_axis, madd_count, reset_madd_count
from mfcutfem.tensor1d import build_reference_element

from oracles import (
    dense_kron,
    dense_operator_matrix,
    ghost_matrix,
    mass_matrix,
    monomials_up_to,
    probe_matrix,
)

_SEED = 20260815


def _print_line(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)


@contextmanager
def _criterion(num: int, name: str, capsys):
    """Collect (ok, detail) checks, then print the single gate line.

    The line is emitted with capture suspended so it stays visible in the
    terminal no matter how pytest was invoked."""
    checks: list[tuple[bool, str]] = []
    try:
        yield checks
    except Exception as exc:  # a crash must still produce the gate line
        with capsys.disabled():
            _print_line(num, name, False, f"error: {exc}")
        raise
    ok = all(c for c, _ in checks)
    detail = "; ".join(d for _, d in checks if d)
    with capsys.disabled():
        _print_line(num, name, ok, detail)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _disk_context(dim, cells, degree, **kwargs):
    mesh = box_mesh([-1.26] * dim, [1.26] * dim, [cells] * dim)
    return build_context(
        mesh, SphereLevelSet([0.0] * dim, 1.0), Parameters(degree=degree, **kwargs)
    )


def _fitted_rate(hs, errors, last: int):
    hs = np.asarray(hs, dtype=float)[-last:]
    errors = np.asarray(errors, dtype=float)[-last:]
    return np.polyfit(np.log(hs), np.log(errors), 1)[0]


def _ball_measures(dim, cells, q):
    mesh = box_mesh([-1.26] * dim, [1.26] * dim, [cells] * dim)
    phi = SphereLevelSet([0.0] * dim, 1.0)
    classification = classify_cells(mesh, phi, max(q + 1, 3))
    h = mesh.spacing[0]
    volume = surface = 0.0
    for c in range(mesh.n_cells):
        label = classification.labels[c]
        if label == Label.INSIDE:
            volume += h**dim
        elif label == Label.CUT:
            lo, hi = mesh.cell_box(mesh.cell_multi(c))
            rule = cut_cell_quadrature(lo, hi, phi, q)
            volume += rule.interior_weights.sum()
            surface += rule.surface_weights.sum()
    return volume, surface


# ---------------------------------------------------------------------------


def test_criterion_1_convergence(tmp_path, capsys):
    with _criterion(1, "convergence rates", capsys) as checks:
        budgets = {"disk": 180.0, "sphere": 600.0}
        slack = {"disk": 0.7, "sphere": 0.6}
        setups = [
            ("disk", (1, 2, 3), 5),
            ("sphere", (1, 2), 3),
        ]
        for domain, degrees, refinements in setups:
            start = time.perf_counter()
            cfg = RunConfig(
                command="convergence",
                degrees=degrees,
                refinements=refinements,
                domain=domain,
                problem="cosine",
                out_dir=str(tmp_path / domain),
            )
            rc = run_convergence(cfg)
            elapsed = time.perf_counter() - start
            checks.append((rc == 0, ""))
            rows = _read_rows(tmp_path / domain / "convergence.csv")
            rates = []
            for k in degrees:
                k_rows = [r for r in rows if r[0] == str(k)]
                errors = [float(r[5]) for r in k_rows]
                hs = [float(r[2]) for r in k_rows]
                monotone = all(b < a for a, b in zip(errors, errors[1:]))
                rate = _fitted_rate(hs, errors, last=3)
                rates.append(rate)
                checks.append((monotone, ""))
                checks.append((rate >= k + slack[domain], ""))
            checks.append(
                (
                    elapsed < budgets[domain],
                    f"{domain} rates {'/'.join(f'{r:.2f}' for r in rates)} in {elapsed:.0f}s",
                )
            )


def test_criterion_2_ghost_kronecker_equivalence(capsys):
    with _criterion(2, "ghost face Kronecker vs dense", capsys) as checks:
        rng = np.random.default_rng(_SEED)
        worst = 0.0
        for dim in (2, 3):
            for degree in (1, 2, 3):
                ctx = _disk_context(dim, 3, degree)
                axis = ctx.faces[len(ctx.faces) // 2, 0]
                mats = [
                    ghost_matrix(ctx.elem.nodes, ctx.mesh.spacing[b])
                    if b == axis
                    else ctx.mesh.spacing[b] * mass_matrix(ctx.elem.nodes)
                    for b in range(dim)
                ]
                dense = ctx.params.gamma_ghost * dense_kron(mats)
                ext = ctx.dofmap.patch_extents(axis)
                for _ in range(20):
                    u = rng.standard_normal(dense.shape[0])
                    out = ghost_face_apply(ctx, axis, TensorField(ext, u.copy()))
                    expected = dense @ u
                    rel = np.abs(out.data - expected).max() / np.abs(expected).max()
                    worst = max(worst, rel)
        checks.append((worst <= 1e-12, f"max relative deviation {worst:.2e}"))


def test_criterion_3_dense_operator_equivalence(capsys):
    with _criterion(3, "vmult vs dense assembly", capsys) as checks:
        worst_entry = worst_sym = 0.0
        for degree in (1, 2):
            ctx = _disk_context(2, 4, degree)
            probed = probe_matrix(lambda v: vmult(ctx, v), ctx.n_dofs)
            dense = dense_operator_matrix(ctx)
            scale = np.abs(dense).max()
            worst_entry = max(worst_entry, np.abs(probed - dense).max() / scale)
            worst_sym = max(worst_sym, np.abs(probed - probed.T).max() / scale)
        checks.append((worst_entry <= 1e-10, f"entry deviation {worst_entry:.2e}"))
        checks.append((worst_sym <= 1e-10, f"asymmetry {worst_sym:.2e}"))


def test_criterion_4_ghost_penalty_structure(capsys):
    with _criterion(4, "ghost penalty PSD and annihilation", capsys) as checks:
        rng = np.random.default_rng(_SEED)
        min_quad = 0.0
        worst_resid = 0.0
        for degree in (1, 2, 3):
            ctx = _disk_context(2, 4, degree)
            for _ in range(100):
                u = rng.standard_normal(ctx.n_dofs)
                quad = u @ apply_ghost_penalty(ctx, u)
                min_quad = min(min_quad, quad / (u @ u))
            coords = ctx.dofmap.dof_coordinates()
            u_rand = rng.standard_normal(ctx.n_dofs)
            scale = np.linalg.norm(apply_ghost_penalty(ctx, u_rand)) / np.linalg.norm(u_rand)
            for exps in monomials_up_to(degree, 2):
                u = (coords ** np.asarray(exps)).prod(axis=1)
                resid = np.linalg.norm(apply_ghost_penalty(ctx, u))
                resid /= scale * max(np.linalg.norm(u), 1.0)
                worst_resid = max(worst_resid, resid)
        checks.append((min_quad >= -1e-12, f"min quadratic form {min_quad:.2e}"))
        checks.append((worst_resid <= 1e-9, f"worst monomial residual {worst_resid:.2e}"))


def test_criterion_5_cut_quadrature_geometry(capsys):
    with _criterion(5, "cut quadrature geometry", capsys) as checks:
        area, perimeter = _ball_measures(2, 12, 5)
        checks.append((abs(area - math.pi) <= 1e-8, f"disk area err {abs(area - math.pi):.1e}"))
        checks.append(
            (abs(perimeter - 2 * math.pi) <= 1e-8, f"perimeter err {abs(perimeter - 2 * math.pi):.1e}")
        )
        volume, surface = _ball_measures(3, 12, 5)
        checks.append(
            (abs(volume - 4 * math.pi / 3) <= 1e-5, f"sphere volume err {abs(volume - 4 * math.pi / 3):.1e}")
        )
        checks.append(
            (abs(surface - 4 * math.pi) <= 1e-5, f"sphere area err {abs(surface - 4 * math.pi):.1e}")
        )
        orders = []
        for dim, exact_v, exact_s in ((2, math.pi, 2 * math.pi), (3, 4 * math.pi / 3, 4 * math.pi)):
            cells = [6, 12, 24]
            errs_v, errs_s = [], []
            for n in cells:
                volume, surface = _ball_measures(dim, n, 3)
                errs_v.append(abs(volume - exact_v))
                errs_s.append(abs(surface - exact_s))
            hs = [1.0 / n for n in cells]
            orders += [_fitted_rate(hs, errs_v, 3), _fitted_rate(hs, errs_s, 3)]
        checks.append(
            (min(orders) >= 4.0, f"q=3 orders {'/'.join(f'{o:.1f}' for o in orders)}")
        )


def test_criterion_6_small_cut_robustness(capsys):
    with _criterion(6, "small-cut robustness", capsys) as checks:
        deltas = (0.5, 1e-2, 1e-4, 1e-8)

        def sweep(gamma_ghost, max_iter=None):
            results = []
            for delta in deltas:
                mesh = box_mesh([0.0, 0.0], [1.0, 1.0], [7, 7])
                offset = 2.0 / 7.0 + delta / 7.0  # delta in units of the cell width
                phi = HalfSpaceLevelSet([1.0, 0.0], offset)
                ctx = build_context(mesh, phi, Parameters(degree=2, gamma_ghost=gamma_ghost))
                b = assemble_rhs(ctx, lambda x: np.ones(x.shape[:-1]))
                report = cg_solve(ctx, b, max_iter=max_iter)
                results.append((report.iterations, report.converged))
            return results

        stabilized = sweep(0.5)
        counts = [it for it, _ in stabilized]
        spread = max(counts) / min(counts)
        all_converged = all(conv for _, conv in stabilized)
        checks.append((all_converged, ""))
        checks.append((spread <= 2.0, f"stabilized spread {spread:.2f}x"))

        unstabilized = sweep(0.0, max_iter=4 * max(counts))
        bad_counts = [it for it, _ in unstabilized]
        any_failed = any(not conv for _, conv in unstabilized)
        bad_spread = max(bad_counts) / max(min(bad_counts), 1)
        checks.append(
            (
                any_failed or bad_spread > 2.0,
                "unstabilized "
                + (f"{sum(not c for _, c in unstabilized)}/4 diverged" if any_failed else f"spread {bad_spread:.2f}x"),
            )
        )


def test_criterion_7_sum_factorization_complexity(capsys):
    with _criterion(7, "sum factorization multiply-add count", capsys) as checks:
        rng = np.random.default_rng(_SEED)
        exact = True
        for dim in (2, 3):
            for k in (1, 2, 3):
                n = k + 1
                for m_out in (n, 2 * k + 1):
                    extents = tuple(n + a for a in range(dim))  # distinct sizes
                    for axis in range(dim):
                        mat = rng.standard_normal((m_out, extents[axis]))
                        u = TensorField(extents, rng.standard_normal(int(np.prod(extents))))
                        reset_madd_count()
                        apply_axis(mat, u, axis)
                        others = int(np.prod(extents)) // extents[axis]
                        expected = m_out * extents[axis] * others
                        exact = exact and madd_count() == expected
                # square case: one axis pass of the cell kernel costs (k+1)^(d+1)
                u = TensorField((n,) * dim, rng.standard_normal(n**dim))
                reset_madd_count()
                apply_axis(rng.standard_normal((n, n)), u, 0)
                exact = exact and madd_count() == n ** (dim + 1)
        checks.append((exact, "madds = m_out * m_in * prod(other extents) on all shapes"))


def test_criterion_8_throughput_trends(tmp_path, capsys):
    with _criterion(8, "throughput trends", capsys) as checks:
        # (a) point evaluation grows faster with k than sum factorization in 3D
        cfg = RunConfig(command="kernelbench", degrees=(1, 2, 3), out_dir=str(tmp_path / "kb"))
        checks.append((run_kernelbench(cfg) == 0, ""))
        rows = _read_rows(tmp_path / "kb" / "kernelbench.csv")
        micro = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
        ratios = [
            micro[("3", str(k), "point_cell")] / micro[("3", str(k), "sumfac_cell")]
            for k in (1, 2, 3)
        ]
        increasing = ratios[0] < ratios[1] < ratios[2]
        checks.append(
            (increasing, "3D point/sumfac ratios " + "/".join(f"{r:.1f}" for r in ratios))
        )

        # (b) throughput vs cut fraction: negative rank correlation over 5 ball counts
        cfg = RunConfig(
            command="multiballs",
            degrees=(2,),
            ball_counts=(1, 2, 4, 8, 16),
            refinements=5,
            repeats=20,
            out_dir=str(tmp_path / "mb"),
        )
        checks.append((run_multiballs(cfg) == 0, ""))
        rows = _read_rows(tmp_path / "mb" / "multiballs.csv")
        cut_fraction = np.array([float(r[4]) for r in rows])
        throughput = np.array([float(r[5]) for r in rows])
        checks.append(((cut_fraction >= 0).all() and (cut_fraction <= 1).all(), ""))
        rank = lambda v: np.argsort(np.argsort(v)).astype(float)
        spearman = np.corrcoef(rank(cut_fraction), rank(throughput))[0, 1]
        checks.append((spearman < 0.0, f"rank correlation {spearman:.2f}"))

        # (c) breakdown sums to 100 and cut cells dominate at high degree
        cfg = RunConfig(
            command="breakdown",
            degrees=(3,),
            refinements=1,
            repeats=20,
            domain="disk",
            out_dir=str(tmp_path / "bd"),
        )
        checks.append((run_breakdown(cfg) == 0, ""))
        rows = _read_rows(tmp_path / "bd" / "breakdown.csv")
        percents = {r[0]: float(r[2]) for r in rows}
        total = sum(percents.values())
        checks.append((abs(total - 100.0) <= 0.5, f"percent total {total:.2f}"))
        dominant = max(percents, key=percents.get)
        checks.append(
            (dominant == "intersected", f"dominant component {dominant} ({percents[dominant]:.1f}%)")
        )


def test_criterion_9_determinism(tmp_path, capsys):
    with _criterion(9, "determinism", capsys) as checks:
        # convergence driver: full CSV and SVG are bitwise reproducible
        outputs = []
        for tag in ("a", "b"):
            cfg = RunConfig(
                command="convergence",
                degrees=(1, 2),
                refinements=2,
                domain="disk",
                out_dir=str(tmp_path / f"conv_{tag}"),
            )
            assert run_convergence(cfg) == 0
            outputs.append(
                (
                    (tmp_path / f"conv_{tag}" / "convergence.csv").read_bytes(),
                    (tmp_path / f"conv_{tag}" / "convergence.svg").read_bytes(),
                )
            )
        checks.append((outputs[0] == outputs[1], "convergence CSV+SVG bitwise equal"))

        # operator actions: repeated evaluation is bitwise reproducible
        ctx = _disk_context(2, 5, 2)
        rng = np.random.default_rng(_SEED)
        u = rng.standard_normal(ctx.n_dofs)
        same_vmult = np.array_equal(vmult(ctx, u), vmult(ctx, u))
        same_ghost = np.array_equal(apply_ghost_penalty(ctx, u), apply_ghost_penalty(ctx, u))
        b1 = assemble_rhs(ctx, lambda x: np.cos(x[..., 0]) + x[..., 1])
        b2 = assemble_rhs(ctx, lambda x: np.cos(x[..., 0]) + x[..., 1])
        report_1 = cg_solve(ctx, b1)
        report_2 = cg_solve(ctx, b2)
        same_solve = np.array_equal(report_1.solution, report_2.solution)
        checks.append(
            (same_vmult and same_ghost and same_solve, "vmult/ghost/solve bitwise equal")
        )

        # cut quadrature: repeated construction and dump are bitwise reproducible
        phi = SphereLevelSet([0.0, 0.0], 1.0)
        mesh = box_mesh([-1.26] * 2, [1.26] * 2, [6] * 2)
        classification = classify_cells(mesh, phi, 4)
        dumps = []
        for tag in ("a", "b"):
            rules = {}
            for c in np.flatnonzero(classification.labels == Label.CUT):
                lo, hi = mesh.cell_box(mesh.cell_multi(int(c)))
                rules[int(c)] = cut_cell_quadrature(lo, hi, phi, 3)
            path = tmp_path / f"rules_{tag}.csv"
            dump_quadrature_csv(path, rules)
            dumps.append(path.read_bytes())
        checks.append((dumps[0] == dumps[1], "quadrature dump bitwise equal"))

        # throughput driver: non-timing columns are reproducible
        tables = []
        for tag in ("a", "b"):
            cfg = RunConfig(
                command="multiballs",
                degrees=(1,),
                ball_counts=(1, 2),
                refinements=4,
                repeats=2,
                out_dir=str(tmp_path / f"mb_{tag}"),
            )
            assert run_multiballs(cfg) == 0
            rows = _read_rows(tmp_path / f"mb_{tag}" / "multiballs.csv")
            tables.append([r[:5] for r in rows])  # all but dofs_per_second
        checks.append((tables[0] == tables[1], "throughput non-timing columns equal"))
