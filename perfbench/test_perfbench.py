"""Tests of the benchmark itself, on smoke-sized workloads.

Run from the repository root:  python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import fastspeed
import layers
import make_reference
import run
import tracing

assert run.use_sources() is None

SMOKE = {
    "disk": run.Workload("smoke-disk", 2, 12, 2, 8, 0),
    "balls": run.Workload("smoke-balls", 2, 12, 1, 4, 3),
}
SEED = 3


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def references():
    """Reference entries made the way make_reference.py makes them."""
    ref: dict = {"blas_threads": {run.blas_threads(): {}}}
    for wl in SMOKE.values():
        ref["blas_threads"][run.blas_threads()][wl.name] = make_reference.reference_entry(wl)
    return ref


@pytest.fixture(scope="module")
def untraced(references):
    return {k: run.run(wl, SEED, 0.0, False, references) for k, wl in SMOKE.items()}


@pytest.fixture(scope="module")
def traced(references):
    return {k: run.run(wl, SEED, 0.0, True, references) for k, wl in SMOKE.items()}


@pytest.mark.parametrize("kind", sorted(SMOKE))
def test_end_to_end_metrics_all_named_with_units(untraced, kind):
    result, record, spans = untraced[kind]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())
    assert spans == []
    assert record["l2_error_bitwise"]
    json.dumps(result)


@pytest.mark.parametrize("kind", sorted(SMOKE))
def test_per_layer_metrics_all_named_with_units(traced, kind):
    result, record, spans = traced[kind]
    assert result["correct"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("per_layer")
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("kind", sorted(SMOKE))
def test_spans_nest_and_self_times_are_nonnegative(traced, kind):
    result, _, spans = traced[kind]
    assert tracing.nesting_errors(spans) == []
    assert min(tracing.self_times(spans).values()) >= 0.0
    names = {s.name for s in spans}
    assert {name for _, _, name in layers.trace_targets(*[None] * 4)} <= names

    m = {k: v["value"] for k, v in result["metrics"].items()}
    setup_parts = (m["geometry.classify_s"] + m["geometry.dofmap_s"] + m["geometry.ghost_faces_s"]
                   + m["cutquad.build_s"] + m["operators.setup_self_s"])
    assert setup_parts == pytest.approx(m["setup.traced_s"], rel=1e-9)
    path_parts = sum(m[f"path.{layer}_s"] for layer in ("geometry", "cutquad", "operators", "solver", "uncovered"))
    assert path_parts == pytest.approx(m["path.time_to_solution_s"], rel=1e-9)


def test_traced_run_restores_module_attributes(traced):
    from mfcutfem import cutquad, geometry, operators, solver

    for module, attr, _ in layers.trace_targets(geometry, cutquad, operators, solver):
        assert not hasattr(getattr(module, attr), "__wrapped__"), f"{module.__name__}.{attr}"


def test_self_time_subtracts_child_intervals():
    spans = [
        tracing.Span(0, "root", 0.0, 10.0, None),
        tracing.Span(1, "a", 1.0, 4.0, 0),
        tracing.Span(2, "b", 5.0, 6.0, 0),
        tracing.Span(3, "c", 2.0, 3.0, 1),
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert tracing.nesting_errors(spans) == []
    spans.append(tracing.Span(4, "d", 3.5, 5.5, 0))
    assert len(tracing.nesting_errors(spans)) == 2


@pytest.mark.parametrize("key, delta", [("l2_error", 1e-3), ("n_dofs", 1), ("fallbacks", 1)])
def test_wrong_reference_fails_the_gate(references, key, delta):
    wrong = copy.deepcopy(references)
    wl = SMOKE["balls"]
    wrong["blas_threads"][run.blas_threads()][wl.name][key] += delta
    result, record, _ = run.run(wl, SEED, 0.0, False, wrong)
    assert not result["correct"] and result["failed"] >= 1
    assert record["failure_rate"] == result["failed"] / result["attempted"]
    assert any(key in line for line in record["failed_checks"])


def test_missing_reference_fails_the_gate():
    result, record, _ = run.run(SMOKE["disk"], SEED, 0.0, False, {"blas_threads": {}})
    assert not result["correct"]
    assert any("no committed reference" in line for line in record["failed_checks"])


def test_gate_flags_unconverged_solve_and_asymmetry():
    report = type("Report", (), {"converged": False, "iterations": 7, "relative_residual": 1.0})()
    raw = {
        "rounds": [{"fields": {}, "rhs_finite": True, "solution_finite": True,
                    "l2_error": float("nan"), "report": report}],
        "vmult_finite": [True, False], "symmetry": 1e-3,
    }
    failed = {op.name for op in checks.gate(raw, {}) if not op.ok}
    assert failed == {"cg_solve[0]", "l2_error[0]", "vmult[1]", "symmetry_probe"}


def test_fast_solve_time_leaves_out_a_two_speed_host():
    rng = np.random.default_rng(0)
    n_apps = 300
    work = np.full(2 * n_apps + 1, 2e-4)                  # set-up, updates, return
    work[1::2] = 3e-3                                      # applications
    rounds = []
    for share_fast in (0.1, 0.2, 0.4, 0.6):                # one round each
        # the host switches speed every 20 steps
        slow = np.repeat(rng.random(work.size // 20 + 1) >= share_fast, 20)[:work.size]
        rounds.append(work * np.where(slow, 1.8, 1.0) * rng.uniform(1.0, 1.02, work.size))
    assert fastspeed.fast_solve_time(rounds) == pytest.approx(work.sum(), rel=0.02)
    assert fastspeed.fast_solve_time([2 * r for r in rounds]) == pytest.approx(2 * work.sum(), rel=0.02)
    assert fastspeed.fast_step_times(rounds)[1] == pytest.approx(3e-3, rel=0.02)
    # a round with one iteration fewer: the median round counts
    shorter = [rounds[0][:-2], rounds[1][:-2], rounds[2]]
    assert fastspeed.fast_solve_time(shorter) == pytest.approx(work[:-2].sum(), rel=0.02)


def test_marks_split_a_solve_into_steps():
    marks = fastspeed.Marks()
    twice = marks.wrap(lambda x: 2 * x)
    assert twice(3) == 6 and twice(4) == 8
    assert len(marks.times) == 4 and marks.times == sorted(marks.times)
    steps = fastspeed.steps(marks.times[0] - 1.0, marks.times, marks.times[-1] + 1.0)
    assert steps.shape == (5,) and steps[0] == pytest.approx(1.0) and steps[-1] == pytest.approx(1.0)


def test_ball_union_problem_is_minus_laplacian():
    rng = np.random.default_rng(0)
    centers, radii = rng.uniform(-1, 1, (3, 3)), np.array([0.5, 0.7, 0.9])
    u, f = run.ball_union_problem(centers, radii)
    x = rng.uniform(-1, 1, (5, 3))
    h = 1e-3
    lap = sum((u(x + h * e) - 2 * u(x) + u(x - h * e)) / h**2 for e in np.eye(3))
    np.testing.assert_allclose(f(x), -lap, rtol=1e-5, atol=1e-4)
    on_sphere = centers[1] + radii[1] * np.array([0.0, 0.0, 1.0])
    assert abs(u(on_sphere)) < 1e-12


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.TAIL_PERCENTILE == 95.0
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(1000) == 99.0
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "disk2d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
