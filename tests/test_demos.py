"""The demos run to completion.  Each runs from a copy in a temporary
directory, so that what it writes next to itself lands there."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_implicit_geometry_quadrature.py",
    "02_ghost_penalty_kronecker.py",
    "03_poisson_convergence.py",
    "04_experiment_harness.py",
])
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
