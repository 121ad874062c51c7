"""Smoke tests: each experiment script runs to completion at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--sources", "3", "--n1", "10", "--n2", "30", "--r1", "2", "--r2", "2", "--epochs", "2"]


@pytest.mark.parametrize(
    "script, args",
    [
        ("backend_agreement.py", ["--iterations", "50"]),
        ("convergence_experiment.py", ["--seeds", "0", *TINY, "--inner-iterations", "20", "--out", "traces"]),
        ("denoising_gap.py", TINY),
    ],
    ids=["backend_agreement", "convergence_experiment", "denoising_gap"],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
