"""Smoke tests: the convergence script runs `tcmf synth`/`tcmf run` per seed."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TINY_CONFIG = """\
n_sources = 3
n1 = 10
n2 = 30
r1 = 2
r2 = 2
noise_prob = 0.01
noise_magnitude = 100.0
seed = 0
lambda1_mode = theoretical
rho = 0.9
epsilon = 1e-3
epochs = 3
backend = perpca
step_size = 0.1
inner_iterations = 20
beta = 1e-5
warm_start = carry_forward
"""


def run_script(cwd, config_text, *args):
    (cwd / "run.cfg").write_text(config_text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "convergence_experiment.py"),
         "--config", "run.cfg", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_convergence_experiment_writes_one_trace_and_line_per_seed(tmp_path):
    proc = run_script(tmp_path, TINY_CONFIG, "--seeds", "0", "1", "--out", "traces")
    assert proc.returncode == 0, proc.stderr
    traces = sorted(p.name for p in (tmp_path / "traces").iterdir())
    assert traces == ["trace_perpca_seed0.csv", "trace_perpca_seed1.csv"]
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["seed 0", "seed 1"]
    for line, name in zip(lines, traces):
        assert "violations=" in line and "slopes g=" in line
        assert line.endswith(str(Path("traces") / name))


def test_convergence_experiment_keeps_the_config_error_exit_code(tmp_path):
    proc = run_script(tmp_path, TINY_CONFIG + "widgets = 7\n", "--seeds", "0", "--out", "traces")
    assert proc.returncode == 64
    assert "configuration error" in proc.stderr
    assert "slopes" not in proc.stdout
    assert not (tmp_path / "traces").exists()
