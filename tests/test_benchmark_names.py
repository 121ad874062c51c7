"""The benchmark's per-layer span metrics name tcmf functions that exist,
and the benchmark's smoke run passes.

perfbench's tracer records a span per call of each public function as
``<module>.<function>``.  A per-layer metric whose function was renamed or
moved reads as zero calls rather than failing, so this test reads
BENCHMARK.json and checks every such name against the package.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPAN_SUFFIXES = {"calls", "s", "wall_s", "self_s", "run_share", "bytes"}
# functions deleted while the benchmark still declares their metrics: the
# thread pool's module, the polar retraction, its inverse square root and the
# checked gradient wrapper
EXEMPT = {
    "parallel.thread_map",
    "perpca.generalized_retraction",
    "perpca.perpca_gradient",
    "numerics.inv_sqrt_psd",
}


def span_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in SPAN_SUFFIXES:
            names.add(f"{parts[0]}.{parts[1]}")
    return names


def resolve(name):
    """The tcmf object that a ``<module>.<function>`` span name names, or
    None when the module or the attribute does not exist."""
    module_name, function_name = name.split(".")
    try:
        module = importlib.import_module(f"tcmf.{module_name}")
    except ModuleNotFoundError as err:
        if err.name != f"tcmf.{module_name}":
            raise
        return None
    return getattr(module, function_name, None)


def test_per_layer_metrics_name_functions_of_their_module():
    names = span_names()
    assert "hmf.hmf_solve" in names and "jimf.solve" in names
    for name in sorted(names - EXEMPT):
        fn = resolve(name)
        assert inspect.isfunction(fn), f"{name} is not a function"
        defined = (fn.__module__, fn.__name__)
        assert ".".join(defined) == f"tcmf.{name}", f"{name} is {'.'.join(defined)}"


def test_exempt_names_are_declared_and_name_nothing():
    # an exemption may not hide a live function, nor outlive its metric
    assert EXEMPT <= span_names()
    for name in sorted(EXEMPT):
        assert resolve(name) is None, f"{name} exists again; drop its exemption"


def test_benchmark_smoke_run_passes():
    # every workload, tiny, traced and untraced: a change that breaks what
    # the benchmark binds (a function, its signature, an output) fails here
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
