"""The benchmark's per-layer span metrics name tcmf functions that exist.

perfbench's tracer records a span per call of each public function as
``<module>.<function>``.  A per-layer metric whose function was renamed or
moved reads as zero calls rather than failing, so this test reads
BENCHMARK.json and checks every such name against the package.
"""

import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPAN_SUFFIXES = {"calls", "s", "wall_s", "self_s", "run_share", "bytes"}
# its module was deleted with the thread pool; the metric is still declared
EXEMPT = {"parallel.thread_map"}


def span_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in SPAN_SUFFIXES:
            names.add(f"{parts[0]}.{parts[1]}")
    return names


def test_per_layer_metrics_name_functions_of_their_module():
    names = span_names()
    assert "hmf.hmf_solve" in names and "jimf.solve" in names
    for name in sorted(names - EXEMPT):
        module_name, function_name = name.split(".")
        module = importlib.import_module(f"tcmf.{module_name}")
        fn = getattr(module, function_name, None)
        assert inspect.isfunction(fn), f"{name} is not a function"
        defined = (fn.__module__, fn.__name__)
        assert defined == (module.__name__, function_name), f"{name} is {'.'.join(defined)}"
