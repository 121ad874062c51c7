"""tcmf benchmark: time ``tcmf run`` end to end on generated data, check its
outputs, and (with ``--trace 1``) split the time by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk_hmf --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload wide_fresh --seed 3 --trace 1
    python3 perfbench/run.py --smoke

One run generates the workload's dataset with ``tcmf synth`` (untimed), then
for ``--seconds`` seconds calls ``tcmf.cli.main(["run", ...])`` in process,
exactly as a user's ``tcmf run`` would, and reports medians over the calls.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the full
report (quartiles, sample counts, final errors, environment).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  ``--smoke`` runs every workload with two
epochs of five inner iterations and checks that every metric named in
BENCHMARK.json is emitted with its unit.

The benchmark is one process and starts no threads; the program's own thread
settings are left at their defaults and recorded.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import HELD_OUT_SEEDS, WORKLOADS  # noqa: E402

WORK_DIR = ROOT / ".perfbench-work"
DEFAULT_SECONDS = 36
THREAD_VARS = ("TCMF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
TIMING_VAR = "TCMF_TRACE_TIMING"


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, failed data set-up)."""


def import_tcmf():
    """Import tcmf from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "tcmf" / "__init__.py").is_file():
        raise BenchmarkError(f"no tcmf package under {src}")
    sys.path.insert(0, str(src))
    import tcmf
    import tcmf.cli

    if Path(tcmf.__file__).resolve().parent != (src / "tcmf").resolve():
        raise BenchmarkError(f"imported tcmf from {tcmf.__file__}, expected {src}")
    return tcmf


# environment record ---------------------------------------------------


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# calling the program --------------------------------------------------


class RunProbe:
    """Rebinds ``tcmf.cli.run_outer`` to timestamp entry into the outer loop
    and to keep the epoch traces it returns (their ``wall_ms`` fields give
    epoch timings while the trace CSV stays free of them)."""

    def __init__(self, cli):
        self.cli = cli
        self.inner = None
        self.entry = None
        self.traces = None

    def __enter__(self):
        self.inner = self.cli.run_outer
        self.cli.run_outer = self._run_outer
        return self

    def __exit__(self, *exc):
        self.cli.run_outer = self.inner
        return False

    def _run_outer(self, *args, **kwargs):
        self.entry = time.perf_counter()
        try:
            result = self.inner(*args, **kwargs)
        except Exception as err:
            self.traces = getattr(err, "epoch_traces", None)
            raise
        self.traces = result[2]
        return result


class Session:
    """One workload's generated dataset and the calls made on it."""

    def __init__(self, tcmf, workload, seed: int, smoke: bool):
        self.tcmf = tcmf
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        # two smoke epochs reach no real target; any epoch without violations does
        self.target = (float("inf"),) * 3 if smoke else workload.target
        self.dir = WORK_DIR / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.config = self.dir / "run.cfg"
        self.data = self.dir / "data"
        self.first_csv = None

    def prepare(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.config.write_text(self.workload.config_text(self.seed, self.smoke))
        t0 = time.perf_counter()
        rc = self._main(["synth", "--config", str(self.config), "--out", str(self.data), "--seed", str(self.seed)])
        if rc != 0:
            raise BenchmarkError(f"tcmf synth exited with {rc}")
        return time.perf_counter() - t0

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _main(self, argv):
        # keep the program's messages off stdout, whose last line is the result
        with contextlib.redirect_stdout(sys.stderr):
            return self.tcmf.cli.main(argv)

    def _run_argv(self, out):
        return ["run", "--config", str(self.config), "--data", str(self.data), "--out", str(out)]

    def call(self, index: int, tracer=None) -> dict:
        """One full ``tcmf run`` call, timed, then checked."""
        out = self.dir / f"trace-{index}.csv"
        # the tracer goes in first, so the probe wraps the traced run_outer
        error = None
        with tracer or contextlib.nullcontext(), RunProbe(self.tcmf.cli) as probe:
            t0 = time.perf_counter()
            try:
                rc = self._main(self._run_argv(out))
            except Exception as err:  # uncaught, it would end a `tcmf run` process with exit code 1
                rc, error = 1, repr(err)
            t1 = time.perf_counter()
        call = {
            "rc": rc,
            "error": error,
            "run_s": t1 - t0,
            "setup_s": (probe.entry - t0) if probe.entry is not None else None,
            "traces": probe.traces or [],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        call["problems"] = self._check(call, out)
        return call

    def _check(self, call, out) -> list:
        problems = []
        if call["rc"] != 0:
            problems.append(f"tcmf run exited with {call['rc']}" + (f": {call['error']}" if call["error"] else ""))
        csv = out.read_bytes() if out.exists() else b""
        if self.first_csv is None:
            self.first_csv = csv
        elif csv != self.first_csv:
            problems.append("trace CSV differs from the first repeat of this seed")
        traces = call["traces"]
        if call["rc"] != 0 or not traces:
            return problems
        if target_epoch(traces, self.target) is None:
            problems.append(f"accuracy target {self.target} never reached")
        expected = self.workload.baselines.get(self.seed)
        if expected is not None and not self.smoke:
            last = traces[-1]
            got = (round(last.log_g, 2), round(last.log_l, 2), round(last.log_s, 2))
            if got != expected or last.support_violations != 0:
                problems.append(
                    f"seed {self.seed} final errors {got} with {last.support_violations} violations, "
                    f"baseline {expected} with 0"
                )
        return problems


def target_epoch(traces, target):
    """Index of the first epoch at or below every target error with zero
    support violations, or None."""
    for k, t in enumerate(traces):
        errors = (t.log_g, t.log_l, t.log_s)
        if t.support_violations == 0 and all(e <= bound for e, bound in zip(errors, target)):
            return k
    return None


# statistics -----------------------------------------------------------


def describe(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def accuracy(calls, target) -> dict:
    """Deterministic outcome of the run: final errors, worst support
    violations and the epoch the target was met, from the first call."""
    traces = calls[0]["traces"]
    if not traces:
        return {}
    last = traces[-1]
    k = target_epoch(traces, target)
    return {
        "target_epoch": None if k is None else k + 1,
        "final_log_g": last.log_g,
        "final_log_l": last.log_l,
        "final_log_s": last.log_s,
        "support_violations_max": max(t.support_violations for t in traces),
        "epochs": len(traces),
    }


def time_to_target(call, target):
    k = target_epoch(call["traces"], target)
    if k is None or call["setup_s"] is None:
        return None
    return call["setup_s"] + sum(t.wall_ms for t in call["traces"][: k + 1]) / 1e3


def _deadline_reached(deadline, durations, minimum):
    """True once `minimum` calls are done and another, as long as the longest
    so far, would end after the deadline."""
    return len(durations) >= minimum and time.perf_counter() + max(durations) > deadline


def measure_untraced(session, seconds) -> tuple:
    deadline = time.perf_counter() + seconds
    calls = []
    while not _deadline_reached(deadline, [c["run_s"] for c in calls], 2):
        calls.append(session.call(len(calls)))
    # every call sets up once; its set-up ends on entry into the outer loop
    setups = [c["setup_s"] for c in calls if c["setup_s"] is not None]
    if not setups:
        raise BenchmarkError("no tcmf run call reached the outer loop: " + "; ".join(calls[0]["problems"]))
    target = session.target
    ttt = [v for v in (time_to_target(c, target) for c in calls) if v is not None]
    report = {
        "run_s": describe([c["run_s"] for c in calls]),
        "run_s_each": [c["run_s"] for c in calls],
        "setup_s": describe(setups),
        "setup_s_each": setups,
        "time_to_target_s": describe(ttt) if ttt else None,
        "epoch_ms": describe([t.wall_ms for c in calls for t in c["traces"]]),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
        **accuracy(calls, target),
    }
    metrics = {
        "run_s": (report["run_s"]["median"], "s"),
        "setup_s": (report["setup_s"]["median"], "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    return calls, report, metrics


# Per-layer metrics: (metric, unit, source).  A source is a span
# statistic "<span>:<field>", a span's busy time as a share of
# alternating.run.s "%<span>", a counter "#<name>", or a derived value
# "=<name>".  Busy seconds are summed over threads, wall seconds are the time
# covered.  Functions that one workload never calls (a backend's own
# functions) or that are due to be removed (the thread pool) get their time as
# a share of alternating.run.s, so an absent function reads as a zero share,
# never as a zero time.
PER_LAYER = (
    ("io.read_matrix.calls", "count", "io.read_matrix:calls"),
    ("io.read_matrix.s", "s", "io.read_matrix:s"),
    ("io.read_matrix.bytes", "B", "#io.read_matrix.bytes"),
    ("io.write_matrix.calls", "count", "io.write_matrix:calls"),
    ("io.write_matrix.s", "s", "io.write_matrix:s"),
    ("io.write_matrix.bytes", "B", "#io.write_matrix.bytes"),
    ("model.identifiability_report.s", "s", "model.identifiability_report:s"),
    ("thresholding.hard_threshold.calls", "count", "thresholding.hard_threshold:calls"),
    ("thresholding.hard_threshold.s", "s", "thresholding.hard_threshold:s"),
    ("thresholding.hard_threshold.wall_s", "s", "thresholding.hard_threshold:wall_s"),
    ("thresholding.kept_on_support_frac", "ratio", "=kept_on_support_frac"),
    ("alternating.run.s", "s", "alternating.run:s"),
    ("alternating.run.self_s", "s", "alternating.run:self_s"),
    ("jimf.solve.calls", "count", "jimf.solve:calls"),
    ("jimf.solve.s", "s", "jimf.solve:s"),
    ("jimf.solve.run_share", "ratio", "%jimf.solve"),
    ("jimf.spectral_init.calls", "count", "jimf.spectral_init:calls"),
    ("jimf.spectral_init.s", "s", "jimf.spectral_init:s"),
    ("jimf.inner_iters", "count", "=jimf.inner_iters"),
    ("jimf.iter_ms", "ms", "=jimf.iter_ms"),
    ("hmf.inner_iters", "count", "#hmf.inner_iters"),
    ("hmf.hmf_solve.run_share", "ratio", "%hmf.hmf_solve"),
    ("perpca.inner_iters", "count", "#perpca.inner_iters"),
    ("perpca.perpca_solve.run_share", "ratio", "%perpca.perpca_solve"),
    ("perpca.generalized_retraction.calls", "count", "perpca.generalized_retraction:calls"),
    ("perpca.generalized_retraction.run_share", "ratio", "%perpca.generalized_retraction"),
    ("perpca.perpca_gradient.calls", "count", "perpca.perpca_gradient:calls"),
    ("numerics.truncated_svd.calls", "count", "numerics.truncated_svd:calls"),
    ("numerics.truncated_svd.s", "s", "numerics.truncated_svd:s"),
    ("numerics.inv_sqrt_psd.calls", "count", "numerics.inv_sqrt_psd:calls"),
    ("numerics.inv_sqrt_psd.run_share", "ratio", "%numerics.inv_sqrt_psd"),
    ("numerics.as_matrix.calls", "count", "#numerics.as_matrix.calls"),
    ("metrics.recovery_errors.calls", "count", "metrics.recovery_errors:calls"),
    ("metrics.recovery_errors.s", "s", "metrics.recovery_errors:s"),
    ("parallel.thread_map.calls", "count", "parallel.thread_map:calls"),
    ("parallel.thread_map.run_share", "ratio", "%parallel.thread_map"),
)


def layer_values(tracer, call) -> tuple:
    """Per-layer values of one traced call, the names it lacked, and the
    full per-span table."""
    summary = tracer.summary()
    counters = tracer.counters
    kept = counters.get("thresholding.kept", 0)
    violations = sum(t.support_violations for t in call["traces"])
    run_s = _span(summary, "alternating.run:s")
    iters = counters.get("hmf.inner_iters", 0) + counters.get("perpca.inner_iters", 0)
    backend_s = _span(summary, "hmf.hmf_solve:s") + _span(summary, "perpca.perpca_solve:s")
    derived = {
        "kept_on_support_frac": (kept - violations) / kept if kept else 1.0,
        "jimf.inner_iters": iters,
        "jimf.iter_ms": backend_s / iters * 1e3 if iters else 0.0,
    }
    values, absent = {}, []
    for name, _, source in PER_LAYER:
        if source.startswith("="):
            values[name] = derived[source[1:]]
            continue
        if source.startswith("#"):
            present = source[1:] in counters
            value = counters.get(source[1:], 0)
        elif source.startswith("%"):
            present = source[1:] in summary
            value = _span(summary, source[1:] + ":s") / run_s if run_s else 0.0
        else:
            present = source.split(":")[0] in summary
            value = _span(summary, source)
        if not present:
            absent.append(name)
        values[name] = value
    return values, absent, summary


def _span(summary, source):
    span, stat = source.split(":")
    entry = summary.get(span)
    return entry[stat] if entry else 0


def measure_traced(session, seconds, spans_path) -> tuple:
    from tracer import Tracer

    deadline = time.perf_counter() + seconds
    plain, traced, layers = [], [], []
    absent, table = [], {}
    spans_written = 0
    while not _deadline_reached(deadline, [c["run_s"] for c in plain + traced], 2):
        index = len(plain) + len(traced)
        if len(plain) <= len(traced):
            plain.append(session.call(index))
            continue
        tracer = Tracer(session.tcmf)
        call = session.call(index, tracer)
        traced.append(call)
        values, absent, table = layer_values(tracer, call)
        layers.append(values)
        if spans_written == 0:
            spans_written = tracer.write_spans(spans_path)
    calls = plain + traced
    target = session.target
    ttt = [v for v in (time_to_target(c, target) for c in plain) if v is not None]
    acc = accuracy(calls, target)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        metrics[name] = (statistics.median(v[name] for v in layers), unit)
    plain_s = statistics.median(c["run_s"] for c in plain)
    traced_s = statistics.median(c["run_s"] for c in traced)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    if acc:
        metrics["alternating.final_log_g"] = (acc["final_log_g"], "log10")
        metrics["alternating.final_log_l"] = (acc["final_log_l"], "log10")
        metrics["alternating.final_log_s"] = (acc["final_log_s"], "log10")
        metrics["alternating.support_violations_max"] = (acc["support_violations_max"], "count")
    if ttt:
        metrics["alternating.time_to_target_s"] = (statistics.median(ttt), "s")
    report = {
        "run_s_untraced": describe([c["run_s"] for c in plain]),
        "run_s_traced": describe([c["run_s"] for c in traced]),
        "trace_overhead_s": traced_s - plain_s,
        "absent": absent,
        "layers": table,
        "spans": spans_written,
        "spans_file": str(spans_path.relative_to(ROOT)),
        **acc,
    }
    return calls, report, metrics


# driver ---------------------------------------------------------------


def run_workload(tcmf, name, seed, seconds, trace, smoke=False) -> dict:
    workload = WORKLOADS[name]
    session = Session(tcmf, workload, seed, smoke)
    try:
        synth_s = session.prepare()
        rss_after_synth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            spans_path = WORK_DIR / "spans" / f"{name}.csv"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            calls, report, metrics = measure_traced(session, seconds, spans_path)
        else:
            calls, report, metrics = measure_untraced(session, seconds)
    finally:
        session.cleanup()
    problems = [p for i, c in enumerate(calls) for p in (f"call {i}: {q}" for q in c["problems"])]
    failed = sum(1 for c in calls if c["problems"])
    if not trace:
        metrics["ok_frac"] = (1.0 - failed / len(calls), "ratio")
    report.update(
        fail_frac=failed / len(calls),
        workload=name,
        seed=seed,
        held_out_seed=seed in HELD_OUT_SEEDS,
        trace=int(trace),
        smoke=smoke,
        synth_s=synth_s,
        peak_rss_mb_after_synth=rss_after_synth,
        target=session.target,
        problems=problems,
        environment=environment(seed),
    )
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": len(calls),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def smoke(tcmf) -> int:
    """Run every workload tiny, traced and untraced; check every metric
    named in BENCHMARK.json is emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = []
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = run_workload(tcmf, name, 0, 1, trace, smoke=True)
            got = out["result"]["metrics"]
            for metric in spec[kind]:
                entry = got.get(metric["name"])
                if entry is None or entry["unit"] != metric["unit"]:
                    missing.append(f"{name} trace={trace}: {metric['name']} [{metric['unit']}] got {entry}")
            status = "ok" if out["result"]["correct"] else "FAILED " + "; ".join(out["report"]["problems"])
            print(f"smoke {name} trace={trace}: {len(got)} metrics, {status}")
            if not out["result"]["correct"]:
                missing.append(f"{name} trace={trace}: run failed")
    for line in missing:
        print("smoke: " + line)
    print("smoke: " + ("ok" if not missing else f"{len(missing)} problems"))
    return 0 if not missing else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description="tcmf benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny runs of every workload; checks metric names and units")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # trace CSVs must stay byte-identical across repeats
    os.environ.pop(TIMING_VAR, None)
    try:
        tcmf = import_tcmf()
        if args.smoke:
            return smoke(tcmf)
        out = run_workload(tcmf, args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    for problem in out["report"]["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
