"""Steadiness mode: repeat benchmark runs and summarise each metric.

    python3 perfbench/steady.py --seeds 3-12 --out steady.json
    python3 perfbench/steady.py --workloads desk_perpca --seeds 3-7 --trace 1
    python3 perfbench/steady.py --compare before.json after.json

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, and
prints for every metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and spread, the quartile distance as
a share of the median's magnitude.  For end-to-end metrics it also prints the
bound from BENCHMARK.json and flags a spread above a third of it.  ``--out``
keeps every run's result; ``--compare`` reads two such files (say, a parent
commit and a change, run with the same seeds) and prints by how much each
median got worse, as a share of the first median, against the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, describe


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    if len(lines) >= 2 and lines[-2].startswith('{"report"'):
        result["report"] = json.loads(lines[-2])["report"]
    return result


def summarise(values) -> dict:
    s = describe(values)
    width = s["q3"] - s["q1"]
    s["spread"] = width / abs(s["median"]) if s["median"] else (float("inf") if width else 0.0)
    return s


def table(results: dict, spec: dict, trace: int):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    worst = {}
    for workload, runs in results.items():
        ok = [r for r in runs if r.get("correct")]
        print(f"\n{workload}: {len(ok)}/{len(runs)} runs correct")
        for r in runs:
            if not r.get("correct"):
                print(f"  failed run: {r.get('error', r)}")
        if len(ok) < 2:
            continue
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in names:
            vals = [r["metrics"][name]["value"] for r in ok if name in r["metrics"]]
            if len(vals) < 2:
                print(f"  {name:40s} missing")
                continue
            s = summarise(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst[name] = max(worst.get(name, 0.0), s["spread"])
                flag = "  OVER BOUND" if s["spread"] > bound else "  over 1/3" if s["spread"] > bound / 3 else ""
            b = f"{bound:6.2f}" if bound is not None else "      "
            print(
                f"  {name:40s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f} {b}{flag}"
            )
    if worst:
        print("\nworst spread / bound: " + ", ".join(f"{k} {v / bounds[k]:.2f}" for k, v in worst.items()))


def compare(before_path, after_path, spec):
    before = json.loads(Path(before_path).read_text())
    after = json.loads(Path(after_path).read_text())
    print(f"{'workload':14s} {'metric':16s} {'before':>12s} {'after':>12s} {'worse':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        for workload in before["results"]:
            if workload not in after["results"]:
                continue
            vals = []
            for runs in (before["results"][workload], after["results"][workload]):
                vals.append([r["metrics"][name]["value"] for r in runs if r.get("correct") and name in r["metrics"]])
            if not all(vals):
                continue
            m0, m1 = statistics.median(vals[0]), statistics.median(vals[1])
            worse = (m1 - m0) if better == "lower" else (m0 - m1)
            share = worse / abs(m0) if m0 else 0.0
            flag = "  WORSE THAN BOUND" if share > bound else ""
            print(f"{workload:14s} {name:16s} {m0:12.6g} {m1:12.6g} {share:8.4f} {bound:6.2f}{flag}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="repeat benchmark runs and summarise each metric")
    p.add_argument("--workloads", nargs="*", default=None, help="default: every workload in BENCHMARK.json")
    p.add_argument("--seeds", default="3-12", help="e.g. 3-12 or 0,5,7")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write every run's result here as JSON")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two --out files")
    args = p.parse_args(argv)
    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
        return 0
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    results = {}
    for workload in workloads:
        results[workload] = []
        for seed in parse_seeds(args.seeds):
            result = one_run(workload, seed, spec["run_seconds"], args.trace)
            results[workload].append(result)
            status = "ok" if result.get("correct") else "FAILED"
            print(f"{workload} seed {seed}: {status}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": args.seeds, "trace": args.trace, "results": results}))
    table(results, spec, args.trace)
    return 0 if all(r.get("correct") for runs in results.values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
