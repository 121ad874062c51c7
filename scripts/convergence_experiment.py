"""Convergence experiment on the command-line path.

Per seed, `tcmf synth` then `tcmf run` write one trace CSV under --out; the
script prints its support violations, final log_s and log10 error slopes
over epochs 2 to min(15, epochs).  A failed command's exit code is kept.

    python3 scripts/convergence_experiment.py --config run.cfg --seeds 0 1 2 --out traces/
"""

import argparse
import contextlib
import csv
import math
import sys
import tempfile
from pathlib import Path

from tcmf import cli, io


def fit_slope(rows, field, lo, hi):
    pts = [(int(r["epoch"]), math.log10(float(r[field])))
           for r in rows if lo <= int(r["epoch"]) <= hi and float(r[field]) > 0.0]
    if len(pts) < 2:
        return float("nan")
    xbar = sum(x for x, _ in pts) / len(pts)
    ybar = sum(y for _, y in pts) / len(pts)
    num = sum((x - xbar) * (y - ybar) for x, y in pts)
    den = sum((x - xbar) ** 2 for x, _ in pts)
    return num / den


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--out", type=Path, default=Path("traces"))
    args = ap.parse_args()

    for seed in args.seeds:
        # tcmf's own progress lines go to stderr; stdout holds one line per seed
        with tempfile.TemporaryDirectory() as data, contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["synth", "--config", args.config, "--out", data, "--seed", str(seed)])
            if code == cli.EXIT_OK:
                rc = io.load_run_config(args.config)
                path = args.out / f"trace_{rc.backend}_seed{seed}.csv"
                code = cli.main(["run", "--config", args.config, "--data", data, "--out", str(path)])
        if code != cli.EXIT_OK:
            sys.exit(code)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        slopes = {f: fit_slope(rows, f, 2, min(15, rc.epochs)) for f in ("linf_g", "linf_l", "linf_s")}
        print(f"seed {seed}: violations={max(int(r['support_violations']) for r in rows)} "
              f"final log_s={float(rows[-1]['log_s']):.2f} "
              f"slopes g={slopes['linf_g']:.3f} l={slopes['linf_l']:.3f} "
              f"s={slopes['linf_s']:.3f} -> {path}")


if __name__ == "__main__":
    main()
