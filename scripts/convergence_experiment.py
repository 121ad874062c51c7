"""Desk-scale convergence experiment.

Generates a seeded synthetic instance per seed, runs the alternating loop,
writes one trace CSV per seed, and prints the fitted log10 error slope so the
linear convergence regime is visible at a glance.

    python3 scripts/convergence_experiment.py --seeds 0 1 2 --out traces/
"""

import argparse
import math
from pathlib import Path

from tcmf import (
    LambdaSchedule,
    SynthConfig,
    TcmfConfig,
    assemble_observations,
    generate,
    identifiability_report,
    run,
)
from tcmf.io import backend_params, write_trace_csv
from tcmf.jimf import BACKENDS
from tcmf.thresholding import initial_lambda


def fit_slope(traces, field, lo, hi):
    pts = [(t.epoch, math.log10(getattr(t, field)))
           for t in traces if lo <= t.epoch <= hi and getattr(t, field) > 0.0]
    if len(pts) < 2:
        return float("nan")
    xbar = sum(x for x, _ in pts) / len(pts)
    ybar = sum(y for _, y in pts) / len(pts)
    num = sum((x - xbar) * (y - ybar) for x, y in pts)
    den = sum((x - xbar) ** 2 for x, _ in pts)
    return num / den


def one_seed(args, seed):
    cfg = SynthConfig(n_sources=args.sources, n1=args.n1, n2=args.n2,
                      r1=args.r1, r2=args.r2, noise_prob=args.noise_prob,
                      noise_magnitude=args.noise_magnitude, seed=seed)
    gt = generate(cfg)
    obs = assemble_observations(gt)
    lam1 = initial_lambda(obs, "theoretical", identifiability_report(gt))
    tcfg = TcmfConfig(
        schedule=LambdaSchedule(lambda1=lam1, rho=args.rho, epsilon=1e-3),
        epochs=args.epochs,
        params=backend_params(args.backend, args.step_size, args.inner_iterations, beta=1e-5),
    )
    _, _, traces = run(obs, tcfg, gt)
    return traces


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--out", type=Path, default=Path("traces"))
    ap.add_argument("--backend", choices=BACKENDS, default="hmf")
    ap.add_argument("--sources", type=int, default=10)
    ap.add_argument("--n1", type=int, default=15)
    ap.add_argument("--n2", type=int, default=100)
    ap.add_argument("--r1", type=int, default=3)
    ap.add_argument("--r2", type=int, default=3)
    ap.add_argument("--noise-prob", type=float, default=0.01)
    ap.add_argument("--noise-magnitude", type=float, default=100.0)
    ap.add_argument("--rho", type=float, default=0.9)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--step-size", type=float, default=5e-3)
    ap.add_argument("--inner-iterations", type=int, default=300)
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    window = (2, min(15, args.epochs))
    for seed in args.seeds:
        traces = one_seed(args, seed)
        path = args.out / f"trace_{args.backend}_seed{seed}.csv"
        write_trace_csv(path, traces)
        final = traces[-1]
        slopes = {f: fit_slope(traces, f, *window) for f in ("linf_g", "linf_l", "linf_s")}
        print(f"seed {seed}: violations={max(t.support_violations for t in traces)} "
              f"final log_s={final.log_s:.2f} "
              f"slopes g={slopes['linf_g']:.3f} l={slopes['linf_l']:.3f} "
              f"s={slopes['linf_s']:.3f} -> {path}")


if __name__ == "__main__":
    main()
