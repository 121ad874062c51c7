"""Denoising gap experiment.

Runs the full alternating method and a no-thresholding control (one
factorization pass with the threshold pinned above every observed entry, so
the sparse estimate stays empty) on identical data, then prints the recovery
errors side by side.  The gap between the two rows is the value of the
thresholding loop.

    python3 scripts/denoising_gap.py --seed 0
"""

import argparse

import numpy as np

from tcmf import (
    HmfParams,
    LambdaSchedule,
    SynthConfig,
    TcmfConfig,
    assemble_observations,
    generate,
    identifiability_report,
    run,
)
from tcmf.thresholding import initial_lambda


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sources", type=int, default=10)
    ap.add_argument("--n1", type=int, default=15)
    ap.add_argument("--n2", type=int, default=100)
    ap.add_argument("--r1", type=int, default=3)
    ap.add_argument("--r2", type=int, default=3)
    ap.add_argument("--noise-prob", type=float, default=0.01)
    ap.add_argument("--noise-magnitude", type=float, default=100.0)
    ap.add_argument("--epochs", type=int, default=20)
    args = ap.parse_args()

    cfg = SynthConfig(n_sources=args.sources, n1=args.n1, n2=args.n2,
                      r1=args.r1, r2=args.r2, noise_prob=args.noise_prob,
                      noise_magnitude=args.noise_magnitude, seed=args.seed)
    gt = generate(cfg)
    obs = assemble_observations(gt)
    lam1 = initial_lambda(obs, "theoretical", identifiability_report(gt))

    full = TcmfConfig(
        schedule=LambdaSchedule(lambda1=lam1, rho=0.9, epsilon=1e-3),
        epochs=args.epochs,
        params=HmfParams(step_size=5e-3, iterations=300, beta=1e-5),
    )
    _, _, full_traces = run(obs, full, gt)

    # control: threshold above every entry, single pass, small step for
    # stability on the raw spiky data
    huge = 10.0 * max(float(np.max(np.abs(m))) for m in obs.matrices)
    control = TcmfConfig(
        schedule=LambdaSchedule(lambda1=huge, rho=0.9, epsilon=1e-3),
        epochs=1,
        params=HmfParams(step_size=5e-5, iterations=2000, beta=1e-5),
    )
    _, _, control_traces = run(obs, control, gt)

    a, b = full_traces[-1], control_traces[-1]
    print(f"{'':>16} {'log_g':>8} {'log_l':>8} {'log_s':>8}")
    print(f"{'thresholded':>16} {a.log_g:8.2f} {a.log_l:8.2f} {a.log_s:8.2f}")
    print(f"{'no threshold':>16} {b.log_g:8.2f} {b.log_l:8.2f} {b.log_s:8.2f}")
    print(f"{'gap (decades)':>16} {b.log_g - a.log_g:8.2f} {b.log_l - a.log_l:8.2f} "
          f"{b.log_s - a.log_s:8.2f}")


if __name__ == "__main__":
    main()
