"""Cross-backend agreement check.

Solves one noiseless joint+individual factorization with both backends and
prints the worst entrywise reconstruction gap between them together with the
stationarity residuals of each solution.  Both numbers should sit near
machine precision on a well-conditioned instance.

    python3 scripts/backend_agreement.py --sources 3
"""

import argparse

import numpy as np

from tcmf import (
    HmfParams,
    JimfRequest,
    PerpcaParams,
    kkt_residuals,
    renormalize,
    solve,
)


def orth(a):
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def build_instance(rng, n, n1, n2, r1, r2, scale):
    """Noiseless instance with all nonzero singular values equal to scale."""
    u_g = orth(rng.standard_normal((n1, r1)))
    mats = []
    for _ in range(n):
        ul = rng.standard_normal((n1, r2))
        ul = orth(ul - u_g @ (u_g.T @ ul))
        ul = orth(ul - u_g @ (u_g.T @ ul))
        v_all = orth(rng.standard_normal((n2, r1 + r2))) * scale
        mats.append(u_g @ v_all[:, :r1].T + ul @ v_all[:, r1:].T)
    return mats


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--sources", type=int, default=3)
    ap.add_argument("--n1", type=int, default=10)
    ap.add_argument("--n2", type=int, default=20)
    ap.add_argument("--r1", type=int, default=2)
    ap.add_argument("--r2", type=int, default=2)
    ap.add_argument("--scale", type=float, default=3.0)
    ap.add_argument("--iterations", type=int, default=2000)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    mats = build_instance(rng, args.sources, args.n1, args.n2,
                          args.r1, args.r2, args.scale)
    req = JimfRequest(matrices=tuple(mats), r1=args.r1, r2=args.r2)
    solutions = {
        "hmf": solve(req, HmfParams(step_size=0.01, iterations=args.iterations, beta=1e-5)),
        "perpca": solve(req, PerpcaParams(step_size=0.1, iterations=args.iterations)),
    }

    gap = max(
        float(np.max(np.abs(solutions["hmf"].reconstruction(i)
                            - solutions["perpca"].reconstruction(i))))
        for i in range(args.sources)
    )
    print(f"reconstruction gap (inf norm): {gap:.3e}")
    for name, est in solutions.items():
        rep = kkt_residuals(renormalize(est), mats)
        print(f"{name:>8}: r_vg={rep.r_vg:.3e} r_vl={rep.r_vl:.3e} "
              f"r_ug={rep.r_ug:.3e} r_ul={rep.r_ul:.3e} r_orth={rep.r_orth:.3e}")


if __name__ == "__main__":
    main()
