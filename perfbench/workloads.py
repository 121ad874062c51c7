"""The benchmark's workloads: one synthetic dataset shape plus one solver
configuration each, all driven through ``tcmf run``.

All three share the noise model and threshold schedule below.  The dataset is
generated by ``tcmf synth`` from the benchmark's ``--seed``; the solver only
ever sees the generated data directory.

Seeds 1 and 2 are held out: tune nothing on them, and use them to confirm a
claim made on other seeds.
"""

from dataclasses import dataclass, field

HELD_OUT_SEEDS = (1, 2)

COMMON = {
    "r1": 3,
    "r2": 3,
    "noise_prob": 0.01,
    "noise_magnitude": 100.0,
    "lambda1_mode": "theoretical",
    "rho": 0.9,
    "epsilon": 1e-3,
    "beta": 1e-5,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: dict
    # (log_g, log_l, log_s) every epoch at or below which, with zero support
    # violations, counts as reaching the accuracy target; set from seeds 0
    # and 3-29 (desk) or 0 and 3-9 (wide), never from the held-out seeds
    target: tuple
    # seed -> final (log_g, log_l, log_s) of the code the benchmark was
    # defined on, checked to two decimals
    baselines: dict = field(default_factory=dict)

    def config_text(self, seed: int, smoke: bool = False) -> str:
        values = dict(COMMON, seed=seed, **self.settings)
        if smoke:
            values.update(epochs=2, inner_iterations=5)
        return "".join(f"{k} = {v}\n" for k, v in values.items())


DESK = {"n_sources": 10, "n1": 15, "n2": 100}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_hmf",
            why=(
                "desk scale, hmf: the inner loop of tiny per-source matmuls is over 99% of a run, "
                "so per-call overhead, validation and the thread pool dominate"
            ),
            settings=dict(
                DESK,
                backend="hmf",
                step_size=5e-3,
                epochs=20,
                inner_iterations=300,
                warm_start="carry_forward",
            ),
            target=(-1.5, -1.5, -0.5),
            baselines={0: (-4.86, -4.37, -3.19)},
        ),
        Workload(
            name="desk_perpca",
            why=(
                "same desk data, perpca: the cost moves to ~126k Stiefel retractions and tiny eigh calls, "
                "so a change to one backend moves one desk workload only"
            ),
            settings=dict(
                DESK,
                backend="perpca",
                step_size=0.1,
                epochs=20,
                inner_iterations=300,
                warm_start="carry_forward",
            ),
            target=(-1.5, -1.5, -0.5),
            baselines={0: (-5.89, -5.24, -4.06)},
        ),
        Workload(
            name="wide_fresh",
            why=(
                "20 sources of 100x1000, perpca, fresh spectral init each epoch: BLAS-sized arrays, "
                "SVDs, thresholding and 33 MB of .mat I/O dominate; batching must not cost here"
            ),
            settings=dict(
                n_sources=20,
                n1=100,
                n2=1000,
                backend="perpca",
                step_size=0.1,
                epochs=8,
                inner_iterations=50,
                warm_start="fresh_spectral",
            ),
            target=(-3.4, -4.0, -3.0),
            baselines={0: (-3.62, -4.29, -4.33)},
        ),
    )
}
