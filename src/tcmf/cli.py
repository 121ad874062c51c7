"""Command-line front end.

Commands: synth (generate a dataset directory), run (factor a dataset and
write the trace CSV), check (print identifiability diagnostics), metrics
(recompute recovery errors from saved estimates).

Exit codes: 0 success, 1 an I/O error other than a missing input (such as
an output path that names a directory), 2 solver divergence, 64 bad
configuration or command line, 65 corrupt data, 66 missing inputs.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import io
from .alternating import TcmfConfig, run as run_outer
from .errors import (
    ConfigurationError,
    CorruptDataError,
    DivergenceError,
    MissingInputError,
    TcmfError,
)
from .metrics import recovery_errors
from .model import assemble_observations, generate, identifiability_report
from .thresholding import LambdaSchedule, initial_lambda

EXIT_OK = 0
EXIT_IO = 1
EXIT_DIVERGED = 2
EXIT_BAD_CONFIG = 64
EXIT_CORRUPT = 65
EXIT_MISSING = 66


def cli_synth(config_path, out_dir, seed: int | None = None) -> int:
    rc = io.load_run_config(config_path)
    try:
        gt = generate(rc if seed is None else replace(rc, seed=seed))
        obs = assemble_observations(gt)
    except TcmfError:
        raise
    except (MemoryError, ValueError) as err:  # ValueError: a shape numpy cannot hold
        raise ConfigurationError(f"{rc.n_sources} x {rc.n1} x {rc.n2} entries do not fit in memory") from err
    report = identifiability_report(gt)
    io.save_dataset(out_dir, gt, obs, report)
    print(f"wrote {obs.n_sources} sources under {out_dir}")
    return EXIT_OK


def _check_data_matches_config(rc, obs):
    if obs.n_sources != rc.n_sources:
        raise ConfigurationError(
            f"config expects {rc.n_sources} sources, data dir has {obs.n_sources}"
        )
    for i, m in enumerate(obs.matrices, start=1):
        if m.shape != (rc.n1, rc.n2):
            raise ConfigurationError(
                f"M_{i} has shape {m.shape}, config says ({rc.n1}, {rc.n2})"
            )


def cli_run(config_path, data_dir, trace_out) -> int:
    """Factor the dataset under data_dir and write the epoch trace CSV."""
    if os.path.isdir(trace_out):
        raise IsADirectoryError(f"--out names a directory: {trace_out}")
    rc = io.load_run_config(config_path)
    obs = io.load_observations(data_dir, rc.r1, rc.r2)
    _check_data_matches_config(rc, obs)
    gt = _ground_truth(data_dir, obs) if io.has_ground_truth(data_dir) else None
    if rc.lambda1_mode == "theoretical":
        if gt is None:
            raise MissingInputError("theoretical lambda1 needs ground truth files")
        lam1 = initial_lambda(obs, "theoretical", identifiability_report(gt))
    else:
        lam1 = initial_lambda(obs, "data_driven")
    cfg = TcmfConfig(
        schedule=LambdaSchedule(lambda1=lam1, rho=rc.rho, epsilon=rc.epsilon),
        epochs=rc.epochs,
        params=io.backend_params(rc.backend, rc.step_size, rc.inner_iterations, rc.beta),
        warm_start_policy=rc.warm_start,
    )
    try:
        est, s_hat, traces = run_outer(obs, cfg, gt)
    except DivergenceError as err:
        io.write_trace_csv(trace_out, err.epoch_traces)
        epoch = len(err.epoch_traces) + 1
        print(f"diverged in epoch {epoch}: {err}; partial trace written", file=sys.stderr)
        return EXIT_DIVERGED
    io.write_trace_csv(trace_out, traces)
    io.save_estimates(data_dir, est, s_hat)
    print(f"finished {len(traces)} epochs; trace at {trace_out}")
    return EXIT_OK


def _ground_truth(data_dir, obs=None):
    """The ground truth under data_dir, checked to fit obs when given."""
    n = io.count_sources(data_dir) if obs is None else obs.n_sources
    gt = io.load_ground_truth(data_dir, n)
    if obs is not None:
        gt.check_fits([m.shape for m in obs.matrices], "ground truth vs the observations")
    return gt


def cli_check(data_dir) -> int:
    # the ground truth's ranks must be valid targets for the observations
    gt = _ground_truth(data_dir)
    obs = io.load_observations(data_dir, gt.r1, gt.r2)
    gt.check_fits([m.shape for m in obs.matrices], "ground truth vs the observations")
    report = identifiability_report(gt)
    r = gt.r1 + gt.r2
    budget = report.theta**2 / (report.mu**4 * r**2 * gt.n_sources**2) if report.mu > 0 and r > 0 else 0.0
    if report.alpha == 0.0:
        ratio = 0.0
    elif budget == 0.0:
        ratio = float("inf")
    else:
        ratio = report.alpha / budget
    print(io.format_fields(report), end="")
    print(f"alpha_budget_ratio={ratio!r}")
    return EXIT_OK


def cli_metrics(data_dir, out_path=None) -> int:
    gt = _ground_truth(data_dir)
    est, s_hat = io.load_estimates(data_dir, gt.n_sources)
    text = io.format_fields(recovery_errors(est, s_hat, gt))
    if out_path is not None:
        io.atomic_write(out_path, text.encode())
    print(text, end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code reserved for divergence
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tcmf",
        description="Recover shared low-rank, per-source low-rank and sparse components.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("run", help="factor a dataset and write the trace CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="print identifiability diagnostics")
    p.add_argument("--data", required=True)

    p = sub.add_parser("metrics", help="recompute recovery errors from saved estimates")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cli_synth(args.config, args.out, seed=args.seed)
        if args.command == "run":
            return cli_run(args.config, args.data, args.out)
        if args.command == "check":
            return cli_check(args.data)
        return cli_metrics(args.data, out_path=args.out)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except CorruptDataError as err:
        print(f"corrupt data: {err}", file=sys.stderr)
        return EXIT_CORRUPT
    except FileNotFoundError as err:
        print(f"missing input: {err}", file=sys.stderr)
        return EXIT_MISSING
    except TcmfError as err:
        print(f"invalid data: {err}", file=sys.stderr)
        return EXIT_CORRUPT
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO


def _entry():
    sys.exit(main())


if __name__ == "__main__":
    _entry()
