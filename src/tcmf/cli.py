"""Command-line front end.

Commands: synth (generate a dataset directory), run (factor a dataset and
write the trace CSV), check (print identifiability diagnostics), metrics
(recompute recovery errors from saved estimates).

Exit codes: 0 success, 2 solver divergence, 64 bad configuration or command
line, 65 corrupt data, 66 missing inputs.
"""

import argparse
import sys
from pathlib import Path

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
from .thresholding import initial_lambda

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_BAD_CONFIG = 64
EXIT_CORRUPT = 65
EXIT_MISSING = 66


def cli_synth(config_path, out_dir, seed: int | None = None) -> int:
    rc = io.load_run_config(config_path)
    cfg = io.synth_config(rc, seed=seed)
    gt = generate(cfg)
    obs = assemble_observations(gt)
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
    rc = io.load_run_config(config_path)
    obs = io.load_observations(data_dir, rc.r1, rc.r2)
    _check_data_matches_config(rc, obs)
    gt = io.load_ground_truth(data_dir, obs.n_sources) if io.has_ground_truth(data_dir) else None
    if rc.lambda1_mode == "theoretical":
        if gt is None:
            raise MissingInputError("theoretical lambda1 needs ground truth files")
        lam1 = initial_lambda(obs, "theoretical", identifiability_report(gt))
    else:
        lam1 = initial_lambda(obs, "data_driven")
    cfg = TcmfConfig(
        schedule=io.lambda_schedule(rc, lam1),
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


def cli_check(data_dir) -> int:
    n = io.count_sources(data_dir)
    if not io.has_ground_truth(data_dir):
        raise MissingInputError(f"no ground truth factors under {data_dir}")
    gt = io.load_ground_truth(data_dir, n)
    report = identifiability_report(gt)
    r = gt.r1 + gt.r2
    budget = report.theta**2 / (report.mu**4 * r**2 * n**2) if report.mu > 0 and r > 0 else 0.0
    if report.alpha == 0.0:
        ratio = 0.0
    elif budget == 0.0:
        ratio = float("inf")
    else:
        ratio = report.alpha / budget
    print(f"alpha={report.alpha!r}")
    print(f"mu={report.mu!r}")
    print(f"theta={report.theta!r}")
    print(f"sigma_max={report.sigma_max!r}")
    print(f"sigma_min={report.sigma_min!r}")
    print(f"alpha_budget_ratio={ratio!r}")
    return EXIT_OK


def cli_metrics(data_dir, out_path=None) -> int:
    n = io.count_sources(data_dir)
    if not io.has_ground_truth(data_dir):
        raise MissingInputError(f"no ground truth factors under {data_dir}")
    gt = io.load_ground_truth(data_dir, n)
    est, s_hat = io.load_estimates(data_dir, n)
    errs = recovery_errors(est, s_hat, gt)
    lines = [
        f"linf_g={errs.linf_g!r}",
        f"linf_l={errs.linf_l!r}",
        f"linf_s={errs.linf_s!r}",
        f"log_g={errs.log_g!r}",
        f"log_l={errs.log_l!r}",
        f"log_s={errs.log_s!r}",
    ]
    text = "\n".join(lines) + "\n"
    if out_path is not None:
        Path(out_path).write_text(text)
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
    except MissingInputError as err:
        print(f"missing input: {err}", file=sys.stderr)
        return EXIT_MISSING
    except FileNotFoundError as err:
        print(f"missing input: {err}", file=sys.stderr)
        return EXIT_MISSING
    except TcmfError as err:
        print(f"invalid data: {err}", file=sys.stderr)
        return EXIT_CORRUPT
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1


def _entry():
    sys.exit(main())


if __name__ == "__main__":
    _entry()
