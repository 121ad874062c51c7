"""On-disk formats: binary matrices, key=value run configs, trace CSVs and
the data directory layout shared by the command-line tools.

Matrix files carry the magic "TCMFMAT1", row and column counts as unsigned
64-bit little-endian integers, then the payload as row-major little-endian
float64.  Every write goes through a temp file plus rename so readers never
observe a half-written file.
"""

import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alternating import WARM_START_POLICIES
from .errors import ConfigurationError, CorruptDataError, MissingInputError
from .hmf import HmfParams
from .jimf import BACKENDS, FactorEstimate
from .model import GroundTruth, IdentifiabilityReport, ObservationSet, SynthConfig
from .numerics import as_matrix
from .perpca import PerpcaParams
from .thresholding import LAMBDA1_MODES, LambdaSchedule, SparseEstimate

MAGIC = b"TCMFMAT1"
_HEADER = struct.Struct("<8sQQ")

TRACE_HEADER = "epoch,lambda,linf_g,linf_l,linf_s,log_g,log_l,log_s,support_violations,wall_ms"
TIMING_ENV = "TCMF_TRACE_TIMING"

REPORT_FILE = "identifiability.txt"
MANIFEST_FILE = "manifest.txt"
ESTIMATES_DIR = "estimates"


def _atomic_write_bytes(path, payload: bytes):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix(path, m):
    m = as_matrix(m)
    header = _HEADER.pack(MAGIC, m.shape[0], m.shape[1])
    payload = np.ascontiguousarray(m, dtype="<f8").tobytes()
    _atomic_write_bytes(path, header + payload)


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"matrix file missing: {path}")
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        raise CorruptDataError(f"{path}: shorter than the header")
    magic, rows, cols = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptDataError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + rows * cols * 8
    if len(data) != expected:
        raise CorruptDataError(f"{path}: expected {expected} bytes, found {len(data)}")
    flat = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    m = flat.reshape(rows, cols).astype(np.float64, copy=True)
    if m.size and not np.isfinite(m).all():
        raise CorruptDataError(f"{path}: payload contains NaN or Inf")
    return m


@dataclass(frozen=True)
class RunConfig:
    """Flat key=value run description covering synthesis and solving."""

    n_sources: int
    n1: int
    n2: int
    r1: int
    r2: int
    noise_prob: float
    noise_magnitude: float
    seed: int
    lambda1_mode: str
    rho: float
    epsilon: float
    epochs: int
    backend: str
    step_size: float
    inner_iterations: int
    beta: float
    warm_start: str


_INT_KEYS = ("n_sources", "n1", "n2", "r1", "r2", "seed", "epochs", "inner_iterations")
_FLOAT_KEYS = ("noise_prob", "noise_magnitude", "rho", "epsilon", "step_size", "beta")
_CHOICE_KEYS = {
    "lambda1_mode": LAMBDA1_MODES,
    "backend": BACKENDS,
    "warm_start": WARM_START_POLICIES,
}
ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + tuple(_CHOICE_KEYS)


def parse_run_config(text: str) -> RunConfig:
    """Parse key=value lines; blank lines and #-comments are skipped.
    Unknown, repeated, missing or ill-typed keys are configuration errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in ALL_KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: repeated key {key!r}")
        values[key] = val
    missing = [k for k in ALL_KEYS if k not in values]
    if missing:
        raise ConfigurationError(f"missing keys: {', '.join(missing)}")
    parsed = {}
    for key in _INT_KEYS:
        try:
            parsed[key] = int(values[key])
        except ValueError:
            raise ConfigurationError(f"key {key!r}: expected an integer, got {values[key]!r}")
    for key in _FLOAT_KEYS:
        try:
            parsed[key] = float(values[key])
        except ValueError:
            raise ConfigurationError(f"key {key!r}: expected a number, got {values[key]!r}")
        if not np.isfinite(parsed[key]):
            raise ConfigurationError(f"key {key!r}: must be finite")
    for key, choices in _CHOICE_KEYS.items():
        if values[key] not in choices:
            raise ConfigurationError(f"key {key!r}: expected one of {choices}, got {values[key]!r}")
        parsed[key] = values[key]
    return RunConfig(**parsed)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"config file missing: {path}")
    return parse_run_config(path.read_text())


def synth_config(rc: RunConfig, seed: int | None = None) -> SynthConfig:
    return SynthConfig(
        n_sources=rc.n_sources,
        n1=rc.n1,
        n2=rc.n2,
        r1=rc.r1,
        r2=rc.r2,
        noise_prob=rc.noise_prob,
        noise_magnitude=rc.noise_magnitude,
        seed=rc.seed if seed is None else seed,
    )


def backend_params(backend: str, step_size: float, iterations: int, beta: float):
    """The params object that selects backend in jimf.solve; only hmf reads beta."""
    if backend == "hmf":
        return HmfParams(step_size=step_size, iterations=iterations, beta=beta)
    if backend == "perpca":
        return PerpcaParams(step_size=step_size, iterations=iterations)
    raise ConfigurationError(f"backend must be one of {BACKENDS}, got {backend!r}")


def lambda_schedule(rc: RunConfig, lambda1: float) -> LambdaSchedule:
    return LambdaSchedule(lambda1=lambda1, rho=rc.rho, epsilon=rc.epsilon)


# data directory layout -------------------------------------------------


def _obs_path(directory, i: int) -> Path:
    return Path(directory) / f"M_{i}.mat"


# factor files: {prefix}U_G.mat plus {prefix}<stem>_{i}.mat per source i,
# with prefix "" for ground truth and "EST_" for estimates
_SHARED = "U_G.mat"
_SOURCE_STEMS = ("V_G", "U_L", "V_L", "S")
_EST_PREFIX = "EST_"


def _write_factors(directory: Path, prefix: str, factors, s):
    write_matrix(directory / f"{prefix}{_SHARED}", factors.u_g)
    for i, mats in enumerate(zip(factors.v_g, factors.u_l, factors.v_l, s), start=1):
        for stem, m in zip(_SOURCE_STEMS, mats):
            write_matrix(directory / f"{prefix}{stem}_{i}.mat", m)


def _read_factors(directory: Path, prefix: str, n_sources: int):
    """(u_g, v_g, u_l, v_l, s) as written by _write_factors."""
    u_g = read_matrix(directory / f"{prefix}{_SHARED}")
    per_stem = (
        [read_matrix(directory / f"{prefix}{stem}_{i}.mat") for i in range(1, n_sources + 1)]
        for stem in _SOURCE_STEMS
    )
    return (u_g, *per_stem)


def save_dataset(directory, gt: GroundTruth, obs: ObservationSet, report: IdentifiabilityReport):
    """Write observations, ground truth factors and the identifiability
    report: 5N+1 matrix files plus the report text."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, m in enumerate(obs.matrices, start=1):
        write_matrix(_obs_path(directory, i), m)
    _write_factors(directory, "", gt, gt.s)
    lines = [
        f"alpha={report.alpha!r}",
        f"mu={report.mu!r}",
        f"theta={report.theta!r}",
        f"sigma_max={report.sigma_max!r}",
        f"sigma_min={report.sigma_min!r}",
    ]
    _atomic_write_bytes(directory / REPORT_FILE, ("\n".join(lines) + "\n").encode())


def count_sources(directory) -> int:
    """Source count from the manifest when present, else from consecutive
    M_i.mat files starting at 1."""
    directory = Path(directory)
    manifest = directory / MANIFEST_FILE
    if manifest.exists():
        for raw in manifest.read_text().splitlines():
            line = raw.strip()
            if line.startswith("n_sources"):
                _, _, val = line.partition("=")
                try:
                    n = int(val.strip())
                except ValueError:
                    raise CorruptDataError(f"{manifest}: bad n_sources value {val!r}")
                if n < 1:
                    raise CorruptDataError(f"{manifest}: n_sources must be positive")
                return n
        raise CorruptDataError(f"{manifest}: no n_sources line")
    n = 0
    while _obs_path(directory, n + 1).exists():
        n += 1
    if n == 0:
        raise MissingInputError(f"no M_1.mat under {directory}")
    return n


def load_observations(directory, r1: int, r2: int) -> ObservationSet:
    n = count_sources(directory)
    mats = [read_matrix(_obs_path(directory, i + 1)) for i in range(n)]
    return ObservationSet(matrices=mats, r1=r1, r2=r2)


def has_ground_truth(directory) -> bool:
    return (Path(directory) / _SHARED).exists()


def load_ground_truth(directory, n_sources: int) -> GroundTruth:
    u_g, v_g, u_l, v_l, s = _read_factors(Path(directory), "", n_sources)
    return GroundTruth(u_g=u_g, v_g=v_g, u_l=u_l, v_l=v_l, s=s)


def save_estimates(directory, est: FactorEstimate, s_hat: SparseEstimate):
    directory = Path(directory) / ESTIMATES_DIR
    directory.mkdir(parents=True, exist_ok=True)
    _write_factors(directory, _EST_PREFIX, est, s_hat.s)


def load_estimates(directory, n_sources: int):
    directory = Path(directory) / ESTIMATES_DIR
    if not directory.exists():
        raise MissingInputError(f"no estimates under {directory}")
    u_g, v_g, u_l, v_l, s = _read_factors(directory, _EST_PREFIX, n_sources)
    est = FactorEstimate(u_g=u_g, v_g=v_g, u_l=u_l, v_l=v_l)
    return est, SparseEstimate.from_matrices(s)


# trace CSV --------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_trace_csv(traces, include_timing: bool | None = None) -> str:
    """Render epoch traces under the fixed header.  Timing is left blank by
    default so identical runs produce byte-identical files; set the
    TCMF_TRACE_TIMING=1 environment variable (or include_timing=True) to
    record wall times."""
    if include_timing is None:
        include_timing = os.environ.get(TIMING_ENV, "") == "1"
    lines = [TRACE_HEADER]
    for t in traces:
        cells = [
            _cell(t.epoch),
            _cell(t.lam),
            _cell(t.linf_g),
            _cell(t.linf_l),
            _cell(t.linf_s),
            _cell(t.log_g),
            _cell(t.log_l),
            _cell(t.log_s),
            _cell(t.support_violations),
            _cell(t.wall_ms) if include_timing else "",
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_trace_csv(path, traces, include_timing: bool | None = None):
    _atomic_write_bytes(path, format_trace_csv(traces, include_timing).encode())
