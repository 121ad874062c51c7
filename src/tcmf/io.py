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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .alternating import WARM_START_POLICIES, EpochTrace
from .errors import ConfigurationError, CorruptDataError, DimensionError, MissingInputError
from .model import FactorEstimate, GroundTruth, IdentifiabilityReport, ObservationSet, SparseParts, SynthConfig
from .numerics import as_matrix
from .thresholding import LAMBDA1_MODES

MAGIC = b"TCMFMAT1"
_HEADER = struct.Struct("<8sQQ")

TRACE_HEADER = "epoch,lambda,linf_g,linf_l,linf_s,log_g,log_l,log_s,support_violations,wall_ms"
TIMING_ENV = "TCMF_TRACE_TIMING"

REPORT_FILE = "identifiability.txt"
ESTIMATES_DIR = "estimates"


def format_fields(record) -> str:
    """One name=repr(value) line per dataclass field, in field order."""
    return "".join(f"{f.name}={getattr(record, f.name)!r}\n" for f in fields(record))


def atomic_write(path, *payloads):
    """Write the payloads (bytes or contiguous buffers), one after another,
    to path through a temp file plus rename, creating the directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            for payload in payloads:
                fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix(path, m):
    """Write m as a matrix file: the header, then the row-major <f8 buffer
    itself, copied only when m is not already laid out that way."""
    m = as_matrix(m)
    header = _HEADER.pack(MAGIC, m.shape[0], m.shape[1])
    atomic_write(path, header, np.ascontiguousarray(m, dtype="<f8").reshape(-1).view(np.uint8))


def read_matrix(path) -> np.ndarray:
    """Read a matrix file into a new float64 array.  The file's size is
    checked against its header before the payload is allocated, so a corrupt
    header cannot ask for more memory than the file holds."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"matrix file missing: {path}")
    with path.open("rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CorruptDataError(f"{path}: shorter than the header")
        magic, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise CorruptDataError(f"{path}: bad magic {magic!r}")
        expected = _HEADER.size + rows * cols * 8
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CorruptDataError(f"{path}: expected {expected} bytes, found {size}")
        try:
            m = np.empty((rows, cols), dtype="<f8")
        except ValueError as err:  # an empty shape whose dimension numpy cannot hold
            raise CorruptDataError(f"{path}: header shape {rows} x {cols} is out of range") from err
        if fh.readinto(m.reshape(-1).view(np.uint8)) != m.nbytes:
            raise CorruptDataError(f"{path}: payload ends early")
    m = m.astype(np.float64, copy=False)  # a no-op on little-endian hosts
    if m.size and not np.isfinite(m).all():
        raise CorruptDataError(f"{path}: payload contains NaN or Inf")
    return m


@dataclass(frozen=True)
class RunConfig(SynthConfig):
    """Flat key=value run description: a synthetic instance (the SynthConfig
    fields, checked on construction) plus the solver settings."""

    lambda1_mode: str
    rho: float
    epsilon: float
    epochs: int
    backend: str
    step_size: float
    inner_iterations: int
    beta: float
    warm_start: str


_CHOICE_KEYS = {
    "lambda1_mode": LAMBDA1_MODES,
    "backend": ("hmf", "perpca"),
    "warm_start": WARM_START_POLICIES,
}
_EXPECTED = {int: "an integer", float: "a number"}


def parse_run_config(text: str) -> RunConfig:
    """Parse key=value lines; blank lines and #-comments are skipped.
    A line without '=' and unknown, repeated, missing or ill-typed keys are
    configuration errors, and so are sizes and rank targets SynthConfig
    rejects.  Each key takes its type from its RunConfig field."""
    types = {f.name: f.type for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: repeated key {key!r}")
        values[key] = val.strip()
    missing = [k for k in types if k not in values]
    if missing:
        raise ConfigurationError(f"missing keys: {', '.join(missing)}")
    parsed = {}
    for key, kind in types.items():
        val = values[key]
        if key in _CHOICE_KEYS and val not in _CHOICE_KEYS[key]:
            raise ConfigurationError(f"key {key!r}: expected one of {_CHOICE_KEYS[key]}, got {val!r}")
        try:
            parsed[key] = kind(val)
        except ValueError:
            raise ConfigurationError(f"key {key!r}: expected {_EXPECTED[kind]}, got {val!r}")
        if kind is float and not np.isfinite(parsed[key]):
            raise ConfigurationError(f"key {key!r}: must be finite")
    try:
        return RunConfig(**parsed)
    except DimensionError as err:
        raise ConfigurationError(str(err)) from err


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"config file missing: {path}")
    try:
        return parse_run_config(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from err


# data directory layout -------------------------------------------------


def _obs_path(directory, i: int) -> Path:
    return Path(directory) / f"M_{i}.mat"


# factor files: {prefix}U_G.mat plus {prefix}<stem>_{i}.mat per source i,
# with prefix "" for ground truth and "EST_" for estimates
_SHARED = "U_G.mat"
_SOURCE_STEMS = ("V_G", "U_L", "V_L", "S")
_EST_PREFIX = "EST_"


def _write_factors(directory: Path, prefix: str, factors, s: SparseParts):
    # iterating s builds one dense S_i at a time, written and then dropped
    write_matrix(directory / f"{prefix}{_SHARED}", factors.u_g)
    for i, mats in enumerate(zip(factors.v_g, factors.u_l, factors.v_l, s), start=1):
        for stem, m in zip(_SOURCE_STEMS, mats):
            write_matrix(directory / f"{prefix}{stem}_{i}.mat", m)


def _read_factors(directory: Path, prefix: str, n_sources: int):
    """(u_g, v_g, u_l, v_l, s) as written by _write_factors, with s as
    SparseParts: each S_i is converted as soon as it is read, so at most
    one dense S_i is held."""
    u_g = read_matrix(directory / f"{prefix}{_SHARED}")
    v_g, u_l, v_l, s = (
        map(read_matrix, [directory / f"{prefix}{stem}_{i}.mat" for i in range(1, n_sources + 1)])
        for stem in _SOURCE_STEMS
    )
    return u_g, list(v_g), list(u_l), list(v_l), SparseParts.from_dense(s)


def save_dataset(directory, gt: GroundTruth, obs: ObservationSet, report: IdentifiabilityReport):
    """Write observations, ground truth factors and the identifiability
    report: 5N+1 matrix files plus the report text."""
    directory = Path(directory)
    for i, m in enumerate(obs.matrices, start=1):
        write_matrix(_obs_path(directory, i), m)
    _write_factors(directory, "", gt, gt.s)
    atomic_write(directory / REPORT_FILE, format_fields(report).encode())


def count_sources(directory) -> int:
    """The number of consecutive M_i.mat files under directory, starting at
    M_1.mat."""
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


def save_estimates(directory, est: FactorEstimate, s_hat: SparseParts):
    directory = Path(directory) / ESTIMATES_DIR
    _write_factors(directory, _EST_PREFIX, est, s_hat)


def load_estimates(directory, n_sources: int):
    directory = Path(directory) / ESTIMATES_DIR
    u_g, v_g, u_l, v_l, s = _read_factors(directory, _EST_PREFIX, n_sources)
    return FactorEstimate(u_g=u_g, v_g=v_g, u_l=u_l, v_l=v_l), s


# trace CSV --------------------------------------------------------------


def format_trace_csv(traces) -> str:
    """Render epoch traces under the fixed header, one column per EpochTrace
    field in field order.  Timing is left blank by default so identical runs
    produce byte-identical files; set the TCMF_TRACE_TIMING=1 environment
    variable to record wall times."""
    include_timing = os.environ.get(TIMING_ENV, "") == "1"
    names = [f.name for f in fields(EpochTrace)]
    lines = [TRACE_HEADER]
    for t in traces:
        values = [getattr(t, n) if include_timing or n != "wall_ms" else None for n in names]
        # str of a float is its shortest round-trip repr
        lines.append(",".join("" if v is None else str(v) for v in values))
    return "\n".join(lines) + "\n"


def write_trace_csv(path, traces):
    atomic_write(path, format_trace_csv(traces).encode())
