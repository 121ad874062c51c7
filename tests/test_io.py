from dataclasses import fields
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tcmf import (
    EpochTrace,
    SparseParts,
    SynthConfig,
    assemble_observations,
    generate,
    identifiability_report,
)
from tcmf.errors import ConfigurationError, CorruptDataError, MissingInputError
from tcmf.io import (
    _HEADER,
    MAGIC,
    TRACE_HEADER,
    RunConfig,
    atomic_write,
    count_sources,
    format_trace_csv,
    load_estimates,
    load_ground_truth,
    load_observations,
    load_run_config,
    parse_run_config,
    read_matrix,
    save_dataset,
    save_estimates,
    write_matrix,
    write_trace_csv,
)

VALID_CONFIG = """\
# synthetic instance
n_sources = 3
n1 = 10
n2 = 24
r1 = 2
r2 = 2
noise_prob = 0.02
noise_magnitude = 50.0
seed = 4

lambda1_mode = theoretical
rho = 0.9
epsilon = 1e-3
epochs = 6
backend = hmf
step_size = 5e-3
inner_iterations = 200
beta = 1e-5
warm_start = carry_forward
"""


@given(hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
))
@settings(max_examples=150, deadline=None)
def test_matrix_round_trip_bit_exact(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("mats") / "m.mat"
    write_matrix(path, m)
    back = read_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(back, m, equal_nan=False)
    # bit-exact, including signed zeros and subnormals
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "m.mat"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write(path, b"new", 3)  # the second payload is not a buffer
    assert path.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [path]


def test_read_matrix_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.ones((2, 2)))
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMYFMT"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptDataError):
        read_matrix(path)


@pytest.mark.parametrize("rows", [2**63, 2**64 - 1, 2**61])
def test_read_matrix_rejects_a_header_shape_out_of_range(tmp_path, rows):
    # with 0 columns the header-only file passes the size check, but numpy
    # cannot allocate a dimension this large
    path = tmp_path / "m.mat"
    path.write_bytes(MAGIC + struct.pack("<QQ", rows, 0))
    with pytest.raises(CorruptDataError, match="out of range"):
        read_matrix(path)


def test_read_matrix_rejects_truncated_payload(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.ones((3, 3)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CorruptDataError):
        read_matrix(path)


def test_read_matrix_rejects_nan_payload(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.ones((1, 2)))
    raw = bytearray(path.read_bytes())
    raw[24:32] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptDataError):
        read_matrix(path)


def test_read_matrix_missing_file(tmp_path):
    with pytest.raises(MissingInputError):
        read_matrix(tmp_path / "absent.mat")


@pytest.mark.parametrize("layout", ["c", "fortran", "strided", "int", "empty"])
def test_write_matrix_writes_the_header_then_the_row_major_payload(tmp_path, layout):
    # the file is the header followed by the row-major <f8 bytes, written
    # without joining them into one payload first
    base = np.arange(48, dtype=np.float64).reshape(6, 8) - 20.5
    base[0, 0], base[1, 1] = -0.0, 5e-324
    m = {"c": base, "fortran": np.asfortranarray(base), "strided": base[::2, 1::3],
         "int": np.arange(6).reshape(2, 3), "empty": np.zeros((0, 4))}[layout]
    write_matrix(tmp_path / "m.mat", m)
    want = _HEADER.pack(MAGIC, *m.shape) + np.ascontiguousarray(m, dtype="<f8").tobytes()
    assert (tmp_path / "m.mat").read_bytes() == want


def test_write_matrix_leaves_no_temp_files(tmp_path):
    write_matrix(tmp_path / "m.mat", np.ones((2, 2)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mat"]


def test_parse_run_config_happy_path():
    rc = parse_run_config(VALID_CONFIG)
    assert rc.n_sources == 3 and rc.n1 == 10
    assert rc.noise_magnitude == 50.0
    assert rc.lambda1_mode == "theoretical"
    assert rc.backend == "hmf"
    assert rc.inner_iterations == 200


def test_run_config_is_a_synth_config():
    rc = parse_run_config(VALID_CONFIG)
    assert isinstance(rc, SynthConfig)
    cfg = SynthConfig(n_sources=3, n1=10, n2=24, r1=2, r2=2,
                      noise_prob=0.02, noise_magnitude=50.0, seed=4)
    from_config, direct = generate(rc), generate(cfg)
    for name in ("u_g", "v_g", "u_l", "v_l", "s"):
        assert np.array_equal(getattr(from_config, name), getattr(direct, name))


@pytest.mark.parametrize("mutation,fragment", [
    ("unknown", "mystery = 1"),
    ("repeated", "n1 = 11"),
    ("bad_int", None),
    ("bad_choice", None),
    ("missing", None),
    ("non_finite", "rho = nan"),
    ("non_finite", "step_size = inf"),
])
def test_parse_run_config_rejections(mutation, fragment):
    text = VALID_CONFIG
    if mutation == "unknown":
        text += fragment + "\n"
    elif mutation == "repeated":
        text += fragment + "\n"
    elif mutation == "bad_int":
        text = text.replace("n1 = 10", "n1 = ten")
    elif mutation == "bad_choice":
        text = text.replace("backend = hmf", "backend = jive")
    elif mutation == "missing":
        text = text.replace("beta = 1e-5\n", "")
    elif mutation == "non_finite":
        key = fragment.partition(" = ")[0]
        text = text.replace(next(l for l in text.splitlines() if l.startswith(key + " =")), fragment)
    with pytest.raises(ConfigurationError, match="must be finite" if mutation == "non_finite" else None):
        parse_run_config(text)


def test_parse_run_config_no_equals_line():
    with pytest.raises(ConfigurationError):
        parse_run_config(VALID_CONFIG + "dangling\n")


def test_load_run_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(VALID_CONFIG)
    assert load_run_config(path) == parse_run_config(VALID_CONFIG)
    with pytest.raises(MissingInputError):
        load_run_config(tmp_path / "nope.cfg")


config_values = st.one_of(st.text(max_size=12), st.integers().map(str), st.floats().map(repr))


@st.composite
def mutated_configs(draw):
    # VALID_CONFIG after a few line edits: a key given another value, a line
    # dropped, repeated or preceded by arbitrary text
    lines = VALID_CONFIG.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["value", "drop", "repeat", "insert"]))
        if edit == "value":
            lines[i] = f"{lines[i].partition('=')[0]}= {draw(config_values)}"
        elif edit == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i] if edit == "repeat" else draw(st.text(max_size=30)))
    return "\n".join(lines)


@st.composite
def mutated_config_bytes(draw):
    # a mutated config, UTF-8 encoded, with a few bytes overwritten
    blob = bytearray(draw(mutated_configs()).encode())
    for _ in range(draw(st.integers(0, 3))):
        if blob:
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


@given(st.one_of(mutated_configs(), st.text()))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_run_config_returns_a_config_or_a_configuration_error(text):
    try:
        rc = parse_run_config(text)
    except ConfigurationError:
        return
    assert isinstance(rc, RunConfig)


@given(blob=st.one_of(mutated_config_bytes(), st.binary(max_size=200)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_load_run_config_returns_a_config_or_a_configuration_error(tmp_path_factory, blob):
    # bytes that are not UTF-8 text included
    path = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
    path.write_bytes(blob)
    try:
        rc = load_run_config(path)
    except ConfigurationError:
        return
    assert isinstance(rc, RunConfig)


def make_dataset(tmp_path, n_sources=3, noise_prob=0.05):
    gt = generate(SynthConfig(n_sources=n_sources, n1=9, n2=14, r1=2, r2=1,
                              noise_prob=noise_prob, noise_magnitude=20.0, seed=3))
    obs = assemble_observations(gt)
    rep = identifiability_report(gt)
    save_dataset(tmp_path, gt, obs, rep)
    return gt, obs, rep


def test_dataset_round_trip(tmp_path):
    gt, obs, _ = make_dataset(tmp_path)
    assert count_sources(tmp_path) == 3
    obs_back = load_observations(tmp_path, r1=2, r2=1)
    for a, b in zip(obs_back.matrices, obs.matrices):
        assert np.array_equal(a, b)
    gt_back = load_ground_truth(tmp_path, 3)
    assert np.array_equal(gt_back.u_g, gt.u_g)
    for a, b in zip(gt_back.s, gt.s):
        assert np.array_equal(a, b)


def test_dataset_file_count(tmp_path):
    make_dataset(tmp_path, n_sources=4)
    entries = sorted(p.name for p in tmp_path.iterdir())
    mats = [e for e in entries if e.endswith(".mat")]
    assert len(mats) == 5 * 4 + 1
    assert "identifiability.txt" in entries
    assert len(entries) == 5 * 4 + 2


def test_parse_run_config_errors_name_the_line():
    with pytest.raises(ConfigurationError, match="line 20: repeated key 'n1'"):
        parse_run_config(VALID_CONFIG + "n1 = 11\n")
    with pytest.raises(ConfigurationError, match="line 20: unknown key 'mystery'"):
        parse_run_config(VALID_CONFIG + "mystery = 1\n")
    with pytest.raises(ConfigurationError, match="line 20: expected key=value"):
        parse_run_config(VALID_CONFIG + "dangling\n")


def test_count_sources_empty_dir(tmp_path):
    with pytest.raises(MissingInputError):
        count_sources(tmp_path)


def test_save_load_estimates(tmp_path, tiny):
    est = tiny.exact_estimate()
    mats = [np.zeros((10, 20)) for _ in range(3)]
    mats[1][2, 3], mats[2][9, 0] = -1.5, 2.0
    s_hat = SparseParts.from_dense(mats)
    save_estimates(tmp_path, est, s_hat)
    est_back, s_back = load_estimates(tmp_path, 3)
    assert np.array_equal(est_back.u_g, est.u_g)
    assert isinstance(s_back, SparseParts) and s_back.shapes == s_hat.shapes
    for i in range(3):
        assert np.array_equal(est_back.v_l[i], est.v_l[i])
        assert np.array_equal(s_back.indices[i], s_hat.indices[i])
        assert np.array_equal(s_back.values[i], s_hat.values[i])


def sample_traces():
    return [
        EpochTrace(epoch=1, lam=0.5, linf_g=0.25, linf_l=0.125, linf_s=1.0,
                   log_g=-2.0, log_l=-3.0, log_s=-1.5, support_violations=0,
                   wall_ms=12.5),
        EpochTrace(epoch=2, lam=0.251, linf_g=None, linf_l=None, linf_s=None,
                   log_g=None, log_l=None, log_s=None, support_violations=None,
                   wall_ms=11.0),
    ]


def test_trace_csv_header_and_cells():
    csv = format_trace_csv(sample_traces())
    lines = csv.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 0.5
    assert first[-1] == ""  # timing column empty by default
    second = lines[2].split(",")
    assert second[2:9] == [""] * 7  # no ground-truth columns
    assert len(first) == len(TRACE_HEADER.split(","))


def test_trace_header_columns_are_epoch_trace_fields():
    names = [f.name for f in fields(EpochTrace)]
    assert TRACE_HEADER.split(",") == ["lambda" if n == "lam" else n for n in names]


def test_trace_csv_timing_flag_and_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TCMF_TRACE_TIMING", "1")
    csv = format_trace_csv(sample_traces())
    assert csv.strip().split("\n")[1].split(",")[-1] == "12.5"
    assert csv.strip().split("\n")[2].split(",")[-1] == "11.0"
    monkeypatch.delenv("TCMF_TRACE_TIMING")
    path = tmp_path / "trace.csv"
    write_trace_csv(path, sample_traces())
    lines = path.read_text().split("\n")
    assert lines[0] == TRACE_HEADER
    assert lines[1].split(",")[-1] == ""


def test_trace_csv_floats_round_trip():
    traces = [EpochTrace(epoch=1, lam=1 / 3, linf_g=np.pi, linf_l=2 / 7,
                         linf_s=1e-17, log_g=-16.0, log_l=-0.1, log_s=3.3,
                         support_violations=12, wall_ms=0.0)]
    row = format_trace_csv(traces).strip().split("\n")[1].split(",")
    assert float(row[1]) == 1 / 3
    assert float(row[2]) == np.pi
    assert float(row[4]) == 1e-17
    assert row[8] == "12"
