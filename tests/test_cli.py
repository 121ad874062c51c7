"""End-to-end tests of the command line interface via main()."""

import csv
import shutil
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmf import cli, io
from tcmf.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CORRUPT,
    EXIT_DIVERGED,
    EXIT_MISSING,
    EXIT_OK,
    main,
)

BASE_CONFIG = {
    "n_sources": "3",
    "n1": "10",
    "n2": "24",
    "r1": "2",
    "r2": "2",
    "noise_prob": "0.02",
    "noise_magnitude": "50.0",
    "seed": "4",
    "lambda1_mode": "theoretical",
    "rho": "0.9",
    "epsilon": "1e-3",
    "epochs": "6",
    "backend": "hmf",
    "step_size": "5e-3",
    "inner_iterations": "200",
    "beta": "1e-5",
    "warm_start": "carry_forward",
}


def write_config(path, **overrides):
    keys = dict(BASE_CONFIG)
    keys.update({k: str(v) for k, v in overrides.items()})
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def synth(tmp_path, name="data", seed=None, **overrides):
    cfg = write_config(tmp_path / f"{name}.cfg", **overrides)
    out = tmp_path / name
    args = ["synth", "--config", str(cfg), "--out", str(out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    assert main(args) == EXIT_OK
    return cfg, out


def read_rows(trace_path):
    with open(trace_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert ",".join(header) == io.TRACE_HEADER
    return rows


class TestSynth:
    def test_creates_expected_files(self, tmp_path):
        _, out = synth(tmp_path)
        names = sorted(p.name for p in out.iterdir())
        n = int(BASE_CONFIG["n_sources"])
        mats = [p for p in names if p.endswith(".mat")]
        assert len(mats) == 5 * n + 1
        assert "U_G.mat" in names
        for i in range(1, n + 1):
            for stem in ("M", "V_G", "U_L", "V_L", "S"):
                assert f"{stem}_{i}.mat" in names
        assert "identifiability.txt" in names
        assert len(names) == 5 * n + 2

    def test_round_trip_is_bit_identical(self, tmp_path):
        _, out = synth(tmp_path)
        m = io.read_matrix(out / "M_1.mat")
        tmp = tmp_path / "copy.mat"
        io.write_matrix(tmp, m)
        assert tmp.read_bytes() == (out / "M_1.mat").read_bytes()

    def test_zero_noise_prob_gives_zero_sparse_files(self, tmp_path):
        _, out = synth(tmp_path, name="clean", noise_prob="0.0")
        for i in range(1, int(BASE_CONFIG["n_sources"]) + 1):
            s = io.read_matrix(out / f"S_{i}.mat")
            assert np.all(s == 0.0)

    def test_seed_flag_overrides_config(self, tmp_path):
        _, out_a = synth(tmp_path, name="a")
        _, out_b = synth(tmp_path, name="b", seed=99)
        _, out_c = synth(tmp_path, name="c", seed=99)
        bytes_a = (out_a / "M_1.mat").read_bytes()
        bytes_b = (out_b / "M_1.mat").read_bytes()
        bytes_c = (out_c / "M_1.mat").read_bytes()
        assert bytes_a != bytes_b
        assert bytes_b == bytes_c

    def test_identifiability_report_is_readable(self, tmp_path):
        _, out = synth(tmp_path)
        text = (out / "identifiability.txt").read_text()
        for key in ("alpha", "mu", "theta", "sigma_max", "sigma_min"):
            assert key in text


class TestRun:
    def test_noiseless_single_epoch_trace(self, tmp_path):
        cfg, out = synth(tmp_path, noise_prob="0.0", epochs="1",
                         lambda1_mode="data_driven", inner_iterations="400",
                         step_size="0.01")
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_OK
        rows = read_rows(trace)
        assert len(rows) == 1
        epoch, lam, linf_g, linf_l, linf_s = rows[0][:5]
        assert epoch == "1"
        assert float(lam) > 0.0
        # no planted noise and nothing thresholded away: exact zero
        assert float(linf_s) == 0.0
        assert rows[0][8] == "0"
        assert rows[0][9] == ""

    def test_run_saves_estimates_into_data_dir(self, tmp_path):
        cfg, out = synth(tmp_path, epochs="2", inner_iterations="50")
        trace = tmp_path / "new" / "nested" / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_OK
        assert len(read_rows(trace)) == 2
        est = out / "estimates"
        assert (est / "EST_U_G.mat").exists()
        n = int(BASE_CONFIG["n_sources"])
        for i in range(1, n + 1):
            for stem in ("EST_V_G", "EST_U_L", "EST_V_L", "EST_S"):
                assert (est / f"{stem}_{i}.mat").exists()

    def test_desk_scale_run_denoises(self, tmp_path):
        cfg, out = synth(
            tmp_path, name="desk",
            n_sources="10", n1="15", n2="100", r1="3", r2="3",
            noise_prob="0.01", noise_magnitude="100.0", seed="0",
            rho="0.9", epochs="20", inner_iterations="300",
        )
        trace = tmp_path / "desk_trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_OK
        rows = read_rows(trace)
        assert len(rows) == 20
        assert all(r[8] == "0" for r in rows)
        final_log_s = float(rows[-1][7])
        assert final_log_s < -1.0

    def test_two_runs_produce_identical_bytes(self, tmp_path):
        cfg, out = synth(tmp_path, epochs="3", inner_iterations="80")
        t1 = tmp_path / "t1.csv"
        t2 = tmp_path / "t2.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(t1)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(t2)]) == EXIT_OK
        assert t1.read_bytes() == t2.read_bytes()

    def test_run_with_ground_truth_holds_no_dense_sparse_part(self, tmp_path):
        # tcmf run holds the data, the ground truth with its noise as
        # supports and the solve's or the scoring's temporaries, with no
        # cleaned copy of the data: about 1.6 data-sizes here (2.5 with that
        # copy).  Holding the truth's noise dense for the whole run and a
        # dense sparse part each epoch adds about one data-size more (3.5)
        cfg, out = synth(tmp_path, n_sources="10", n1="50", n2="1000", r1="3", r2="3",
                         noise_prob="0.01", noise_magnitude="100.0", backend="perpca",
                         step_size="0.1", epochs="3", inner_iterations="20")
        data_bytes = 10 * 50 * 1000 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rc = main(["run", "--config", str(cfg), "--data", str(out), "--out", str(tmp_path / "t.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
        assert (peak - before) / data_bytes <= 2.8

    def test_data_config_shape_mismatch_is_rejected(self, tmp_path):
        cfg, out = synth(tmp_path)
        bad_cfg = write_config(tmp_path / "bad.cfg", n1="11")
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(bad_cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_BAD_CONFIG
        assert not trace.exists()

    def test_data_config_source_count_mismatch_is_rejected(self, tmp_path):
        cfg, out = synth(tmp_path)
        bad_cfg = write_config(tmp_path / "bad.cfg", n_sources="4")
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(bad_cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_BAD_CONFIG
        assert not trace.exists()

    def test_theoretical_mode_without_ground_truth(self, tmp_path):
        cfg, out = synth(tmp_path)
        (out / "U_G.mat").unlink()
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_MISSING
        assert not trace.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_step_size_exits_2_with_partial_trace(self, tmp_path, capsys):
        cfg, out = synth(tmp_path, lambda1_mode="data_driven",
                         step_size="50.0", inner_iterations="300")
        trace = tmp_path / "new" / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_DIVERGED
        assert trace.exists()
        rows = read_rows(trace)
        # blew up inside the first factorization call: header only
        assert rows == []
        err = capsys.readouterr().err
        assert "diverged in epoch 1:" in err
        assert "at inner iteration" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shared_factor_rank_loss_exits_2_with_partial_trace(self, tmp_path, capsys):
        # the shared factor blows up until it loses column rank
        cfg, out = synth(tmp_path, step_size="1.5")
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_DIVERGED
        assert read_rows(trace) == []
        err = capsys.readouterr().err
        assert "diverged in epoch 1: shared factor lost column rank at inner iteration 5" in err


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wide_run_rank_loss_exits_2_with_partial_trace(self, tmp_path, capsys):
        # 4 wide sources at step 3e-3 x 5: the shared factor loses column
        # rank, which used to escape from the correction after the inner loop
        # as a bare SingularityError and exit 65, "invalid data"
        cfg, out = synth(tmp_path, n_sources=4, n1=20, n2=2000, noise_prob=0.01, noise_magnitude=100.0,
                         seed=3, epochs=3, step_size=3e-3, inner_iterations=5)
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_DIVERGED
        rows = read_rows(trace)
        err = capsys.readouterr().err
        assert f"diverged in epoch {len(rows) + 1}: shared factor lost column rank" in err

class TestFailureExitCodes:
    def test_malformed_config_exits_64_without_trace(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_sources = 3\nwidgets = 7\n")
        trace = tmp_path / "trace.csv"
        code = main(["run", "--config", str(cfg), "--data", str(tmp_path),
                     "--out", str(trace)])
        assert code == EXIT_BAD_CONFIG
        assert not trace.exists()

    def test_negative_seed_is_a_configuration_error(self, tmp_path, capsys):
        # in the config and on the command line alike, before anything is written
        cfg = write_config(tmp_path / "neg.cfg", seed=-1)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_BAD_CONFIG
        cfg = write_config(tmp_path / "ok.cfg")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "-1"]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.count("configuration error: seed must be nonnegative") == 2
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    @pytest.mark.parametrize("backend", ["hmf", "perpca"])
    @pytest.mark.parametrize(
        "bad",
        [{"r1": 6, "r2": 6}, {"r1": -1}, {"n_sources": 0}],
        ids=["ranks_exceed_n1", "negative_rank", "no_sources"],
    )
    def test_config_size_and_rank_errors_exit_64(self, tmp_path, capsys, bad, backend):
        _, out = synth(tmp_path, backend=backend)
        bad_cfg = write_config(tmp_path / "bad.cfg", backend=backend, **bad)
        assert main(["synth", "--config", str(bad_cfg), "--out", str(tmp_path / "bad")]) == EXIT_BAD_CONFIG
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(bad_cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_BAD_CONFIG
        assert not trace.exists()
        assert not (tmp_path / "bad").exists()
        assert capsys.readouterr().err.count("configuration error:") == 2

    def test_synth_too_large_to_allocate_exits_64(self, tmp_path, capsys):
        # 3 x 10 x 1e13 float64 entries exceed the address space, so the
        # first data-sized allocation fails at once and nothing is allocated
        cfg = write_config(tmp_path / "huge.cfg", n2=10**13)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "huge")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: 3 x 10 x 10000000000000 ")
        assert not (tmp_path / "huge").exists()

    @pytest.mark.parametrize("size", [{"n1": 10**20}, {"n2": 10**20}], ids=["n1", "n2"])
    def test_synth_shape_numpy_cannot_hold_exits_64(self, tmp_path, capsys, size):
        # a dimension beyond numpy's index range fails the first allocation
        # that names it with a ValueError, before any entry is allocated
        cfg = write_config(tmp_path / "huge.cfg", **size)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "huge")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"configuration error: 3 x {size.get('n1', 10)} x {size.get('n2', 24)} ")
        assert not (tmp_path / "huge").exists()

    def test_config_that_is_not_utf8_exits_64(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg")
        cfg.write_bytes(cfg.read_bytes().replace(b"hmf", b"hm\xff"))
        for args in (["synth", "--out", str(tmp_path / "a")],
                     ["run", "--data", str(tmp_path), "--out", str(tmp_path / "trace.csv")]):
            assert main([args[0], "--config", str(cfg), *args[1:]]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.count("not UTF-8 text") == 2
        assert not (tmp_path / "a").exists() and not (tmp_path / "trace.csv").exists()

    def test_corrupted_matrix_exits_65(self, tmp_path):
        cfg, out = synth(tmp_path)
        path = out / "M_2.mat"
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTAMAT!"
        path.write_bytes(bytes(blob))
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_CORRUPT
        # shorter than the 24-byte header
        path.write_bytes(bytes(blob[:10]))
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_CORRUPT
        assert not trace.exists()

    def test_header_shape_out_of_range_exits_65(self, tmp_path, capsys):
        # a header with 0 columns passes the size check at any row count;
        # every command that reads the file reports invalid data
        cfg, out = synth(tmp_path)
        gt = io.load_ground_truth(out, int(BASE_CONFIG["n_sources"]))
        io.save_estimates(out, gt, gt.s)
        (out / "U_G.mat").write_bytes(io.MAGIC + struct.pack("<QQ", 2**63, 0))
        trace = tmp_path / "trace.csv"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_CORRUPT
        assert main(["check", "--data", str(out)]) == EXIT_CORRUPT
        assert main(["metrics", "--data", str(out)]) == EXIT_CORRUPT
        assert not trace.exists()
        assert capsys.readouterr().err.count("out of range") == 3

    def test_data_whose_gram_matrices_overflow_exits_65(self, tmp_path, capsys):
        cfg, out = synth(tmp_path, backend="perpca", step_size="0.1",
                         lambda1_mode="data_driven", epochs="2", inner_iterations="5")
        for path in out.glob("M_*.mat"):
            io.write_matrix(path, io.read_matrix(path) * 1e155)
        trace = tmp_path / "trace.csv"
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(cfg), "--data", str(out),
                         "--out", str(trace)]) == EXIT_CORRUPT
        assert "invalid data" in capsys.readouterr().err

    def test_out_naming_a_directory_is_an_io_error(self, tmp_path, capsys, monkeypatch):
        cfg, out = synth(tmp_path, epochs="1", inner_iterations="20")
        taken = tmp_path / "taken"
        taken.mkdir()
        solves = []
        monkeypatch.setattr(cli, "run_outer", lambda *args: solves.append(args))
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(taken)]) == 1
        assert "io error" in capsys.readouterr().err
        # rejected before the solve, not after it
        assert solves == []
        # nothing is written: no temp file, trace or estimates
        assert list(taken.iterdir()) == []
        assert not [p for p in tmp_path.iterdir() if p.name.startswith("taken.")]
        assert not (out / "estimates").exists()

    def test_missing_data_dir_exits_66(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg")
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data",
                     str(tmp_path / "nowhere"), "--out", str(trace)]) == EXIT_MISSING

    def test_missing_config_exits_66(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(tmp_path / "ghost.cfg"),
                     "--data", str(tmp_path), "--out", str(trace)]) == EXIT_MISSING

    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "extra",
        [["--out", "t.csv", "--seed", "0"], ["--out", "t.csv", "--verbose"], []],
        ids=["removed_seed_flag", "unknown_flag", "missing_required_flag"],
    )
    def test_bad_run_arguments_are_usage_errors(self, extra):
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", "c.cfg", "--data", "data"] + extra)
        # 2 would read as solver divergence
        assert info.value.code == EXIT_BAD_CONFIG

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--help"])
        assert info.value.code == EXIT_OK
        assert "--config" in capsys.readouterr().out


class TestMisshapedFactorFiles:
    """Factor files whose shapes disagree are invalid data (65), not a crash."""

    def test_wrong_size_shared_factor_exits_65(self, tmp_path, capsys):
        cfg, out = synth(tmp_path)
        io.write_matrix(out / "U_G.mat", np.eye(3))
        trace = tmp_path / "trace.csv"
        assert main(["check", "--data", str(out)]) == EXIT_CORRUPT
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_CORRUPT
        assert not trace.exists()
        assert capsys.readouterr().err.count("invalid data:") == 2

    def test_ground_truth_with_other_row_count_exits_65(self, tmp_path, capsys):
        cfg, out = synth(tmp_path)
        _, tall = synth(tmp_path, name="tall", n1="12")
        for path in tall.glob("*.mat"):
            if not path.name.startswith("M_"):
                (out / path.name).write_bytes(path.read_bytes())
        # the 12-row ground truth is consistent on its own
        assert io.load_ground_truth(out, int(BASE_CONFIG["n_sources"])).u_g.shape == (12, 2)
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_CORRUPT
        assert not trace.exists()
        assert "ground truth vs the observations" in capsys.readouterr().err

    def test_check_rejects_ground_truth_with_other_row_count(self, tmp_path, capsys):
        _, out = synth(tmp_path)
        _, tall = synth(tmp_path, name="tall", n1="12")
        for path in tall.glob("*.mat"):
            if not path.name.startswith("M_"):
                (out / path.name).write_bytes(path.read_bytes())
        capsys.readouterr()
        assert main(["check", "--data", str(out)]) == EXIT_CORRUPT
        assert "ground truth vs the observations" in capsys.readouterr().err

    @pytest.mark.parametrize("shapes", [
        {"EST_V_G_2.mat": (20, 2)},
        {"EST_V_G_2.mat": (20, 2), "EST_V_L_2.mat": (20, 2)},
        {"EST_S_2.mat": (10, 20)},
    ], ids=["v_g", "v_g_and_v_l", "s"])
    def test_wrong_shape_estimates_exit_65(self, tmp_path, capsys, shapes):
        _, out = synth(tmp_path)
        gt = io.load_ground_truth(out, int(BASE_CONFIG["n_sources"]))
        io.save_estimates(out, gt, gt.s)
        assert main(["metrics", "--data", str(out)]) == EXIT_OK
        for name, shape in shapes.items():
            io.write_matrix(out / "estimates" / name, np.ones(shape))
        capsys.readouterr()
        assert main(["metrics", "--data", str(out)]) == EXIT_CORRUPT
        assert "invalid data:" in capsys.readouterr().err


class TestCheck:
    def test_check_prints_identifiability_fields(self, tmp_path, capsys):
        _, out = synth(tmp_path)
        capsys.readouterr()
        assert main(["check", "--data", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        values = {}
        for line in text.strip().splitlines():
            key, _, raw = line.partition("=")
            values[key.strip()] = float(raw)
        for key in ("alpha", "mu", "theta", "sigma_max", "sigma_min",
                    "alpha_budget_ratio"):
            assert key in values
        assert 0.0 <= values["alpha"] < 1.0
        assert values["mu"] >= 1.0
        assert 0.0 <= values["theta"] <= 1.0
        assert values["sigma_max"] >= values["sigma_min"] > 0.0

    def test_check_without_ground_truth_exits_66(self, tmp_path):
        _, out = synth(tmp_path)
        (out / "V_L_1.mat").unlink()
        assert main(["check", "--data", str(out)]) == EXIT_MISSING

    def test_check_single_source_budget_ratio_is_inf(self, tmp_path, capsys):
        # a lone local subspace is aligned with itself: theta = 0, so the budget is 0
        _, out = synth(tmp_path, n_sources="1", noise_prob="0.1")
        capsys.readouterr()
        assert main(["check", "--data", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "theta=0.0" in lines
        assert float(next(l for l in lines if l.startswith("alpha=")).split("=")[1]) > 0.0
        assert lines[-1] == "alpha_budget_ratio=inf"

    def test_check_alpha_zero_for_clean_data(self, tmp_path, capsys):
        _, out = synth(tmp_path, name="clean", noise_prob="0.0")
        assert main(["check", "--data", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        alpha_line = next(l for l in text.splitlines() if l.startswith("alpha="))
        assert float(alpha_line.split("=")[1]) == 0.0


class TestMetrics:
    def test_metrics_matches_final_trace_row(self, tmp_path, capsys):
        cfg, out = synth(tmp_path, epochs="4", inner_iterations="150")
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_OK
        capsys.readouterr()
        assert main(["metrics", "--data", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        printed = {}
        for line in text.strip().splitlines():
            key, _, raw = line.partition("=")
            printed[key.strip()] = float(raw)
        final = read_rows(trace)[-1]
        assert printed["linf_g"] == float(final[2])
        assert printed["linf_l"] == float(final[3])
        assert printed["linf_s"] == float(final[4])
        assert printed["log_g"] == float(final[5])
        assert printed["log_l"] == float(final[6])
        assert printed["log_s"] == float(final[7])

    def test_metrics_writes_optional_output_file(self, tmp_path, capsys):
        cfg, out = synth(tmp_path, epochs="2", inner_iterations="60")
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--data", str(out),
                     "--out", str(trace)]) == EXIT_OK
        report = tmp_path / "new" / "metrics.txt"
        capsys.readouterr()
        assert main(["metrics", "--data", str(out), "--out", str(report)]) == EXIT_OK
        assert report.read_text() == capsys.readouterr().out
        assert "log_s" in report.read_text()
        assert sorted(p.name for p in report.parent.iterdir()) == ["metrics.txt"]

    def test_metrics_before_run_exits_66(self, tmp_path):
        _, out = synth(tmp_path)
        assert main(["metrics", "--data", str(out)]) == EXIT_MISSING


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    # 2 sources of 4 x 6 with estimates: every matrix file the commands read
    base = tmp_path_factory.mktemp("small")
    cfg, out = synth(base, n_sources=2, n1=4, n2=6, r1=1, r2=1, noise_prob=0.1,
                     epochs=2, inner_iterations=20)
    assert main(["run", "--config", str(cfg), "--data", str(out), "--out", str(base / "trace.csv")]) == EXIT_OK
    return cfg, out, sorted(p.relative_to(out) for p in out.rglob("*.mat"))


HEADER_SHAPES = [(0, 0), (2**63, 0), (1, 2**61), (0, 6), (4, 0), (6, 4), (24, 1), (2, 12), (2**64 - 1, 2**64 - 1)]
PAYLOAD_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 5e-324]


@st.composite
def mutations(draw):
    # (file index, function of the file's bytes): a flipped byte, a
    # truncation, extra bytes, another header shape, or a payload entry
    # set to NaN, Inf, -0.0 or an extreme value
    kind = draw(st.sampled_from(["flip", "truncate", "extend", "header", "payload"]))
    pos, byte = draw(st.integers(0, 2**16)), draw(st.integers(1, 255))
    extra = draw(st.binary(min_size=1, max_size=16))
    shape = draw(st.sampled_from(HEADER_SHAPES))
    value = draw(st.sampled_from(PAYLOAD_VALUES))

    def mutate(blob):
        blob = bytearray(blob)
        if kind == "flip":
            blob[pos % len(blob)] ^= byte
        elif kind == "truncate":
            del blob[pos % len(blob):]
        elif kind == "extend":
            blob += extra
        elif kind == "header":
            blob[:24] = io.MAGIC + struct.pack("<QQ", *shape)
        else:
            entries = (len(blob) - 24) // 8
            if entries:
                at = 24 + 8 * (pos % entries)
                blob[at:at + 8] = struct.pack("<d", value)
        return bytes(blob)

    return draw(st.integers(0, 2**16)), mutate


@given(mutation=mutations())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mutated_matrix_files_end_in_an_exit_code(small_dataset, mutation):
    # one matrix file of a small dataset with estimates mutated; check,
    # metrics and run each end in a documented exit code, never an exception
    cfg, base, files = small_dataset
    which, mutate = mutation
    with tempfile.TemporaryDirectory(dir=base.parent) as work:
        data = shutil.copytree(base, f"{work}/data")
        path = data / files[which % len(files)]
        path.write_bytes(mutate(path.read_bytes()))
        for args in (["check", "--data", str(data)], ["metrics", "--data", str(data)],
                     ["run", "--config", str(cfg), "--data", str(data), "--out", f"{work}/trace.csv"]):
            assert main(args) in {0, 1, 2, 64, 65, 66}
