"""CLI tests: subcommand wiring, flag handling and exit codes
(0 success, 2 argument/config, 3 recovery failure, 4 I/O)."""

import csv
import math

import numpy as np
import pytest

from modsample import cli, harness
from modsample.cli import main


def _simulate(tmp_path, extra=()):
    out = tmp_path / "sim"
    argv = [
        "simulate", "--tau", "1.0", "--K", "128", "--P", "6",
        "--lambda", "1", "--amplitude", "4", "--seed", "3",
        "--output-dir", str(out),
    ] + list(extra)
    assert main(argv) == 0
    return out / "capture.csv"


class TestBounds:
    def test_success(self, capsys):
        assert main(["bounds", "--tau", "0.000996", "--P", "15", "--M", "7"]) == 0
        out = capsys.readouterr().out
        assert "T_FD" in out and "K_min = 46" in out

    def test_value_matches_published_rate(self, capsys):
        main(["bounds", "--tau", "0.000996", "--P", "15", "--M", "7"])
        line = capsys.readouterr().out.splitlines()[0]
        T_fd = float(line.split("=")[1].split()[0])
        assert T_fd == pytest.approx(21.652e-6, rel=1e-3)

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--tau", "nan"], "tau must be finite and positive, got nan"),
            (["--tau", "inf"], "tau must be finite and positive, got inf"),
        ],
    )
    def test_bad_tau_is_config_error(self, capsys, flags, message):
        assert main(["bounds", *flags, "--P", "4", "--M", "3"]) == 2
        assert message in capsys.readouterr().err

    def test_bandwidth_is_the_bandwidth_index(self, capsys):
        assert main(["bounds", "--tau", "1", "--P", "4", "--M", "3"]) == 0
        assert "K_min = 16" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--tau", "1", "--P", "4", "--M", "3", "--omega", "100"])
        assert exc.value.code == 2


class TestSimulate:
    def test_writes_capture(self, tmp_path):
        path = _simulate(tmp_path)
        assert path.exists()
        header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
        assert header == "time,truth,modulo"

    @pytest.mark.parametrize(
        "grid", [["--tau", "1.0"], ["--K", "8"], ["--tau", "1", "--T", "0.125"]]
    )
    def test_grid_underspecified(self, tmp_path, grid):
        # the grid is --tau and --K, both required
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *grid, "--P", "3", "--lambda", "1",
                  "--output-dir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "grid,message",
        [
            (["--tau", "1", "--K", "0"], "K must be positive, got 0"),
            (["--tau", "-1", "--K", "8"], "tau must be finite and positive, got -1.0"),
        ],
    )
    def test_non_positive_grid_is_config_error(self, tmp_path, capsys, grid, message):
        code = main(
            ["simulate", *grid, "--P", "3", "--lambda", "1",
             "--output-dir", str(tmp_path)]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--lambda", "1", "--amplitude", "nan"], "amplitude"),
            (["--lambda", "1", "--amplitude", "inf"], "amplitude"),
            (["--lambda", "nan"], "threshold"),
            (["--lambda", "inf"], "threshold"),
            (["--tau", "inf", "--lambda", "1"], "tau"),
        ],
    )
    def test_non_finite_signal_is_config_error(self, tmp_path, capsys, flags, field):
        # was exit 2 with an unrelated "coeffs must be Hermitian symmetric"
        # and a numpy RuntimeWarning
        code = main(["simulate", "--tau", "1", "--K", "96", "--P", "4", *flags,
                     "--output-dir", str(tmp_path / "sim")])
        assert code == 2
        assert f"{field} must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("bits", ["0", "54", "2000"])
    def test_bits_out_of_range_is_config_error(self, tmp_path, capsys, bits):
        # 2000 was an uncaught OverflowError, exit 1
        code = main(["simulate", "--tau", "1", "--K", "64", "--P", "3", "--lambda", "1",
                     "--bits", bits, "--output-dir", str(tmp_path / "sim")])
        assert code == 2
        assert f"bits must lie in [1, 53], got {bits}" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_single_sample_is_config_error(self, tmp_path, capsys):
        # was exit 0 and a one-row capture.csv that recover refused
        code = main(["simulate", "--tau", "1", "--K", "1", "--P", "0", "--lambda", "1",
                     "--output-dir", str(tmp_path / "sim")])
        assert code == 2
        assert "K must be at least 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        # was numpy's "expected non-negative integer", which named no flag
        code = main(["simulate", "--tau", "1", "--K", "64", "--P", "3", "--lambda", "1",
                     "--seed", "-1", "--output-dir", str(tmp_path / "sim")])
        assert code == 2
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()


class TestRecover:
    def test_end_to_end(self, tmp_path, capsys):
        capture = _simulate(tmp_path)
        out = tmp_path / "rec"
        # the capture is exactly periodic, so bandwidth inflation is off
        code = main(
            ["recover", "--input", str(capture), "--P", "6", "--lambda", "1",
             "--method", "both", "--p-inflation", "0", "--output-dir", str(out)]
        )
        assert code == 0
        metrics = dict(
            line.split(" = ", 1)
            for line in (out / "metrics.txt").read_text().splitlines()
        )
        assert float(metrics["MSE_FD"]) < 1e-10
        assert float(metrics["MSE_US"]) < 1e-10

    def test_m_taken_from_folds_header(self, tmp_path, capsys):
        capture = _simulate(tmp_path)
        folds = int(capture.read_text().split("# folds = ")[1].splitlines()[0])
        out = tmp_path / "rec"
        assert main(
            ["recover", "--input", str(capture), "--P", "6", "--p-inflation", "0",
             "--output-dir", str(out)]
        ) == 0
        metrics = (out / "metrics.txt").read_text().splitlines()
        # the resolved M is reported; the config echo keeps M as given (unset)
        assert f"M = {folds}" in metrics and "config.M = " in metrics
        # without the header M must be given
        bare = tmp_path / "bare.csv"
        bare.write_text(
            "".join(l for l in capture.read_text().splitlines(True) if "folds" not in l)
        )
        code = main(
            ["recover", "--input", str(bare), "--P", "6", "--output-dir", str(out)]
        )
        assert code == 2
        assert "M is required" in capsys.readouterr().err

    def test_capture_loaded_once(self, tmp_path, monkeypatch):
        capture = _simulate(tmp_path)
        calls = []
        load = harness.load_capture

        def counting_load(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(harness, "load_capture", counting_load)
        assert main(
            ["recover", "--input", str(capture), "--P", "6", "--lambda", "1",
             "--method", "both", "--output-dir", str(tmp_path / "rec")]
        ) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("flag", ["--tau", "--T", "--K"])
    def test_grid_comes_from_capture_only(self, tmp_path, flag):
        capture = _simulate(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--input", str(capture), "--P", "6", flag, "7",
                  "--output-dir", str(tmp_path / "rec")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--calibrate", "mean"), ("--beta-g", "6")])
    def test_removed_knobs_are_argument_errors(self, tmp_path, flag, value):
        # recovery is zero-mean and the harness matches the truth's mean;
        # the baseline's max-norm bound comes from the data
        capture = _simulate(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--input", str(capture), "--P", "6", flag, value,
                  "--output-dir", str(tmp_path / "rec")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "line", ["# tau = oops", "# dc_offset = abc", "# folds = 2.5"]
    )
    def test_malformed_metadata_is_io_error(self, tmp_path, capsys, line):
        capture = _simulate(tmp_path)
        capture.write_text(line + "\n" + capture.read_text())
        code = main(
            ["recover", "--input", str(capture), "--P", "6",
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 4
        key = line[2:].split(" ")[0]
        assert f"line 1: {key} must be" in capsys.readouterr().err

    def test_tau_disagreeing_with_time_column_is_io_error(self, tmp_path, capsys):
        # a doubled tau would double T_FD and T_US and halve the baseline's Omega
        out = tmp_path / "sim"
        assert main(["simulate", "--tau", "1", "--K", "1024", "--P", "5", "--lambda", "1",
                     "--amplitude", "4", "--seed", "3", "--output-dir", str(out)]) == 0
        capture = out / "capture.csv"
        text = capture.read_text()
        assert text.startswith("# tau = 1.0\n")
        capture.write_text(text.replace("# tau = 1.0\n", "# tau = 2.0\n", 1))
        rec = tmp_path / "rec"
        code = main(["recover", "--input", str(capture), "--P", "5", "--lambda", "1",
                     "--method", "both", "--p-inflation", "0", "--output-dir", str(rec)])
        assert code == 4
        assert "line 1: tau = 2.0 does not match" in capsys.readouterr().err
        assert not (rec / "metrics.txt").exists()

    def test_explicit_m_and_lambda_grid(self, tmp_path):
        capture = _simulate(tmp_path)
        out = tmp_path / "rec2"
        code = main(
            ["recover", "--input", str(capture), "--P", "6", "--M", "14",
             "--lambda", "1", "--method", "both",
             "--p-inflation", "0",
             "--lambda-grid", "0.55:1.45:0.01", "--output-dir", str(out)]
        )
        assert code == 0
        metrics = (out / "metrics.txt").read_text()
        assert "lambda_opt" in metrics

    def test_lambda_grid_skips_thresholds_that_overflow(self, tmp_path):
        # T*Omega*e = 0.984: the unfolding overflows up to lambda = 1.45, to
        # NaN at 0.05, and the search returns the least finite score
        out = tmp_path / "sim"
        assert main(["simulate", "--tau", "1", "--K", "1024", "--P", "59", "--lambda", "1",
                     "--amplitude", "3", "--seed", "0", "--output-dir", str(out)]) == 0
        rec = tmp_path / "rec"
        assert main(["recover", "--input", str(out / "capture.csv"), "--P", "59",
                     "--lambda", "1", "--method", "usf", "--lambda-grid", "0.05:3:0.05",
                     "--p-inflation", "0", "--output-dir", str(rec)]) == 0
        metrics = dict(line.split(" = ", 1)
                       for line in (rec / "metrics.txt").read_text().splitlines())
        assert metrics["lambda_opt"] == "2.25"
        assert math.isfinite(float(metrics["MSE_USopt"]))
        assert "USopt_error" not in metrics

    def test_default_p_inflation_logged(self, tmp_path):
        # captures default to +20% bandwidth headroom, echoed in the metrics
        capture = _simulate(tmp_path)
        out = tmp_path / "rec3"
        assert main(
            ["recover", "--input", str(capture), "--P", "6",
             "--output-dir", str(out)]
        ) == 0
        metrics = (out / "metrics.txt").read_text()
        assert "P_used = 8" in metrics

    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
    def test_bad_p_inflation_is_config_error(self, tmp_path, capsys, value):
        # inf was an uncaught OverflowError, exit 1
        capture = _simulate(tmp_path)
        code = main(
            ["recover", "--input", str(capture), "--P", "6", "--p-inflation", value,
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert f"--p-inflation must be finite and >= 0, got {float(value)!r}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["-1", "-5"])
    def test_negative_p_is_config_error(self, tmp_path, capsys, value):
        # was "P_used must be nonnegative" of the inflated value, -6 for -5
        capture = _simulate(tmp_path)
        for inflation in (["--p-inflation", "0"], []):
            code = main(
                ["recover", "--input", str(capture), "--P", value, *inflation,
                 "--output-dir", str(tmp_path / "o")]
            )
            assert code == 2
            assert f"--P must be >= 0, got {value}" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_lambda_is_config_error(self, tmp_path, capsys, value):
        # nan was "cannot convert float NaN to integer" and -1 "beta must be
        # >= threshold"; under the default --p-inflation the baseline's rate
        # bound failed first and nan exited 0
        capture = _simulate(tmp_path)
        for inflation in (["--p-inflation", "0"], []):
            code = main(
                ["recover", "--input", str(capture), "--P", "6", *inflation,
                 "--method", "both", "--lambda", value, "--output-dir", str(tmp_path / "o")]
            )
            assert code == 2
            assert f"threshold must be finite and positive, got {float(value)!r}" in (
                capsys.readouterr().err
            )
            assert not (tmp_path / "o").exists()

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(
            ["recover", "--input", str(tmp_path / "nope.csv"), "--P", "3",
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 4

    def test_malformed_capture_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,modulo\n0.0,1.0\nnot,numbers\n")
        code = main(
            ["recover", "--input", str(bad), "--P", "3",
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 4

    def test_capture_that_is_not_utf8_is_io_error(self, tmp_path, capsys):
        capture = tmp_path / "c.csv"
        capture.write_bytes(b"# note \xb5s\ntime,modulo\n0,1\n0.1,2\n")
        code = main(["recover", "--input", str(capture), "--P", "1", "--M", "0",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 4
        assert "line 1: byte 0xb5 is not UTF-8 text" in capsys.readouterr().err

    def test_non_finite_capture_is_io_error(self, tmp_path, capsys):
        capture = _simulate(tmp_path)
        lines = capture.read_text().splitlines()
        row = len(lines) - 5
        cells = lines[row].split(",")
        lines[row] = ",".join(cells[:2] + ["nan"])
        capture.write_text("\n".join(lines) + "\n")
        code = main(
            ["recover", "--input", str(capture), "--P", "6",
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 4
        assert f"line {row + 1}: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("K", [255, 256, 1024])
    def test_fold_free_capture_with_m_recovers(self, tmp_path, K):
        # with no folds the out-of-band bins are rounding noise of the whole
        # DFT, and their asymmetry is as large as they are
        out = tmp_path / "sim"
        assert main(["simulate", "--tau", "1", "--K", str(K), "--P", "4", "--lambda", "100",
                     "--amplitude", "4", "--seed", "3", "--output-dir", str(out)]) == 0
        assert "# folds = 0\n" in (out / "capture.csv").read_text()
        for M in (1, 2, 5, 20):
            rec = tmp_path / f"rec{M}"
            assert main(["recover", "--input", str(out / "capture.csv"), "--P", "4",
                         "--M", str(M), "--output-dir", str(rec)]) == 0
            metrics = dict(
                line.split(" = ", 1) for line in (rec / "metrics.txt").read_text().splitlines()
            )
            assert float(metrics["MSE_FD"]) <= 1e-25

    def test_constant_capture_recovers_with_both_methods(self, tmp_path):
        # P = 0 samples are constant: DR_y = 0 leaves DR_ratio empty, and
        # the baseline takes order 1 without a log of T*Omega*e = 0
        assert main(["simulate", "--tau", "1", "--K", "64", "--P", "0", "--lambda", "1",
                     "--amplitude", "0.5", "--seed", "1",
                     "--output-dir", str(tmp_path / "p0")]) == 0
        rec = tmp_path / "rec"
        assert main(["recover", "--input", str(tmp_path / "p0" / "capture.csv"),
                     "--P", "0", "--lambda", "1", "--method", "both",
                     "--output-dir", str(rec)]) == 0
        lines = (rec / "metrics.txt").read_text().splitlines()
        assert "DR_y = 0.0" in lines and "DR_ratio = " in lines
        assert "MSE_FD = 0.0" in lines and "MSE_US = 0.0" in lines

    def test_impossible_m_is_recovery_failure(self, tmp_path):
        capture = _simulate(tmp_path)
        code = main(
            ["recover", "--input", str(capture), "--P", "6", "--M", "200",
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 3

    def test_bad_lambda_grid_is_config_error(self, tmp_path):
        capture = _simulate(tmp_path)
        code = main(
            ["recover", "--input", str(capture), "--P", "6", "--lambda", "1",
             "--method", "usf", "--lambda-grid", "nonsense",
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["0.5:1.5:nan", "0.5:inf:0.1", "nan:1.5:0.1"])
    def test_non_finite_lambda_grid_fails_before_reading(self, tmp_path, capsys, grid):
        # the capture does not exist: reading it would exit 4
        out = tmp_path / "o"
        code = main(
            ["recover", "--input", str(tmp_path / "missing.csv"), "--P", "6",
             "--lambda", "1", "--method", "both", "--lambda-grid", grid,
             "--output-dir", str(out)]
        )
        assert code == 2
        assert "lambda_grid must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_grid_under_fp_is_config_error(self, tmp_path, capsys):
        capture = _simulate(tmp_path)
        out = tmp_path / "o"
        code = main(
            ["recover", "--input", str(capture), "--P", "6", "--lambda", "1",
             "--method", "fp", "--lambda-grid", "0.55:1.45:0.01",
             "--output-dir", str(out)]
        )
        assert code == 2
        assert "needs method 'usf' or 'both'" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_grid_without_truth_column_is_config_error(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(
            ["simulate", "--tau", "1", "--K", "256", "--P", "3", "--lambda", "1",
             "--seed", "3", "--output-dir", str(sim)]
        ) == 0
        capture = harness.load_capture(sim / "capture.csv")
        bare = tmp_path / "bare.csv"
        harness.write_capture(bare, capture.time, capture.modulo,
                              metadata={"tau": 1.0, "folds": capture.metadata["folds"]})
        out = tmp_path / "rec"
        capsys.readouterr()
        code = main(
            ["recover", "--input", str(bare), "--P", "3", "--lambda", "1",
             "--method", "both", "--lambda-grid", "0.55:1.45:0.01",
             "--output-dir", str(out)]
        )
        assert code == 2
        assert "capture has no truth column" in capsys.readouterr().err
        assert not out.exists()

    def test_usf_without_threshold_is_config_error(self, tmp_path):
        capture = _simulate(tmp_path)
        code = main(
            ["recover", "--input", str(capture), "--P", "6",
             "--method", "usf", "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "K,P,amplitude,seed",
        [("512", "4", "4", "3"), ("256", "2", "3", "28")],  # mean -1.3: off 0 by > lambda
    )
    def test_baseline_bound_without_truth_column(
        self, tmp_path, capsys, K, P, amplitude, seed
    ):
        # |y| <= lambda, so the folded samples cannot bound max|gamma|; with
        # --method both the bound comes from the Fourier estimate
        sim = tmp_path / "sim"
        assert main(
            ["simulate", "--tau", "1", "--K", K, "--P", P, "--lambda", "1",
             "--amplitude", amplitude, "--seed", seed, "--output-dir", str(sim)]
        ) == 0
        capture = harness.load_capture(sim / "capture.csv")
        bare = tmp_path / "bare.csv"
        harness.write_capture(bare, capture.time, capture.modulo,
                              metadata={"tau": 1.0})
        folds = capture.metadata["folds"]
        out = tmp_path / "rec"
        assert main(
            ["recover", "--input", str(bare), "--P", P, "--M", folds,
             "--lambda", "1", "--method", "both", "--p-inflation", "0",
             "--output-dir", str(out)]
        ) == 0
        assert "US_error" not in (out / "metrics.txt").read_text()
        table = np.genfromtxt(out / "reconstruction.csv", delimiter=",", names=True)
        for column in ("gamma_fd", "gamma_us"):
            err = table[column] - capture.ground_truth
            assert np.max(np.abs(err - np.mean(err))) < 1e-9
        capsys.readouterr()
        code = main(
            ["recover", "--input", str(bare), "--P", P, "--M", folds,
             "--lambda", "1", "--method", "usf", "--p-inflation", "0",
             "--output-dir", str(tmp_path / "usf")]
        )
        assert code == 2
        assert "max-norm bound beta" in capsys.readouterr().err

    def test_failure_leaves_no_partial_outputs(self, tmp_path):
        capture = _simulate(tmp_path)
        out = tmp_path / "o"
        assert main(
            ["recover", "--input", str(capture), "--P", "6", "--M", "200",
             "--output-dir", str(out)]
        ) == 3
        assert not (out / "metrics.txt").exists()

    def test_failure_keeps_an_earlier_runs_outputs(self, tmp_path):
        capture = _simulate(tmp_path)
        out = tmp_path / "rec"
        assert main(["recover", "--input", str(capture), "--P", "6",
                     "--output-dir", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {"metrics.txt", "reconstruction.csv", "spectrum.csv"}
        assert main(["recover", "--input", str(capture), "--P", "6", "--M", "200",
                     "--output-dir", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestSweep:
    def test_k_sweep(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--tau", "1.0", "--K", "96", "--P", "4", "--lambda", "1",
             "--amplitude", "4", "--seed", "3", "--axis", "K",
             "--values", "64,96,128", "--output-dir", str(out)]
        )
        assert code == 0
        text = (out / "sweep.csv").read_text()
        assert text.startswith("axis,value,error")
        assert "sweep.csv" in capsys.readouterr().out

    def test_unknown_axis_is_config_error(self, tmp_path):
        code = main(
            ["sweep", "--tau", "1.0", "--K", "96", "--P", "4", "--lambda", "1",
             "--axis", "bogus", "--values", "1,2",
             "--output-dir", str(tmp_path / "sw")]
        )
        assert code == 2

    def test_grid_step_is_not_an_axis(self, tmp_path, capsys):
        # the source fixes T = tau/K; sweep K or tau instead
        code = main(
            ["sweep", "--tau", "1.0", "--K", "96", "--P", "4", "--lambda", "1",
             "--axis", "T", "--values", "0.01,0.02",
             "--output-dir", str(tmp_path / "sw")]
        )
        assert code == 2
        assert "'T' is not a sweep axis" in capsys.readouterr().err

    def test_zero_k_is_config_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--tau", "1.0", "--K", "96", "--P", "4", "--lambda", "1",
             "--axis", "K", "--values", "0,64",
             "--output-dir", str(tmp_path / "sw")]
        )
        assert code == 2
        assert "K must be positive" in capsys.readouterr().err

    def test_bad_value_anywhere_runs_nothing(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--tau", "1.0", "--K", "96", "--P", "4", "--lambda", "1",
             "--axis", "K", "--values", "64,0", "--output-dir", str(out)]
        )
        assert code == 2
        assert "K must be positive" in capsys.readouterr().err
        assert not (out / "K_64").exists() and not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("values", ["64,064,64", "64,064"])
    def test_values_that_repeat_once_cast_are_config_error(self, tmp_path, capsys, values):
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--tau", "1", "--K", "96", "--P", "4", "--lambda", "1",
             "--amplitude", "4", "--axis", "K", "--values", values, "--output-dir", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"axis 'K' repeats a value once cast: {values.replace(',', ', ')}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis", ["lambda_grid", "source", "output_dir", "method", "capture_path"]
    )
    def test_non_numeric_field_is_not_an_axis(self, tmp_path, capsys, axis):
        code = main(
            ["sweep", "--tau", "1.0", "--K", "96", "--P", "4", "--lambda", "1",
             "--method", "both", "--axis", axis, "--values", "1",
             "--output-dir", str(tmp_path / "sw")]
        )
        assert code == 2
        assert f"{axis!r} is not a sweep axis" in capsys.readouterr().err

    def test_value_of_the_wrong_type_names_the_axis(self, tmp_path, capsys):
        code = main(
            ["sweep", "--tau", "1.0", "--K", "96", "--P", "4", "--lambda", "1",
             "--axis", "K", "--values", "64,1.5", "--output-dir", str(tmp_path / "sw")]
        )
        assert code == 2
        assert "axis 'K' takes int values, got '1.5'" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_non_finite_value_is_config_error_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--tau", "1", "--K", "96", "--P", "4", "--lambda", "1",
             "--amplitude", "4", "--axis", "amplitude", "--values", "nan,4",
             "--output-dir", str(out)]
        )
        assert code == 2
        assert "amplitude must be finite and positive, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["M", "P_used", "P"])
    def test_negative_count_fails_before_any_run(self, tmp_path, capsys, axis):
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--tau", "1", "--K", "64", "--P", "3", "--lambda", "1",
             "--axis", axis, "--values", "3,-1", "--output-dir", str(out)]
        )
        assert code == 2
        assert f"{axis} must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_p_flag_fails_before_any_run(self, tmp_path, capsys):
        # was exit 0, "(1 failures)", with the error recorded in its row
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--tau", "1", "--K", "64", "--P", "-2", "--lambda", "1",
             "--axis", "K", "--values", "64", "--output-dir", str(out)]
        )
        assert code == 2
        assert "P must be nonnegative, got -2" in capsys.readouterr().err
        assert not out.exists()

    def test_bits_out_of_range_fails_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--tau", "1", "--K", "96", "--P", "4", "--lambda", "1",
             "--axis", "bits", "--values", "8,2000", "--output-dir", str(out)]
        )
        assert code == 2
        assert "bits must lie in [1, 53], got 2000" in capsys.readouterr().err
        assert not out.exists()

    def test_all_failing_sweep_writes_its_table(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--tau", "1", "--K", "96", "--P", "4", "--lambda", "1",
             "--amplitude", "4", "--axis", "K", "--values", "10,12",
             "--output-dir", str(out)]
        )
        assert code == 0
        assert "(2 failures)" in capsys.readouterr().out
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [row["value"] for row in rows] == ["10.0", "12.0"]
        assert all("below the recovery bound" in row["error"] for row in rows)

    def test_threshold_axis_moves_both_thresholds(self, tmp_path):
        # the baseline unfolds at the source's threshold
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--tau", "1", "--K", "256", "--P", "4", "--lambda", "1",
             "--amplitude", "4", "--method", "both", "--axis", "threshold",
             "--values", "0.8,1.0,1.2", "--output-dir", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 3
        for row in rows:
            assert row["config.source.threshold"] == row["value"]
            assert row["error"] == "" and row.get("US_error", "") == ""
            assert float(row["MSE_US"]) <= 1e-10


class TestNonidealityFlags:
    def test_simulate_with_perturbations(self, tmp_path):
        path = _simulate(
            tmp_path,
            extra=["--delay-max", "2", "--jitter", "0.2",
                   "--spurious-rate", "1.0", "--spurious-amp", "1.0"],
        )
        assert path.exists()

    @pytest.mark.parametrize(
        "flags,field",
        [
            # was an uncaught OverflowError, exit 1
            (["--spurious-rate", "1", "--spurious-amp", "nan"], "spurious_amp_max"),
            (["--spurious-rate", "1", "--spurious-amp", "inf"], "spurious_amp_max"),
            # was silently ignored: exit 0 and no spurious jumps
            (["--spurious-rate", "nan"], "spurious_rate"),
            (["--spurious-rate", "inf", "--spurious-amp", "1"], "spurious_rate"),
            # with no spurious rate no fold model was built: exit 0
            (["--spurious-amp", "nan"], "spurious_amp_max"),
        ],
    )
    def test_non_finite_perturbation_is_config_error(self, tmp_path, capsys, flags, field):
        code = main(["simulate", "--tau", "1", "--K", "96", "--P", "4", "--lambda", "1",
                     *flags, "--output-dir", str(tmp_path / "sim")])
        assert code == 2
        assert f"{field} must be finite and >= 0" in capsys.readouterr().err

    def test_quantized_capture(self, tmp_path):
        path = _simulate(tmp_path, extra=["--bits", "8"])
        rows = [
            l for l in path.read_text().splitlines()
            if not l.startswith("#") and not l.startswith("time")
        ]
        q = 2.0 / 256
        modulo = np.array([float(r.split(",")[2]) for r in rows])
        frac = modulo / q - 0.5
        np.testing.assert_allclose(frac, np.round(frac), atol=1e-9)


class TestParserReuse:
    """main builds its parser once per process; calls that share it behave
    as calls that each build their own, also after a parse error."""

    def _run(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_shared_parser_matches_fresh_parsers(self, tmp_path, capsys):
        calls = [
            ["bounds", "--tau", "0.000996", "--P", "15", "--M", "7"],
            ["bounds", "--tau", "x", "--P", "15", "--M", "7"],  # argparse error
            ["bounds", "--tau", "0.000996", "--P", "15", "--M", "7"],
            ["recover", "--P", "3"],  # missing required flags
            ["simulate", "--tau", "1", "--K", "64", "--P", "2", "--lambda", "1",
             "--seed", "4", "--output-dir", str(tmp_path / "sim")],
            ["frobnicate"],
            ["recover", "--help"],
            ["sweep", "--tau", "1", "--K", "64", "--P", "2", "--lambda", "1",
             "--axis", "seed", "--values", "1,2", "--output-dir", str(tmp_path / "sweep")],
            ["bounds", "--tau", "0.000996", "--P", "15", "--M", "7"],
        ]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(self._run(argv, capsys))
        cli.build_parser.cache_clear()
        shared = [self._run(argv, capsys) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [r[0] for r in shared] == [0, ("exit", 2), 0, ("exit", 2), 0,
                                          ("exit", 2), ("exit", 0), 0, 0]
