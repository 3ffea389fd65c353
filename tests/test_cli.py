"""CLI tests: subcommand wiring, flag handling and exit codes
(0 success, 2 argument/config, 3 recovery failure, 4 I/O)."""

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


class TestSimulate:
    def test_writes_capture(self, tmp_path):
        path = _simulate(tmp_path)
        assert path.exists()
        header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
        assert header == "time,truth,modulo"

    def test_grid_underspecified(self, tmp_path):
        code = main(
            ["simulate", "--tau", "1.0", "--P", "3", "--lambda", "1",
             "--output-dir", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "grid,message",
        [
            (["--tau", "1", "--K", "0"], "--K must be positive"),
            (["--tau", "1", "--T", "0"], "--T must be positive"),
            (["--tau", "-1", "--K", "8"], "--tau must be positive"),
        ],
    )
    def test_non_positive_grid_is_config_error(self, tmp_path, capsys, grid, message):
        code = main(
            ["simulate", *grid, "--P", "3", "--lambda", "1",
             "--output-dir", str(tmp_path)]
        )
        assert code == 2
        assert message in capsys.readouterr().err


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

    def test_negative_p_inflation_is_config_error(self, tmp_path, capsys):
        capture = _simulate(tmp_path)
        code = main(
            ["recover", "--input", str(capture), "--P", "6", "--p-inflation", "-0.5",
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert "p_inflation must be nonnegative" in capsys.readouterr().err

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
        assert "unknown config field 'T'" in capsys.readouterr().err

    def test_zero_k_is_config_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--tau", "1.0", "--K", "96", "--P", "4", "--lambda", "1",
             "--axis", "K", "--values", "0,64",
             "--output-dir", str(tmp_path / "sw")]
        )
        assert code == 2
        assert "K must be positive" in capsys.readouterr().err


class TestNonidealityFlags:
    def test_simulate_with_perturbations(self, tmp_path):
        path = _simulate(
            tmp_path,
            extra=["--delay-max", "2", "--jitter", "0.2",
                   "--spurious-rate", "1.0", "--spurious-amp", "1.0"],
        )
        assert path.exists()

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
