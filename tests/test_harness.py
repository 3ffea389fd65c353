"""Unit tests for the experiment harness: capture I/O, orchestration,
metrics emission and parameter sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from modsample import (
    CaptureFormatError,
    NonIdealityConfig,
    UniformGrid,
    finite_difference,
    fourier_prony_recover,
    round_beta,
    usf_recover,
)
from modsample.harness import (
    CaptureFile,
    ExperimentConfig,
    SyntheticSource,
    load_capture,
    realized_fold_count,
    run_experiment,
    sweep,
    synthesize_measurement,
    write_capture,
)


def _write(tmp_path, text, name="capture.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


THREE_COL = """\
# tau = 0.4
time,truth,modulo
0.0,1.0,0.2
0.1,2.0,0.4
0.2,3.0,0.6
0.3,4.0,0.8
"""


class TestLoadCapture:
    def test_three_columns(self, tmp_path):
        cap = load_capture(_write(tmp_path, THREE_COL))
        assert cap.K == 4
        assert cap.T == pytest.approx(0.1)
        np.testing.assert_allclose(cap.ground_truth, [1, 2, 3, 4])
        np.testing.assert_allclose(cap.modulo, [0.2, 0.4, 0.6, 0.8])
        assert cap.metadata["tau"] == "0.4"

    def test_two_columns(self, tmp_path):
        cap = load_capture(_write(tmp_path, "time,modulo\n0.0,1.0\n0.5,2.0\n"))
        assert cap.ground_truth is None
        assert cap.T == pytest.approx(0.5)

    def test_jittered_timestamps_rejected(self, tmp_path):
        path = _write(tmp_path, "time,modulo\n0.0,1.0\n0.1,2.0\n0.2002,3.0\n")
        with pytest.raises(CaptureFormatError):
            load_capture(path)

    def test_bad_header_reports_line(self, tmp_path):
        path = _write(tmp_path, "# note\nt,y\n0.0,1.0\n")
        with pytest.raises(CaptureFormatError) as err:
            load_capture(path)
        assert err.value.line == 2

    def test_bad_cell_reports_line(self, tmp_path):
        path = _write(tmp_path, "time,modulo\n0.0,1.0\n0.1,oops\n")
        with pytest.raises(CaptureFormatError) as err:
            load_capture(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = _write(tmp_path, f"time,modulo\n0.0,1.0\n0.1,{cell}\n0.2,0.5\n")
        with pytest.raises(CaptureFormatError) as err:
            load_capture(path)
        assert err.value.line == 3

    def _assert_bad_metadata(self, tmp_path, key, value):
        text = f"# note\n# {key} = {value}\ntime,modulo\n0.0,1.0\n0.1,2.0\n"
        with pytest.raises(CaptureFormatError) as err:
            load_capture(_write(tmp_path, text))
        assert err.value.line == 2
        assert str(err.value).startswith(f"line 2: {key} must be")

    @pytest.mark.parametrize("value", ["oops", "nan", "inf", "0", "-0.4"])
    def test_bad_tau_reports_line(self, tmp_path, value):
        self._assert_bad_metadata(tmp_path, "tau", value)

    @pytest.mark.parametrize("value", ["abc", "nan", "-inf"])
    def test_bad_dc_offset_reports_line(self, tmp_path, value):
        self._assert_bad_metadata(tmp_path, "dc_offset", value)

    @pytest.mark.parametrize("value", ["2.5", "-1", "many", "1e3"])
    def test_bad_folds_reports_line(self, tmp_path, value):
        self._assert_bad_metadata(tmp_path, "folds", value)

    def test_valid_metadata_kept_as_text(self, tmp_path):
        text = "# tau = 2e-1\n# dc_offset = -0.5\n# folds = 0\ntime,modulo\n0.0,1.0\n0.1,2.0\n"
        cap = load_capture(_write(tmp_path, text))
        assert cap.metadata["tau"] == "2e-1" and cap.metadata["folds"] == "0"
        np.testing.assert_allclose(cap.modulo, [1.5, 2.5])

    def test_dc_offset_subtracted(self, tmp_path):
        text = "# dc_offset = 0.5\ntime,modulo\n0.0,1.0\n0.1,2.0\n"
        cap = load_capture(_write(tmp_path, text))
        np.testing.assert_allclose(cap.modulo, [0.5, 1.5])

    def test_needs_rows(self, tmp_path):
        with pytest.raises(CaptureFormatError):
            load_capture(_write(tmp_path, "time,modulo\n0.0,1.0\n"))

    def test_round_trip(self, tmp_path):
        time = np.arange(5) * 0.25
        modulo = np.array([0.1, -0.2, 0.3, -0.4, 0.5])
        truth = modulo + 2.0
        path = tmp_path / "rt.csv"
        write_capture(path, time, modulo, truth=truth, metadata={"tau": repr(1.25)})
        cap = load_capture(path)
        np.testing.assert_array_equal(cap.time, time)
        np.testing.assert_array_equal(cap.modulo, modulo)
        np.testing.assert_array_equal(cap.ground_truth, truth)


class TestSynthesizeMeasurement:
    def _source(self, **kwargs):
        defaults = dict(P=3, tau=1.0, K=64, amplitude=4.0, seed=8, threshold=1.0)
        defaults.update(kwargs)
        return SyntheticSource(**defaults)

    def test_source_owns_the_grid(self):
        assert self._source(tau=2.0).grid == UniformGrid(T=2.0 / 64, K=64)
        for K in (0, -3):
            with pytest.raises(ValueError, match="K must be positive"):
                self._source(K=K)

    def test_ideal_decomposition(self):
        gamma, y, spec = synthesize_measurement(self._source())
        assert gamma.grid == y.grid == self._source().grid
        r = spec.values()
        np.testing.assert_allclose(gamma.values - r, y.values, atol=1e-12)
        assert np.all(np.abs(y.values) <= 1.0)

    def test_quantization_applied(self):
        _, y, _ = synthesize_measurement(self._source(bits=8))
        q = 2.0 / 256
        np.testing.assert_allclose(
            (y.values / q - 0.5) - np.round(y.values / q - 0.5),
            np.zeros(64),
            atol=1e-9,
        )

    def test_nonideality_deterministic(self):
        src = self._source(
            nonideality=NonIdealityConfig(delay_max_samples=2, threshold_jitter=0.2)
        )
        a = synthesize_measurement(src)
        b = synthesize_measurement(src)
        np.testing.assert_array_equal(a[1].values, b[1].values)
        np.testing.assert_array_equal(a[2].k, b[2].k)
        np.testing.assert_array_equal(a[2].c, b[2].c)

    def test_realized_fold_count_counts_wrap(self):
        from modsample.folding import ResidueSpec

        grid = UniformGrid(T=0.1, K=10)
        # one jump that never returns: circular differencing adds the wrap
        spec = ResidueSpec(k=[3], c=[2.0], K=10, tau=1.0)
        assert realized_fold_count(spec, grid) == 2

    def test_realized_fold_count_rejects_other_grid(self):
        from modsample.folding import ResidueSpec

        spec = ResidueSpec(k=[3], c=[2.0], K=10, tau=1.0)
        with pytest.raises(ValueError, match="K=10"):
            realized_fold_count(spec, UniformGrid(T=0.1, K=12))


class TestExperimentConfig:
    _SRC = SyntheticSource(P=1, tau=1.0, K=10, amplitude=1.0, seed=0, threshold=1.0)

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            ExperimentConfig()
        with pytest.raises(ValueError):
            ExperimentConfig(source=self._SRC, capture_path="x.csv")

    def test_method_and_p_inflation_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(source=self._SRC, method="bogus")
        for bad in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="p_inflation must be nonnegative"):
                ExperimentConfig(source=self._SRC, p_inflation=bad)


def _synthetic_config(tmp_path=None, **kwargs):
    src = SyntheticSource(P=4, tau=1.0, K=96, amplitude=4.0, seed=3, threshold=1.0)
    defaults = dict(
        method="both",
        source=src,
        threshold=1.0,
        output_dir=str(tmp_path) if tmp_path else None,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def _read_table(path):
    """{column: cell texts} of a written table; '#' lines are skipped."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(lines[0].split(","))}


def _assert_cells_equal(cells, values):
    """Every cell parses to the float64 of `values`, bit for bit."""
    parsed = np.array([float(c) for c in cells])
    assert parsed.tobytes() == np.asarray(values, dtype=float).tobytes()


class TestRunExperiment:
    def test_metrics_and_files(self, tmp_path):
        metrics = run_experiment(_synthetic_config(tmp_path))
        for key in ("tau", "T", "K", "P_used", "M", "T_FD", "T_US", "K_min",
                    "DR_y", "DR_gamma", "DR_ratio", "MSE_FD", "MSE_US"):
            assert key in metrics, key
        assert float(metrics["MSE_FD"]) < 1e-10
        assert float(metrics["MSE_US"]) < 1e-10
        for name in ("metrics.txt", "reconstruction.csv", "spectrum.csv"):
            assert (tmp_path / name).exists()

    def test_metrics_echo_full_config(self, tmp_path):
        metrics = run_experiment(_synthetic_config(tmp_path))
        config_keys = [k for k in metrics if k.startswith("config.")]
        for field in ("config.method", "config.source.P", "config.source.K",
                      "config.source.seed", "config.p_inflation"):
            assert field in config_keys, field
        # the grid is the source's: echoed once, as resolved
        assert "config.T" not in metrics and "config.K" not in metrics
        assert (metrics["T"], metrics["K"]) == (1.0 / 96, 96)

    def test_deterministic_outputs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_experiment(_synthetic_config(a_dir))
        run_experiment(_synthetic_config(b_dir))
        for name in ("reconstruction.csv", "spectrum.csv"):
            a = (a_dir / name).read_bytes()
            b = (b_dir / name).read_bytes()
            assert a == b, f"{name} not reproducible"
        # metrics echo the output dir, which differs by construction
        a_text = (a_dir / "metrics.txt").read_text().replace(str(a_dir), "")
        b_text = (b_dir / "metrics.txt").read_text().replace(str(b_dir), "")
        assert a_text == b_text

    def test_large_scale_with_quantization(self):
        # P=37, K=455 with an amplitude giving exactly 20 realized folds
        src = SyntheticSource(
            P=37, tau=1.0, K=455, amplitude=1.6, seed=0, threshold=1.0, bits=8
        )
        metrics = run_experiment(ExperimentConfig(method="fp", source=src))
        assert int(metrics["M"]) == 20
        assert float(metrics["MSE_FD"]) < 1e-3
        # same configuration without quantization is exact
        cfg_clean = ExperimentConfig(method="fp", source=replace(src, bits=None))
        assert float(run_experiment(cfg_clean)["MSE_FD"]) < 1e-10

    def test_capture_without_truth(self, tmp_path):
        src = _synthetic_config().source
        _, y, spec = synthesize_measurement(src)
        path = tmp_path / "cap.csv"
        write_capture(path, src.grid.times, y.values, metadata={"tau": repr(1.0)})
        M = realized_fold_count(spec, src.grid)
        cfg = ExperimentConfig(
            method="fp", capture_path=str(path), P_used=4, M=M,
            output_dir=str(tmp_path / "out"),
        )
        metrics = run_experiment(cfg)
        assert "MSE_FD" not in metrics
        assert "DR_ratio" not in metrics
        assert "DR_y" in metrics
        # with no truth to match, the zero-mean estimate is written as is
        recon = _read_table(tmp_path / "out" / "reconstruction.csv")
        _assert_cells_equal(recon["gamma_fd"], fourier_prony_recover(y, 4, M).gamma_hat.values)

    def test_capture_fixes_grid_and_m(self, tmp_path):
        path = _write(tmp_path, "# folds = 0\n" + THREE_COL)
        metrics = run_experiment(
            ExperimentConfig(method="fp", capture_path=str(path), P_used=0)
        )
        assert (metrics["T"], metrics["K"], metrics["M"]) == (0.1, 4, 0)
        # the config is echoed as given
        assert metrics["config.M"] is None

    def test_capture_requires_m_and_p(self, tmp_path):
        path = _write(tmp_path, THREE_COL)
        with pytest.raises(ValueError, match="M is required"):
            run_experiment(ExperimentConfig(method="fp", capture_path=str(path), P_used=1))
        with pytest.raises(ValueError, match="P_used is required"):
            run_experiment(ExperimentConfig(method="fp", capture_path=str(path), M=0))

    @pytest.mark.parametrize("method", ["fp", "both"])
    def test_tables_hold_the_recovery_arrays(self, tmp_path, method):
        cfg = _synthetic_config(tmp_path, method=method)
        run_experiment(cfg)
        src = cfg.source
        grid = src.grid
        gamma, y, spec = synthesize_measurement(src)
        fp = fourier_prony_recover(y, src.P, realized_fold_count(spec, grid))
        # the written estimates are the zero-mean ones shifted to the truth's mean
        mean = np.mean(gamma.values)
        recon = _read_table(tmp_path / "reconstruction.csv")
        assert list(recon) == ["k", "t", "y", "gamma_true", "gamma_fd",
                               "gamma_us", "residue_fd", "residue_us"]
        k = np.arange(grid.K)
        expected = {"k": k, "t": k * grid.T, "y": y.values, "gamma_true": gamma.values,
                    "gamma_fd": fp.gamma_hat.values + mean,
                    "residue_fd": fp.residue_hat.values}
        if method == "fp":
            assert set(recon["gamma_us"]) == set(recon["residue_us"]) == {""}
        else:
            us = usf_recover(
                y, src.threshold, 2 * np.pi * src.P / src.tau,
                round_beta(float(np.max(np.abs(gamma.values))), src.threshold),
            )
            expected.update(gamma_us=us.gamma_hat.values + mean,
                            residue_us=us.residue_hat.values)
        for name, values in expected.items():
            _assert_cells_equal(recon[name], values)

        spectrum = _read_table(tmp_path / "spectrum.csv")
        assert list(spectrum) == ["n", "abs_ybar_dft", "abs_residue_model_dft"]
        spikes = np.zeros(grid.K)
        spikes[fp.support] = fp.amplitudes
        ybar = finite_difference(y.values, 1, circular=True)
        _assert_cells_equal(spectrum["n"], k)
        _assert_cells_equal(spectrum["abs_ybar_dft"], [abs(b) for b in np.fft.fft(ybar)])
        _assert_cells_equal(
            spectrum["abs_residue_model_dft"], [abs(b) for b in np.fft.fft(spikes)]
        )

    def test_lambda_grid_reports_optimum(self, tmp_path):
        cfg = _synthetic_config(tmp_path, lambda_grid=(0.55, 1.45, 0.01))
        metrics = run_experiment(cfg)
        assert abs(float(metrics["lambda_opt"]) - 1.0) <= 0.01 + 1e-12
        assert float(metrics["MSE_USopt"]) < 1e-10

    def test_failure_removes_partial_outputs(self, tmp_path):
        cfg = _synthetic_config(tmp_path, method="usf", threshold=None)
        with pytest.raises(ValueError):
            run_experiment(cfg)
        assert not (tmp_path / "metrics.txt").exists()
        assert not (tmp_path / "reconstruction.csv").exists()


class TestSweep:
    def test_empty_values(self, tmp_path):
        rows = sweep(_synthetic_config(), "K", [], output_dir=str(tmp_path))
        assert rows == []
        header = (tmp_path / "sweep.csv").read_text().splitlines()
        assert header[0].startswith("axis,value,error")

    def test_k_sweep_sorted_with_failures_recorded(self, tmp_path):
        cfg = _synthetic_config(method="fp")
        rows = sweep(cfg, "K", ["128", "24", "96"], output_dir=str(tmp_path))
        assert [row["value"] for row in rows] == [24.0, 96.0, 128.0]
        # K=24 is below the recovery bound for this signal: failure in-row
        assert rows[0]["error"] != ""
        assert rows[1]["error"] == "" and rows[2]["error"] == ""
        assert float(rows[2]["MSE_FD"]) < 1e-10
        assert (tmp_path / "sweep.csv").exists()

    def test_source_axis(self):
        rows = sweep(_synthetic_config(method="fp"), "seed", [1, 2])
        assert len(rows) == 2
        assert all(row["error"] == "" for row in rows)

    def test_tau_axis_keeps_the_grid_on_one_period(self):
        rows = sweep(_synthetic_config(method="fp"), "tau", [1.0, 2.0])
        assert [row["error"] for row in rows] == ["", ""]
        assert [row["T"] for row in rows] == [1.0 / 96, 2.0 / 96]

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(_synthetic_config(), "nonsense", [1.0])
