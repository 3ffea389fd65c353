"""Unit tests for end-to-end recovery: Fourier-domain unfolding, the
higher-order-difference baseline, threshold optimization, sampling bounds
and error metrics."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference
from _reference import annihilator, build_toeplitz_tall, matrix_pencil
from _trials import dense_capture, dense_draws, fixpoint_trial, ideal_trials, nonideal_trials

from modsample import spectral
from modsample import (
    FoldConsistencyError,
    ModsampleError,
    OversamplingInsufficientError,
    RecoveryError,
    SampleVector,
    UndersampledError,
    UniformGrid,
    anti_difference,
    apply_residue,
    calibrated_mse,
    dynamic_range,
    finite_difference,
    fold_ideal,
    fourier_prony_recover,
    mse,
    optimize_lambda,
    quantize,
    round_beta,
    sample,
    sampling_bounds,
    synthesize_random,
    usf_recover,
)
from modsample.folding import ResidueSpec
from modsample.harness import SyntheticSource, realized_fold_count, synthesize_measurement


def _sv(values):
    values = np.asarray(values, dtype=float)
    return SampleVector(values=values, grid=UniformGrid(T=1.0, K=len(values)))


class TestSamplingBounds:
    @pytest.mark.parametrize(
        "tau,P,M,expected",
        [
            (0.996e-3, 15, 7, 21.652e-6),
            (199e-3, 14, 26, 2426.8e-6),
            (24.99e-3, 3, 44, 260.31e-6),
        ],
    )
    def test_published_fourier_rates(self, tau, P, M, expected):
        T_fd, _, _ = sampling_bounds(tau, P, M)
        assert T_fd == pytest.approx(expected, rel=1e-3)

    def test_baseline_rate_and_count(self):
        tau, P, M = 1.0, 4, 3
        T_fd, T_us, K_min = sampling_bounds(tau, P, M)
        Omega = 2.0 * np.pi * P / tau
        assert T_us == pytest.approx(1.0 / (2.0 * Omega * np.e))
        assert K_min == 2 * (P + M + 1)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            sampling_bounds(0.0, 1, 1)
        with pytest.raises(ValueError):
            sampling_bounds(1.0, -1, 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="tau must be finite and positive"):
                sampling_bounds(bad, 1, 1)
        # P = 0 has no bandwidth, so no baseline rate bound
        assert sampling_bounds(1.0, 0, 3)[1:] == (np.inf, 8)


class TestMse:
    def test_examples(self):
        assert mse([1, 2], [1, 4]) == pytest.approx(2.0)
        assert mse([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])

    @given(
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, values, c):
        x = np.asarray(values)
        y = x[::-1].copy()
        assert mse(x + c, y + c) == pytest.approx(mse(x, y), rel=1e-9, abs=1e-9)

    def test_calibrated_kills_offset(self):
        x = np.array([1.0, 2.0, 3.0])
        assert calibrated_mse(x + 7.3, x) == pytest.approx(0.0, abs=1e-24)


class TestAntiDifference:
    def test_examples(self):
        np.testing.assert_allclose(anti_difference([2.0, -2.0]), [0.0, 2.0, 0.0])
        np.testing.assert_allclose(anti_difference(np.zeros(4)), np.zeros(5))

    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_inverts_difference(self, values):
        x = np.asarray(values)
        np.testing.assert_allclose(
            finite_difference(anti_difference(x), 1), x, atol=1e-9
        )


class TestFourierPronyRecover:
    def test_no_folds_returns_centered_input(self):
        g = synthesize_random(P=2, tau=1.0, amplitude=0.5, seed=6)
        y = sample(g, UniformGrid(T=1.0 / 16, K=16))
        report = fourier_prony_recover(y, 2, 0)
        np.testing.assert_allclose(
            report.gamma_hat.values, y.values - np.mean(y.values), atol=1e-12
        )
        assert report.support.size == report.amplitudes.size == 0
        # the fit of no spikes leaves the out-of-band bins as its misfit
        half = np.fft.fft(finite_difference(y.values, 1, circular=True))[:9]
        assert report.diagnostics == {
            "fit_residual": float(np.linalg.norm(half[3:])),
            "support_estimator": None,
        }

    @pytest.mark.parametrize("estimator", ["prony", "pencil"])
    def test_ideal_folds_exact(self, estimator):
        trial = fixpoint_trial(seed=17, P=5, amplitude=4.5)
        report = fourier_prony_recover(trial.y, trial.P, trial.M)
        err = calibrated_mse(report.gamma_hat.values, trial.gamma.values)
        assert err < 1e-12
        # the reference root estimators, run on the same out-of-band bins,
        # find the roots of the grid support
        ybar = finite_difference(trial.y.values, 1, circular=True)
        z = np.fft.fft(ybar)[trial.P + 1 : trial.grid.K - trial.P]
        if estimator == "prony":
            p, _ = annihilator(build_toeplitz_tall(z, trial.M))
            roots = np.roots(p)
        else:
            roots = matrix_pencil(z, trial.M)
        xi = np.exp(-2j * np.pi * report.support / trial.grid.K)
        cross = np.abs(xi[:, None] - roots[None, :])
        assert np.max(np.min(cross, axis=1)) < 1e-8

    def test_crowded_folds_exact(self):
        # 20 folds in 62 samples at the criterion-1 rate K = 2(P+M+1)+2;
        # rooting the M+1-tap annihilator returned MSE 31 here without error
        trial = fixpoint_trial(seed=[112, 8], P=9, amplitude=3.541627058382767)
        assert (trial.grid.K, trial.M) == (62, 20)
        report = fourier_prony_recover(trial.y, trial.P, trial.M)
        err = calibrated_mse(report.gamma_hat.values, trial.gamma.values)
        assert err <= 1e-10 * dynamic_range(trial.gamma) ** 2

    def test_threshold_agnostic(self):
        # identical code path regardless of the (unknown) folding threshold:
        # fold at 0.7 and recover without ever passing a threshold
        g = synthesize_random(P=3, tau=1.0, amplitude=3.0, seed=8)
        grid = UniformGrid(T=1.0 / 64, K=64)
        gamma = sample(g, grid)
        y, residue = fold_ideal(gamma, 0.7)
        from modsample import harness, residue_spec_from_samples

        spec = residue_spec_from_samples(residue, 1.0)
        M = harness.realized_fold_count(spec, grid)
        report = fourier_prony_recover(y, 3, M)
        assert calibrated_mse(report.gamma_hat.values, gamma.values) < 1e-12

    def test_nonideal_amplitudes_exact(self):
        (trial, spec2, y2, M2) = nonideal_trials(1, seed0=3)[0]
        report = fourier_prony_recover(y2, trial.P, M2)
        assert calibrated_mse(report.gamma_hat.values, trial.gamma.values) < 1e-10

    def test_report_consistency(self):
        # gamma_hat = y + residue_hat up to one constant, which makes it zero-mean
        trial = fixpoint_trial(seed=21, P=4, amplitude=5.0)
        report = fourier_prony_recover(trial.y, trial.P, trial.M)
        offset = report.gamma_hat.values - report.residue_hat.values - trial.y.values
        np.testing.assert_allclose(offset, offset[0], atol=1e-12)
        assert np.mean(report.gamma_hat.values) == pytest.approx(0.0, abs=1e-12)

    def test_undersampled_rejected(self):
        y = _sv(np.zeros(8))
        with pytest.raises(UndersampledError):
            fourier_prony_recover(y, 2, 4)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            fourier_prony_recover(_sv(np.zeros(8)), 1, -1)

    @pytest.mark.parametrize("M", [0, 2])
    def test_negative_p_is_a_value_error_not_a_recovery_failure(self, M):
        # RecoveryError is a RuntimeError, not a ValueError
        with pytest.raises(ValueError, match="P must be nonnegative"):
            fourier_prony_recover(_sv(np.zeros(16)), -1, M)

    def test_error_carries_step(self):
        trial = fixpoint_trial(seed=17, P=5, amplitude=4.5)
        values = trial.y.values.copy()
        values[3] = np.nan
        with pytest.raises(RecoveryError) as err:
            fourier_prony_recover(trial.y.with_values(values), trial.P, trial.M)
        assert err.value.step == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("M", [0, 1, 4])
    def test_non_finite_samples_fail_at_step_4_for_every_m(self, bad, M):
        # rejected before any FFT: no NaN estimate and no RuntimeWarning
        trial = fixpoint_trial(seed=17, P=5, amplitude=4.5)
        values = trial.y.values.copy()
        values[3] = bad
        with pytest.raises(RecoveryError, match="NaN or inf") as err:
            fourier_prony_recover(trial.y.with_values(values), trial.P, M)
        assert err.value.step == 4
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_singular_amplitude_system_carries_step_4(self, monkeypatch):
        # a support with a repeated index makes the amplitude system singular;
        # numpy's LinAlgError is a ValueError, reported as a recovery failure
        monkeypatch.setattr(
            spectral, "grid_support", lambda half, K, P, M: np.zeros(M, np.intp)
        )
        trial = fixpoint_trial(seed=17, P=5, amplitude=4.5)
        with pytest.raises(RecoveryError) as err:
            fourier_prony_recover(trial.y, trial.P, trial.M)
        assert err.value.step == 4
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def _raise(*args):
    raise AssertionError("this estimator must not run here")


def _counting(monkeypatch, name):
    """Wrap spectral.<name> so that the returned list counts its calls."""
    calls = []
    inner = getattr(spectral, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(spectral, name, wrapper)
    return calls


class TestSupportEstimators:
    """(K, P, M) name the one support estimator that runs: the in-band l1
    fit, with trimmed steps where it is not certified, where M >= 2 and
    the K-2P-1 out-of-band bins number more than 3M+1, and the grid
    everywhere else; diagnostics["support_estimator"] names it."""

    def _oversampled(self):
        # K = 4(P+M+1) leaves 117 out-of-band bins for 26 spikes
        trial = fixpoint_trial(seed=17, P=5, amplitude=4.5, k_factor=4, extra=0)
        assert (trial.grid.K, trial.M) == (128, 26)
        return trial

    def _assert_exact(self, report, trial):
        err = calibrated_mse(report.gamma_hat.values, trial.gamma.values)
        assert err <= 1e-10 * dynamic_range(trial.gamma) ** 2

    @pytest.mark.parametrize(
        "K, P, M, estimator",
        [
            (12, 2, 2, "grid"),  # K-2P-1 = 7 = 3M+1
            (13, 2, 2, "inband_l1"),  # 8 bins
            (20, 3, 4, "grid"),  # 13 = 3M+1
            (21, 3, 4, "inband_l1"),
            (1024, 10, 334, "grid"),  # 1003 = 3M+1
            (1024, 10, 333, "inband_l1"),
            (10, 3, 1, "grid"),  # M = 1 at the sampling bound
            (1024, 3, 1, "grid"),  # M = 1 with 1017 bins
            (64, 3, 0, None),
        ],
    )
    def test_one_estimator_named_by_the_setting(self, monkeypatch, K, P, M, estimator):
        l1_calls = _counting(monkeypatch, "inband_support")
        grid_calls = _counting(monkeypatch, "grid_support")
        values = np.random.default_rng(K + M).normal(size=K)
        assert spectral.fit_spikes(values, P, M)[3] == estimator
        calls = {"inband_l1": (1, 0), "grid": (0, 1), None: (0, 0)}[estimator]
        assert (len(l1_calls), len(grid_calls)) == calls

    def test_certified_l1_support_never_calls_the_grid(self, monkeypatch):
        monkeypatch.setattr(spectral, "grid_support", _raise)
        trial = self._oversampled()
        report = fourier_prony_recover(trial.y, trial.P, trial.M)
        assert report.diagnostics["support_estimator"] == "inband_l1"
        assert report.diagnostics["fit_residual"] <= 1e-9 * np.linalg.norm(
            np.fft.fft(finite_difference(trial.y.values, 1, circular=True))[trial.P + 1 :]
        )
        self._assert_exact(report, trial)

    def test_the_grid_runs_alone_at_width_M_plus_1(self, monkeypatch):
        # the criterion-1 rate K = 2(P+M+1)+2 leaves 2M+3 out-of-band bins
        monkeypatch.setattr(spectral, "inband_support", _raise)
        calls = _counting(monkeypatch, "grid_support")
        trials = ideal_trials(20, seed0=0)
        for trial in trials:
            report = fourier_prony_recover(trial.y, trial.P, trial.M)
            assert report.diagnostics["support_estimator"] == "grid"
            self._assert_exact(report, trial)
        assert len(calls) == len(trials)

    def test_8_bit_captures_recover_without_the_grid(self, monkeypatch):
        # criterion 7's family (K = 4(P+M+1)) and the 8-bit capture of the
        # README tour in CI: no fit is certified, and the l1 fit with its
        # trimmed steps stays within 100 q^2/12
        monkeypatch.setattr(spectral, "grid_support", _raise)
        trials = ideal_trials(50, seed0=5000, P_range=(2, 8), M_range=(1, 40),
                              amp_range=(5.0, 5.0), threshold=1.0, k_factor=4, extra=0)
        cases = [(tr.gamma, quantize(tr.y, 8, 1.0), tr.P, tr.M) for tr in trials]
        src = SyntheticSource(P=4, tau=1.0, K=512, amplitude=4.0, seed=4, threshold=1.0, bits=8)
        gamma, y, spec = synthesize_measurement(src)
        assert realized_fold_count(spec, src.grid) == 18
        cases.append((gamma, y, 4, 18))
        bound = 100.0 * (2.0 / 2**8) ** 2 / 12.0
        for gamma, y, P, M in cases:
            report = fourier_prony_recover(y, P, M)
            assert report.diagnostics["support_estimator"] == "inband_l1"
            assert calibrated_mse(report.gamma_hat.values, gamma.values) <= bound

    def test_trimmed_steps_never_raise_the_l1_residual(self, monkeypatch):
        # on uncertified 8-bit captures and on a dense draw whose l1 support
        # is wrong, the returned fit leaves at most the l1 support's residual
        l1_residuals = []
        inner = spectral.inband_support

        def recorded(h, P, M):
            k = inner(h, P, M)
            l1_residuals.append(spectral.amplitudes_ls(h, P, k)[1])
            return k

        monkeypatch.setattr(spectral, "inband_support", recorded)
        trials = ideal_trials(20, seed0=5000, P_range=(2, 8), M_range=(1, 40),
                              amp_range=(5.0, 5.0), threshold=1.0, k_factor=4, extra=0)
        cases = [(quantize(tr.y, 8, 1.0), tr.P, tr.M) for tr in trials]
        dense = dense_capture(synthesize_random(6, 1.0, 1.0, [1024, 310, 1, 7]), 1024, 310)
        cases.append((dense.y, 6, dense.M))
        residuals = [spectral.fit_spikes(y.values, P, M)[2] for y, P, M in cases]
        assert len(l1_residuals) == len(cases)
        assert all(r <= r1 for r, r1 in zip(residuals, l1_residuals))
        assert residuals[-1] < 1e-9 * l1_residuals[-1]

    @pytest.mark.parametrize("bits", [None, 12, 10])
    def test_trimmed_steps_repair_a_wrong_dense_l1_support(self, bits):
        # M = 310 folds in K = 1024 samples: the reweighting ends after its
        # 20 steps with 22 indices wrong, and recovery once returned MSE
        # 0.0755 DR^2 without error; two trimmed steps find the truth
        trial = dense_capture(synthesize_random(6, 1.0, 1.0, [1024, 310, 1, 7]), 1024, 310)
        assert trial.M == 310
        y = trial.y if bits is None else quantize(trial.y, bits, trial.threshold)
        report = fourier_prony_recover(y, 6, 310)
        truth = np.flatnonzero(finite_difference(trial.spec.values(), 1, circular=True))
        np.testing.assert_array_equal(report.support, truth)
        if bits is None:
            self._assert_exact(report, trial)

    def test_dense_draws_at_a_quarter_of_k(self):
        # criterion 10's draws at M_target = K/4, 8 per K: the grid once
        # found [2048, 512, 3] in about 1 s, one trimmed step finds it now
        start = time.time()
        exact = [
            key
            for K in (1024, 2048, 4096, 8192)
            for key, gamma, y, P, M in dense_draws(K, K // 4, 8)
            if calibrated_mse(fourier_prony_recover(y, P, M).gamma_hat.values, gamma.values)
            <= 1e-10 * dynamic_range(gamma) ** 2
        ]
        elapsed = time.time() - start
        assert len(exact) >= 30 and [2048, 512, 3] in exact, exact
        assert elapsed < 30.0

    def test_fit_spikes_is_the_reported_fit(self):
        # the l1 fit on the oversampled trial, the grid on criterion-1 trials
        for trial, estimator in [(self._oversampled(), "inband_l1")] + [
            (trial, "grid") for trial in ideal_trials(20, seed0=0)
        ]:
            k, c, residual, used = spectral.fit_spikes(trial.y.values, trial.P, trial.M)
            report = fourier_prony_recover(trial.y, trial.P, trial.M)
            assert used == report.diagnostics["support_estimator"] == estimator
            assert residual == report.diagnostics["fit_residual"]
            np.testing.assert_array_equal(k, report.support)
            assert c.tobytes() == report.amplitudes.tobytes()


class TestUsfRecover:
    def _oversampled(self, seed=9, P=2, amplitude=3.0, K=256):
        g = synthesize_random(P, 1.0, amplitude, seed)
        grid = UniformGrid(T=1.0 / K, K=K)
        gamma = sample(g, grid)
        y, _ = fold_ideal(gamma, 1.0)
        Omega = 2.0 * np.pi * P
        beta = round_beta(float(np.max(np.abs(gamma.values))), 1.0)
        return gamma, y, Omega, beta

    def test_no_folds_identity(self):
        g = synthesize_random(P=2, tau=1.0, amplitude=0.8, seed=1)
        grid = UniformGrid(T=1.0 / 128, K=128)
        gamma = sample(g, grid)
        report = usf_recover(gamma, 1.0, 2.0 * np.pi * 2, 2.0)
        assert calibrated_mse(report.gamma_hat.values, gamma.values) < 1e-20

    def test_ideal_folds_exact(self):
        gamma, y, Omega, beta = self._oversampled()
        report = usf_recover(y, 1.0, Omega, beta)
        assert calibrated_mse(report.gamma_hat.values, gamma.values) < 1e-20
        assert report.diagnostics["N"] >= 1
        # the same contract as the Fourier method: y + residue_hat, centred
        raw = y.values + report.residue_hat.values
        np.testing.assert_array_equal(report.gamma_hat.values, raw - np.mean(raw))

    def test_nonideal_folds_detected_or_wrong(self):
        gamma, y, Omega, beta = self._oversampled(seed=12, P=2, K=256)
        grid = y.grid
        # shift one residue jump off the 2*lambda lattice
        spec = ResidueSpec(k=[64], c=[1.1], K=grid.K, tau=1.0)
        y2 = apply_residue(gamma, spec)
        try:
            report = usf_recover(y2, 1.0, Omega, beta)
            assert calibrated_mse(report.gamma_hat.values, gamma.values) > 1e-3
        except ModsampleError:
            pass

    def test_order_rule_validation(self):
        _, y, Omega, _ = self._oversampled()
        with pytest.raises(ValueError, match="beta must be >= threshold"):
            usf_recover(y, 1.0, Omega, 0.5)
        with pytest.raises(OversamplingInsufficientError):
            usf_recover(y, 1.0, 1.0 / (y.grid.T * np.e), 4.0)


class TestOptimizeLambda:
    def _folded_at(self, lam_true, seed=5, P=2, K=256):
        g = synthesize_random(P, 1.0, 3.0, seed)
        grid = UniformGrid(T=1.0 / K, K=K)
        gamma = sample(g, grid)
        y, _ = fold_ideal(gamma, lam_true)
        return gamma, y, 2.0 * np.pi * P

    def test_recovers_true_threshold(self):
        gamma, y, Omega = self._folded_at(1.0)
        lam_opt, err = optimize_lambda(y, gamma, Omega, 0.55, 1.45, 0.01)
        assert abs(lam_opt - 1.0) <= 0.01 + 1e-12
        assert err < 1e-20

    def test_mse_is_the_baseline_at_the_optimum(self):
        gamma, y, Omega = self._folded_at(1.0)
        lam_opt, err = optimize_lambda(y, gamma, Omega, 0.55, 1.45, 0.01)
        lam_ref, report_ref = _reference.optimize_lambda(y, gamma, Omega, 0.55, 1.45, 0.01)
        assert lam_opt == lam_ref == report_ref.diagnostics["lambda_opt"]
        assert err == report_ref.diagnostics["lambda_opt_mse"] == calibrated_mse(
            report_ref.gamma_hat.values, gamma.values
        )

    def test_detects_miscalibrated_threshold(self):
        # hardware folded at 0.9 while the nominal threshold is 1.0
        gamma, y, Omega = self._folded_at(0.9)
        lam_opt, _ = optimize_lambda(y, gamma, Omega, 0.5, 1.5, 0.01)
        assert abs(lam_opt - 0.9) <= 0.01 + 1e-12

    def test_grid_validation(self):
        gamma, y, Omega = self._folded_at(1.0)
        with pytest.raises(ValueError):
            optimize_lambda(y, gamma, Omega, 0.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            optimize_lambda(y, gamma, Omega, 1.0, 0.5, 0.01)


class TestBackwardsCompatibility:
    def test_fourier_matches_baseline_on_ideal_data(self):
        g = synthesize_random(P=3, tau=1.0, amplitude=4.0, seed=2)
        K = 512
        grid = UniformGrid(T=1.0 / K, K=K)
        gamma = sample(g, grid)
        y, residue = fold_ideal(gamma, 1.0)
        from modsample import harness, residue_spec_from_samples

        spec = residue_spec_from_samples(residue, 1.0)
        M = harness.realized_fold_count(spec, grid)
        Omega = 2.0 * np.pi * 3
        beta = round_beta(float(np.max(np.abs(gamma.values))), 1.0)
        fp = fourier_prony_recover(y, 3, M)
        us = usf_recover(y, 1.0, Omega, beta)
        # both estimates are zero-mean, so they compare directly
        assert np.sqrt(mse(fp.gamma_hat.values, us.gamma_hat.values)) < 1e-8
