"""Unit tests for the spectral module: the out-of-band bins of the real
half spectrum, the on-grid spike support, Toeplitz/annihilator machinery,
matrix pencil and amplitude fitting."""

import numpy as np
import pytest

from _reference import amplitudes_ls as reference_amplitudes_ls
from _reference import annihilator, build_toeplitz_tall, matrix_pencil
from modsample import (
    SampleVector,
    UndersampledError,
    UniformGrid,
    finite_difference,
    fit_spikes,
    fourier_prony_recover,
    sample,
    synthesize_random,
)
from modsample.harness import SyntheticSource, realized_fold_count, synthesize_measurement
from modsample.spectral import amplitudes_ls, grid_support, inband_support


def spike_spectrum(k_indices, amplitudes, L, P):
    """Out-of-band spectrum of grid-aligned spikes, with the true roots."""
    k = np.asarray(k_indices)
    c = np.asarray(amplitudes, dtype=float)
    xi = np.exp(-2j * np.pi * k / L)
    n = np.arange(P + 1, L - P)
    return (xi[None, :] ** n[:, None]) @ c, n, xi


def spike_half(k_indices, amplitudes, L):
    """Real half spectrum of grid-aligned spikes."""
    spikes = np.zeros(L)
    spikes[np.asarray(k_indices)] = amplitudes
    return np.fft.rfft(spikes)


class TestOutOfBandBins:
    def test_bandlimited_confinement(self):
        g = synthesize_random(P=3, tau=1.0, amplitude=2.0, seed=4)
        sv = sample(g, UniformGrid(T=1.0 / 32, K=32))
        half = np.fft.rfft(finite_difference(sv.values, 1, circular=True))
        assert np.max(np.abs(half[4:])) <= 1e-9 * np.max(np.abs(half))

    def test_single_spike_closed_form(self):
        L, k0, c = 32, 11, 1.7
        n = np.arange(L // 2 + 1)
        np.testing.assert_allclose(
            spike_half([k0], [c], L), c * np.exp(-2j * np.pi * n * k0 / L), atol=1e-12
        )

    @pytest.mark.parametrize("L", [64, 65])
    def test_support_from_the_half_matches_the_full_slice(self, L):
        # the half spectrum of the spikes, from the FFT or from the closed
        # form of the out-of-band bins, gives their support at either parity
        k, c = [5, 17, 30, 41], [1.0, -1.5, 0.3, 0.8]
        z, _, _ = spike_spectrum(k, c, L, 2)
        np.testing.assert_array_equal(grid_support(spike_half(k, c, L), L, 2, 4), k)
        np.testing.assert_array_equal(grid_support(
            np.concatenate((np.zeros(3), z[: L // 2 - 2])), L, 2, 4), k)


class TestToeplitz:
    def test_minimal_layout(self):
        a, b = 3.0 + 1j, -2.0
        # a 2M-sample block, relative lags (-1, 0), gives the M x (M+1) system
        T = build_toeplitz_tall(np.array([b, a]), 1)
        np.testing.assert_array_equal(T, np.array([[a, b]]))

    def test_constant_diagonals(self):
        z = np.arange(1.0, 5.0)  # lags -2..1 for M=2
        T = build_toeplitz_tall(z, 2)
        assert T.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert T[i, j] == z[i - j + 2]

    def test_tall_layout(self):
        z = np.arange(1.0, 9.0)
        T = build_toeplitz_tall(z, 2)
        assert T.shape == (6, 3)
        for i in range(6):
            for j in range(3):
                assert T[i, j] == z[i - j + 2]

    def test_length_checks(self):
        with pytest.raises(ValueError):
            build_toeplitz_tall(np.zeros(3), 2)
        with pytest.raises(ValueError):
            build_toeplitz_tall(np.zeros(4), 0)

    def test_rank_equals_spike_count(self):
        z, _, _ = spike_spectrum([5, 9, 20], [1.0, -2.0, 0.7], 64, 2)
        s = np.linalg.svd(build_toeplitz_tall(z, 3), compute_uv=False)
        assert s[3] / s[0] < 1e-9


class TestAnnihilator:
    def test_single_root(self):
        z, _, xi = spike_spectrum([24], [1.3], 32, 2)
        p, diag = annihilator(build_toeplitz_tall(z, 1))
        np.testing.assert_allclose(p[1], 1.0)
        # P(xi) = p[0] + p[1]*xi^{-1} = 0  =>  p[0] = -1/xi
        assert abs(p[0] + 1.0 / xi[0]) < 1e-10
        assert diag["residual"] < 1e-9

    def test_minus_j_root(self):
        z, _, xi = spike_spectrum([8], [2.0], 32, 3)  # xi = exp(-j*pi/2) = -j
        p, _ = annihilator(build_toeplitz_tall(z, 1))
        np.testing.assert_allclose(p, [-1j, 1.0], atol=1e-10)

    def test_two_roots_annihilated(self):
        z, _, xi = spike_spectrum([7, 19], [1.0, 1.0], 48, 2)
        p, _ = annihilator(build_toeplitz_tall(z, 2))
        for root in xi:
            # evaluate P(z) = sum_n p[n] z^{-n}
            val = sum(p[n] * root ** (-n) for n in range(3))
            assert abs(val) < 1e-8

    def test_scale_invariance(self):
        z, _, _ = spike_spectrum([7, 19], [1.0, -0.4], 48, 2)
        p1, _ = annihilator(build_toeplitz_tall(z, 2))
        p5, _ = annihilator(build_toeplitz_tall(5.0 * z, 2))
        np.testing.assert_allclose(p1, p5, atol=1e-10)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            annihilator(np.zeros((1, 3)))


class TestGridSupport:
    def test_planted_support(self):
        half = spike_half([5, 17, 30], [1.0, -1.5, 0.3], 64)
        np.testing.assert_array_equal(grid_support(half, 64, 2, 3), [5, 17, 30])

    def test_adjacent_spikes_at_the_sampling_bound(self):
        # L = 2(P+M+1) leaves L-2P-1 = 2M+1 bins: the width falls to M+1 taps
        L, P = 12, 3
        assert L - 2 * P - 1 == 5
        np.testing.assert_array_equal(
            grid_support(spike_half([7, 8], [0.8, -1.9], L), L, P, 2), [7, 8])


def fold_like_spikes(K, P, M, seed):
    """(half spectrum, k) of M spikes shaped like folds, two of them
    adjacent: each is 2 times 1 +- 0.2 with a random sign, over a random
    bandlimited part."""
    rng = np.random.default_rng(seed)
    k0 = int(rng.integers(K - 1))
    rest = rng.choice(np.setdiff1d(np.arange(K), [k0, k0 + 1]), size=M - 2, replace=False)
    k = np.sort(np.concatenate([[k0, k0 + 1], rest]))
    c = 2.0 * rng.uniform(0.8, 1.2, size=M) * rng.choice([-1.0, 1.0], size=M)
    return differenced_bins(k, c, K, P, seed), k


class TestInbandSupport:
    @pytest.mark.parametrize(
        "K, P, M",
        [(64, 3, 16), (65, 2, 16), (128, 5, 32), (72, 4, 12), (256, 10, 64), (1024, 10, 256)],
    )
    def test_planted_fold_like_spikes(self, K, P, M):
        # M = K/4 at small K, two spikes adjacent, 20 draws per shape
        for seed in range(20):
            bins, k = fold_like_spikes(K, P, M, seed)
            np.testing.assert_array_equal(inband_support(high_pass(bins, K, P), P, M), k)

    def test_planted_support_over_a_large_grid(self):
        bins, k, _ = planted(8192, 20, 16, seed=3, adjacent=True)
        np.testing.assert_array_equal(inband_support(high_pass(bins, 8192, 20), 20, 16), k)

    def test_a_wrong_l1_support_fails_the_fit(self):
        # spikes of small amplitude defeat the l1 fit here; the amplitude
        # fit on its support then misses the bins by far more than rounding
        bins, k, _ = planted(64, 3, 16, seed=9)
        h = high_pass(bins, 64, 3)
        support = inband_support(h, 3, 16)
        assert not np.array_equal(support, k)
        _, residual, _ = amplitudes_ls(h, 3, support)
        assert residual > 1e-3 * np.linalg.norm(bins[4:])

    def test_no_out_of_band_energy_gives_zero_spikes(self):
        # with h = 0 every support fits with zero amplitudes
        bins = np.zeros(33, dtype=complex)
        bins[:3] = [1.0, 2.0 - 1.0j, 0.5j]
        h = high_pass(bins, 64, 2)
        assert not h.any()
        support = inband_support(h, 2, 4)
        assert len(support) == 4
        c, residual, _ = amplitudes_ls(h, 2, support)
        assert residual == 0.0 and not c.any()


def _spike_recovery(k_indices, amplitudes, L, T):
    """Recovery report for modulo-free samples whose residue jumps by
    `amplitudes` right after the samples `k_indices` (the last jump closes
    the period, so the differenced residue has exactly these spikes)."""
    rbar = np.zeros(L)
    rbar[k_indices] = amplitudes
    residue = np.concatenate([[0.0], np.cumsum(rbar)[:-1]])
    y = SampleVector(values=-residue, grid=UniformGrid(T=T, K=L))
    return fourier_prony_recover(y, 0, len(k_indices))


class TestRootsAndInstants:
    """The recovered spikes as grid indices: `support` sorted, `amplitudes`
    in the same order. Index k has the root exp(-2j pi k / L) and the
    instant k * T."""

    def test_direct_inversion(self):
        report = _spike_recovery([5, 70], [1.0, -1.0], 100, 1e-3)
        np.testing.assert_array_equal(report.support, [5, 70])
        np.testing.assert_allclose(report.amplitudes, [1.0, -1.0], atol=1e-12)

    def test_minus_j_quarter_period(self):
        # a spike a quarter of the L*T span in has root xi = -j = e^{-j*pi/2}
        L, T = 64, 0.5
        report = _spike_recovery([16, 40], [2.0, -2.0], L, T)
        assert report.support[0] == L // 4
        np.testing.assert_allclose(report.amplitudes, [2.0, -2.0], atol=1e-12)

    def test_conjugate_pair_sorted(self):
        # indices k and L - k have conjugate roots
        report = _spike_recovery([54, 10], [1.5, -1.5], 64, 1.0)
        np.testing.assert_array_equal(report.support, [10, 54])
        np.testing.assert_allclose(report.amplitudes, [-1.5, 1.5], atol=1e-9)


class TestMatrixPencil:
    def test_single_exponential(self):
        z, _, xi = spike_spectrum([13], [0.9], 40, 3)
        roots = matrix_pencil(z, 1)
        assert abs(roots[0] - xi[0]) < 1e-9

    def test_agrees_with_annihilator(self):
        z, _, xi = spike_spectrum([5, 17, 30], [1.0, -1.5, 0.3], 64, 2)
        p, _ = annihilator(build_toeplitz_tall(z, 3))
        a = np.roots(p)
        b = matrix_pencil(z, 3)
        cross = np.abs(a[:, None] - b[None, :])
        assert np.max(np.min(cross, axis=1)) < 1e-8

    def test_q_bounds(self):
        z, _, _ = spike_spectrum([5, 17], [1.0, 1.0], 32, 2)
        with pytest.raises(ValueError):
            matrix_pencil(z, 2, Q=1)
        with pytest.raises(UndersampledError):
            matrix_pencil(z[:3], 2)


def differenced_bins(k, c, K, P, seed=0):
    """Real half spectrum (bins 0..K//2) of differenced samples whose spike
    part is the amplitudes c at grid indices k: a random real bandlimited
    part on the bins [0, P] and [K-P, K), minus the spike spectrum."""
    rng = np.random.default_rng(seed)
    spikes = np.zeros(K)
    spikes[np.asarray(k)] = c
    in_band = np.zeros(K // 2 + 1, dtype=complex)
    in_band[: P + 1] = rng.normal(size=P + 1) + 1j * rng.normal(size=P + 1)
    in_band[0] = in_band[0].real
    return np.fft.rfft(np.fft.irfft(in_band, n=K) * K - spikes)


def high_pass(bins, K, P):
    """The K high-pass samples of the real half spectrum `bins`: its inverse
    FFT with the bins 0..P zeroed, as fit_spikes builds them."""
    high = np.array(bins, dtype=complex)
    high[: P + 1] = 0.0
    return np.fft.irfft(high, n=K)


def out_of_band(bins, K, P):
    """The out-of-band bins P+1..K-P-1 of the full K-point DFT whose real
    half is `bins`."""
    return np.fft.fft(np.fft.irfft(bins, n=K))[P + 1 : K - P]


def oracle_fit(bins, K, P, k):
    """The Vandermonde fit over the out-of-band bins n <= K/2."""
    return reference_amplitudes_ls(-bins[P + 1 :], np.arange(P + 1, K // 2 + 1), k, K)


def planted(K, P, M, seed, adjacent=False):
    """(half spectrum, k, c) of M random spikes; with `adjacent`, two of them sit
    on neighbouring grid indices."""
    rng = np.random.default_rng(seed)
    if adjacent:  # M-1 even indices, and the odd one after the first
        k = np.sort(rng.choice(np.arange(0, K - 1, 2), size=M - 1, replace=False))
        k = np.sort(np.append(k, k[0] + 1))
    else:
        k = np.sort(rng.choice(K, size=M, replace=False))
    c = rng.uniform(-2.0, 2.0, size=M)
    return differenced_bins(k, c, K, P, seed), k, c


class TestAmplitudesLs:
    def test_single_amplitude(self):
        bins = differenced_bins([21], [2.0], 100, 2)
        c, residual, _ = amplitudes_ls(high_pass(bins, 100, 2), 2, [21])
        assert c[0] == pytest.approx(2.0, abs=1e-10)
        assert residual < 1e-9

    def test_two_spikes(self):
        bins = differenced_bins([6, 25], [1.25, -0.75], 64, 2)
        c, _, _ = amplitudes_ls(high_pass(bins, 64, 2), 2, [6, 25])
        np.testing.assert_allclose(c, [1.25, -0.75], atol=1e-9)

    def test_planted_amplitudes_at_large_L(self):
        # 16 spikes on an 8192-point grid, fitted over every out-of-band bin
        L, P, M = 8192, 20, 16
        rng = np.random.default_rng(5)
        k = np.sort(rng.choice(L, size=M, replace=False))
        c_true = rng.uniform(-2.0, 2.0, size=M)
        c, _, _ = amplitudes_ls(high_pass(differenced_bins(k, c_true, L, P), L, P), P, k)
        assert np.max(np.abs(c - c_true)) <= 1e-14 * np.max(np.abs(c_true))

    @pytest.mark.parametrize("L", [64, 65])
    def test_matches_half_band_and_full_band_oracle(self, L):
        # a real spike train has bin L-n equal to the conjugate of bin n, so
        # the Vandermonde fits over the out-of-band bins n <= L/2 (at even L
        # the Nyquist bin is one of them) and over the whole band agree
        # with the time-domain fit
        P, M = 3, 9
        rng = np.random.default_rng(L)
        k = np.sort(rng.choice(L, size=M, replace=False))
        c_true = rng.uniform(-2.0, 2.0, size=M)
        bins = differenced_bins(k, c_true, L, P)
        z, n = out_of_band(bins, L, P), np.arange(P + 1, L - P)
        half = n <= L // 2
        assert (2 * n[half][-1] == L) == (L % 2 == 0)
        c, _, _ = amplitudes_ls(high_pass(bins, L, P), P, k)
        c_full, _ = reference_amplitudes_ls(-z, n, k, L)
        c_half, _ = reference_amplitudes_ls(-z[half], n[half], k, L)
        assert np.max(np.abs(c_half - c)) <= 1e-12 * np.max(np.abs(c_true))
        assert np.max(np.abs(c_full - c)) <= 1e-12 * np.max(np.abs(c_true))

    def test_noise_stability(self):
        bins = differenced_bins([6, 25], [1.25, -0.75], 64, 2)
        noise = np.fft.rfft(np.random.default_rng(0).normal(size=64)) * 1e-6
        c0, _, _ = amplitudes_ls(high_pass(bins, 64, 2), 2, [6, 25])
        c1, _, _ = amplitudes_ls(high_pass(bins + noise, 64, 2), 2, [6, 25])
        assert np.max(np.abs(c1 - c0)) < 1e-3  # O(eps) with factor < 1e3

    def test_overfit_spike_has_tiny_amplitude(self):
        # asking the grid support for M+1 spikes on M-spike data picks the
        # true indices plus one more, whose amplitude fits to nearly zero
        bins = differenced_bins([6, 25], [1.25, -0.75], 64, 2)
        k = grid_support(bins, 64, 2, 3)
        assert {6, 25} < set(k.tolist())
        c, _, _ = amplitudes_ls(high_pass(bins, 64, 2), 2, k)
        spurious = c[~np.isin(k, [6, 25])]
        assert len(spurious) == 1 and abs(spurious[0]) < 1e-8

    @pytest.mark.parametrize(
        "K, P, M, adjacent",
        [
            (64, 3, 9, False),  # Nyquist bin present
            (65, 3, 9, False),  # no Nyquist bin
            (48, 0, 11, False),
            (49, 0, 11, True),
            (72, 4, 12, True),
            (1024, 10, 256, False),  # M = K/4, the true support given
            (2048, 10, 512, False),  # M = K/4
            (1024, 5, 256, True),  # dense, with adjacent spikes
            (8192, 20, 16, False),
        ],
    )
    def test_agrees_with_oracle_on_planted_spikes(self, K, P, M, adjacent):
        bins, k, c_true = planted(K, P, M, seed=K + M, adjacent=adjacent)
        c, residual, _ = amplitudes_ls(high_pass(bins, K, P), P, k)
        c_ref, residual_ref = oracle_fit(bins, K, P, k)
        scale = np.max(np.abs(c_true))
        assert np.max(np.abs(c - c_ref)) <= 1e-12 * scale
        assert np.max(np.abs(c - c_true)) <= 1e-12 * scale
        z = out_of_band(bins, K, P)
        assert abs(residual - residual_ref) <= 1e-12 * np.linalg.norm(z)

    @pytest.mark.parametrize("K", [65, 257])
    def test_residual_matches_oracle_on_a_wrong_support(self, K):
        # without a Nyquist bin both fits solve the same least-squares
        # problem, so they agree to rounding also where it has no exact fit
        bins, k, _ = planted(K, 4, 12, seed=K)
        c, residual, r = amplitudes_ls(high_pass(bins, K, 4), 4, k[:-1])
        c_ref, residual_ref = oracle_fit(bins, K, 4, k[:-1])
        z = out_of_band(bins, K, 4)
        assert residual > 1e-3 * np.linalg.norm(z)  # a misfit far above rounding
        assert abs(residual - residual_ref) <= 1e-12 * np.linalg.norm(z)
        assert np.max(np.abs(c - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))
        # the misfit r is -c on the support, and its out-of-band bins off
        # the support are the residual
        np.testing.assert_array_equal(r[k[:-1]], -c)
        r[k[:-1]] = 0.0
        assert residual == np.linalg.norm(np.fft.rfft(r)[5:])

    @pytest.mark.parametrize(
        "K, P, seed",
        [(256, 2, 0), (512, 4, 1), (512, 6, 2), (1024, 5, 3), (2048, 8, 4), (1001, 5, 5)],
    )
    def test_agrees_with_oracle_on_8bit_captures(self, K, P, seed):
        # the time-domain fit weights the Nyquist bin once against twice for
        # every other out-of-band bin, where the half-band fit weights all
        # alike: at even K the two differ at noise level, and the half-band
        # fit has the smaller half-band residual, which it minimizes
        src = SyntheticSource(P=P, tau=1.0, K=K, amplitude=4.0, seed=seed,
                              threshold=1.0, bits=8)
        _, y, spec = synthesize_measurement(src)
        bins = np.fft.rfft(finite_difference(y.values, 1, circular=True))
        k = np.flatnonzero(finite_difference(spec.values(), 1, circular=True))
        assert len(k) == realized_fold_count(spec, src.grid)
        c, residual, _ = amplitudes_ls(high_pass(bins, K, P), P, k)
        c_ref, residual_ref = oracle_fit(bins, K, P, k)
        if K % 2:
            assert np.max(np.abs(c - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))
            assert residual == pytest.approx(residual_ref, rel=1e-12)
        else:
            assert np.max(np.abs(c - c_ref)) <= 1e-3 * np.max(np.abs(c_ref))
            assert residual_ref * (1 - 1e-12) <= residual <= residual_ref * 1.001

    def test_singular_gram_raises_value_error(self):
        # a repeated index leaves the amplitude fit no unique solution, and
        # the low-pass fit off the support would not see it, so it is checked
        # for; LinAlgError is a ValueError
        bins = differenced_bins([6, 25], [1.25, -0.75], 64, 2)
        with pytest.raises(np.linalg.LinAlgError) as err:
            amplitudes_ls(high_pass(bins, 64, 2), 2, [6, 6])
        assert isinstance(err.value, ValueError)
        # one index repeated inside a dense support, M = K/4
        bins, k, _ = planted(1024, 10, 256, seed=1280)
        k[101] = k[100]
        with pytest.raises(np.linalg.LinAlgError):
            amplitudes_ls(high_pass(bins, 1024, 10), 10, k)


class TestFitSpikes:
    """fit_spikes owns the spike stage's setting: P and M nonnegative
    integers, one-dimensional samples, K >= 2(P+M+1) and finite samples,
    with M = 0 the fit of no spikes."""

    def test_no_spikes_leave_the_out_of_band_bins_as_residual(self):
        values = np.random.default_rng(0).normal(size=64)
        k, c, residual, estimator = fit_spikes(values, 2, 0)
        assert k.dtype == np.intp and k.size == 0 and c.size == 0
        bins = np.fft.fft(finite_difference(values, 1, circular=True))
        assert residual == np.linalg.norm(bins[3:33]) and isinstance(residual, float)
        assert estimator is None

    @pytest.mark.parametrize("K, P, M", [(64, 2, 30), (64, 31, 1), (5, 2, 0), (63, 31, 0),
                                         (32, 14, 2)])
    def test_below_the_recovery_bound(self, K, P, M):
        # K = 2P+1 is one sample short of the bound even with no spikes; at
        # K = 32, P = 14 the 3 out-of-band bins are too few for 2 spikes
        with pytest.raises(UndersampledError, match="below the recovery bound"):
            fit_spikes(np.zeros(K), P, M)

    def test_negative_counts_are_value_errors(self):
        values = np.zeros(64)
        with pytest.raises(ValueError, match="M must be nonnegative"):
            fit_spikes(values, 2, -1)
        with pytest.raises(ValueError, match="P must be nonnegative"):
            fit_spikes(values, -1, 2)

    @pytest.mark.parametrize("P, M, name", [(2.0, 3, "P"), (2, 3.0, "M"), ("2", 3, "P"),
                                            (2, None, "M")])
    def test_non_integer_counts_are_value_errors(self, P, M, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            fit_spikes(np.zeros(64), P, M)

    def test_numpy_integer_counts_pass(self):
        values = np.random.default_rng(1).normal(size=64)
        k, c, residual, estimator = fit_spikes(values, np.int64(2), np.int32(3))
        k2, c2, residual2, estimator2 = fit_spikes(values, 2, 3)
        np.testing.assert_array_equal(k, k2)
        assert c.tobytes() == c2.tobytes() and residual == residual2
        assert estimator == estimator2 == "inband_l1"

    @pytest.mark.parametrize("shape", [(8, 8), (2, 64), ()])
    def test_samples_must_be_one_dimensional(self, shape):
        with pytest.raises(ValueError, match=r"values must be one-dimensional, got shape"):
            fit_spikes(np.zeros(shape), 2, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("M", [0, 1, 4])
    def test_non_finite_samples_raise_before_any_fft(self, bad, M, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("no FFT may run on non-finite samples")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        values = np.linspace(-1.0, 1.0, 64)
        values[17] = bad
        with pytest.raises(np.linalg.LinAlgError, match="NaN or inf"):
            fit_spikes(values, 3, M)

    def test_the_setting_is_checked_before_the_samples(self):
        with pytest.raises(UndersampledError):
            fit_spikes(np.full(8, np.nan), 2, 4)
