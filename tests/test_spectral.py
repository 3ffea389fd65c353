"""Unit tests for the spectral module: band partitioning, the on-grid spike
support, Toeplitz/annihilator machinery, matrix pencil and amplitude
fitting."""

import numpy as np
import pytest

from _reference import annihilator, build_toeplitz_tall, matrix_pencil
from modsample import (
    SampleVector,
    UndersampledError,
    UniformGrid,
    amplitudes_ls,
    band_partition,
    extract_out_of_band,
    finite_difference,
    fourier_prony_recover,
    grid_support,
    sample,
    synthesize_random,
)


def spike_spectrum(k_indices, amplitudes, L, P):
    """Out-of-band spectrum of grid-aligned spikes, with the true roots."""
    k = np.asarray(k_indices)
    c = np.asarray(amplitudes, dtype=float)
    xi = np.exp(-2j * np.pi * k / L)
    n = np.arange(P + 1, L - P)
    return (xi[None, :] ** n[:, None]) @ c, n, xi


class TestBandPartition:
    def test_example(self):
        in_band, out_band = band_partition(10, 2)
        np.testing.assert_array_equal(in_band, [0, 1, 2, 8, 9])
        np.testing.assert_array_equal(out_band, [3, 4, 5, 6, 7])

    def test_single_out_bin(self):
        _, out_band = band_partition(8, 3)  # L = 2P+2
        assert len(out_band) == 1

    def test_reflection_closure(self):
        L = 12
        in_band, _ = band_partition(L, 3)
        reflected = np.sort((L - in_band) % L)
        np.testing.assert_array_equal(np.sort(in_band), reflected)

    def test_too_small(self):
        with pytest.raises(UndersampledError):
            band_partition(7, 3)
        with pytest.raises(ValueError):
            band_partition(10, -1)


class TestExtractOutOfBand:
    def test_bandlimited_confinement(self):
        g = synthesize_random(P=3, tau=1.0, amplitude=2.0, seed=4)
        sv = sample(g, UniformGrid(T=1.0 / 32, K=32))
        bins = np.fft.fft(finite_difference(sv.values, 1, circular=True))
        z, _ = extract_out_of_band(bins, 3)
        assert np.max(np.abs(z)) <= 1e-9 * np.max(np.abs(bins))

    def test_single_spike_closed_form(self):
        L, P, k0, c = 32, 2, 11, 1.7
        spike = np.zeros(L)
        spike[k0] = c
        z, n = extract_out_of_band(np.fft.fft(spike), P)
        np.testing.assert_allclose(
            z, c * np.exp(-2j * np.pi * n * k0 / L), atol=1e-12
        )

    def test_p_zero(self):
        bins = np.fft.fft(np.arange(5.0))
        z, n = extract_out_of_band(bins, 0)
        np.testing.assert_array_equal(n, [1, 2, 3, 4])
        np.testing.assert_allclose(z, bins[1:])


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
        z, _, _ = spike_spectrum([5, 17, 30], [1.0, -1.5, 0.3], 64, 2)
        np.testing.assert_array_equal(grid_support(z, 64, 3), [5, 17, 30])

    def test_adjacent_spikes_at_the_sampling_bound(self):
        # L = 2(P+M+1) leaves len(z) = 2M+1 bins: the width falls to M+1 taps
        L, P = 12, 3
        z, _, _ = spike_spectrum([7, 8], [0.8, -1.9], L, P)
        assert len(z) == 5
        np.testing.assert_array_equal(grid_support(z, L, 2), [7, 8])

    def test_too_few_bins(self):
        z, _, _ = spike_spectrum([5, 17], [1.0, 1.0], 32, 2)
        with pytest.raises(UndersampledError):
            grid_support(z[:4], 32, 2)


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

    def test_too_few_taps(self):
        # M = 0 leaves a Hankel matrix with no noise subspace to search
        z, _, _ = spike_spectrum([3], [1.0], 8, 1)
        with pytest.raises(ValueError):
            grid_support(z, 8, 0)


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


class TestAmplitudesLs:
    def test_single_amplitude(self):
        n = np.arange(3, 20)
        xi = np.exp(-2j * np.pi * 21 / 100)
        c, residual = amplitudes_ls(2.0 * xi**n, n, [21], 100)
        assert c[0] == pytest.approx(2.0, abs=1e-10)
        assert residual < 1e-9

    def test_two_spikes(self):
        z, n, _ = spike_spectrum([6, 25], [1.25, -0.75], 64, 2)
        c, _ = amplitudes_ls(z, n, [6, 25], 64)
        np.testing.assert_allclose(c, [1.25, -0.75], atol=1e-9)

    def test_planted_amplitudes_at_large_L(self):
        # 16 spikes on an 8192-point grid, fitted over every out-of-band bin:
        # a power xi^n of a rounded root loses accuracy as n grows, while a
        # root-of-unity table entry is exact to rounding at any n
        L, P, M = 8192, 20, 16
        rng = np.random.default_rng(5)
        k = np.sort(rng.choice(L, size=M, replace=False))
        c_true = rng.uniform(-2.0, 2.0, size=M)
        spikes = np.zeros(L)
        spikes[k] = c_true
        z, n = extract_out_of_band(np.fft.fft(spikes), P)
        c, _ = amplitudes_ls(z, n, k, L)
        assert np.max(np.abs(c - c_true)) <= 1e-14 * np.max(np.abs(c_true))

    @pytest.mark.parametrize("L", [64, 65])
    def test_half_band_matches_full_band(self, L):
        # a real spike train has bin L-n equal to the conjugate of bin n, so
        # the out-of-band bins n <= L/2 (at even L the Nyquist bin is one of
        # them) fit the same amplitudes as the whole band
        P, M = 3, 9
        rng = np.random.default_rng(L)
        k = np.sort(rng.choice(L, size=M, replace=False))
        c_true = rng.uniform(-2.0, 2.0, size=M)
        spikes = np.zeros(L)
        spikes[k] = c_true
        z, n = extract_out_of_band(np.fft.fft(spikes), P)
        half = n <= L // 2
        assert (2 * n[half][-1] == L) == (L % 2 == 0)
        c_full, _ = amplitudes_ls(z, n, k, L)
        c_half, _ = amplitudes_ls(z[half], n[half], k, L)
        assert np.max(np.abs(c_half - c_full)) <= 1e-12 * np.max(np.abs(c_true))

    def test_noise_stability(self):
        z, n, _ = spike_spectrum([6, 25], [1.25, -0.75], 64, 2)
        noise = np.random.default_rng(0).normal(size=len(z)) * 1e-6
        c0, _ = amplitudes_ls(z, n, [6, 25], 64)
        c1, _ = amplitudes_ls(z + noise, n, [6, 25], 64)
        assert np.max(np.abs(c1 - c0)) < 1e-3  # O(eps) with factor < 1e3

    def test_overfit_spike_has_tiny_amplitude(self):
        # asking the grid support for M+1 spikes on M-spike data picks the
        # true indices plus one more, whose amplitude fits to nearly zero
        z, n, _ = spike_spectrum([6, 25], [1.25, -0.75], 64, 2)
        k = grid_support(z, 64, 3)
        assert {6, 25} < set(k.tolist())
        c, _ = amplitudes_ls(z, n, k, 64)
        spurious = c[~np.isin(k, [6, 25])]
        assert len(spurious) == 1 and abs(spurious[0]) < 1e-8
