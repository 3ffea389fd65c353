"""The grid support, read from the real half spectrum, against the oracle
in `_reference`, read from the out-of-band slice of the full DFT: the same
support on spike spectra of every Hankel shape parity, on the trial
families of the acceptance criteria and on dense captures; the in-place
Hankel view, whose QR factor keeps the singular values and the noise
subspace of the Hankel matrix; and a refusal of a spectrum that is not
the half of a real one."""

import numpy as np
import pytest

import _reference
from _trials import dense_capture, ideal_trials, nonideal_trials
from modsample import (
    UndersampledError,
    finite_difference,
    grid_support,
    quantize,
    synthesize_random,
)
from modsample.spectral import _hankel, _width


def _spectra(x, P):
    """(bins 0..K//2, out-of-band bins P+1..K-P-1) of the DFT of the real
    samples x: what fourier_prony_recover and the oracle each read."""
    bins = np.fft.fft(x)
    return bins[: len(x) // 2 + 1], bins[P + 1 : len(x) - P]


def _spike_bins(rng, L, P, M):
    """The spectra of M real spikes on an L-point grid, two of them
    adjacent, and their sorted indices."""
    k0 = int(rng.integers(L - 1))
    rest = rng.choice(np.setdiff1d(np.arange(L), [k0, k0 + 1]), size=M - 2, replace=False)
    k = np.sort(np.concatenate([[k0, k0 + 1], rest]))
    spikes = np.zeros(L)
    spikes[k] = rng.uniform(0.5, 2.0, size=M) * rng.choice([-1.0, 1.0], size=M)
    return _spectra(spikes, P), k


def _bins(y, P):
    """The spectra of the differenced samples that fourier_prony_recover
    searches."""
    return _spectra(finite_difference(y.values, 1, circular=True), P)


def _assert_oracle_support(cases):
    for (half, z), L, P, M in cases:
        np.testing.assert_array_equal(grid_support(half, L, P, M),
                                      _reference.grid_support(z, L, M))


@pytest.mark.parametrize("L_even", [48, 72])
def test_same_support_as_the_oracle_for_every_shape(L_even):
    # len(z) = L - 2P - 1 runs from the sampling bound 2M+1 (Q = M+1) to
    # every bin but DC (Q = 2M); even and odd L give both parities of
    # len(z), so the rows R = len(z) - Q + 1 and Q take both parities
    rng = np.random.default_rng(L_even)
    parities = set()
    for L in (L_even, L_even + 1):
        for M in (3, 4, 7, 8, 11):
            for P in range(0, (L - 2 * M - 2) // 2 + 1):
                (half, z), k = _spike_bins(rng, L, P, M)
                Q = _width(len(z), M)
                parities.add(((len(z) - Q + 1) % 2, Q % 2))
                support = grid_support(half, L, P, M)
                np.testing.assert_array_equal(support, _reference.grid_support(z, L, M))
                np.testing.assert_array_equal(support, k)
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("Lz, M", [(9, 4), (10, 4), (11, 4), (12, 4), (13, 4), (20, 5),
                                   (21, 5), (40, 9), (41, 9), (64, 12), (65, 12)])
def test_singular_values_match_the_hankel_matrix(Lz, M):
    rng = np.random.default_rng(Lz * 100 + M)
    L = Lz + 7  # P = 3
    (_, z), _ = _spike_bins(rng, L, 3, M)
    z = z + 1e-3 * (rng.standard_normal(Lz) + 1j * rng.standard_normal(Lz))
    z = 0.5 * (z + z[::-1].conj())  # noisy but conjugate-symmetric: full rank
    Q = _width(Lz, M)
    H = _hankel(z, Q)
    dense = np.lib.stride_tricks.sliding_window_view(z, Q)
    np.testing.assert_array_equal(H, dense)
    assert np.shares_memory(H, z)
    # the QR factor that grid_support decomposes keeps the singular values
    # and the noise subspace of the Hankel matrix
    _, s_hankel, vh_hankel = np.linalg.svd(dense)
    _, s_r, vh_r = np.linalg.svd(np.linalg.qr(H, mode="r"))
    np.testing.assert_allclose(s_r, s_hankel, rtol=0, atol=1e-12 * s_hankel[0])
    noise_hankel = vh_hankel[M:].conj().T @ vh_hankel[M:]
    noise_r = vh_r[M:].conj().T @ vh_r[M:]
    np.testing.assert_allclose(noise_r, noise_hankel, rtol=0, atol=1e-8)


def test_a_spectrum_that_is_not_a_real_half_is_refused():
    half, _ = _spectra(np.arange(16.0), 3)
    for bad in (np.fft.fft(np.arange(16.0)), half[:-1]):  # the full DFT; one bin short
        with pytest.raises(ValueError, match="real 16-point spectrum has 9 bins"):
            grid_support(bad, 16, 3, 2)
    with pytest.raises(ValueError, match="P must be nonnegative"):
        grid_support(half, 16, -1, 2)
    # 16 - 2*5 - 1 = 5 out-of-band bins hold 2 spikes, not 3
    with pytest.raises(UndersampledError, match="got 5"):
        grid_support(half, 16, 5, 3)


def test_criterion_1_and_2_families():
    cases = [(_bins(tr.y, tr.P), tr.grid.K, tr.P, tr.M) for tr in ideal_trials(100, seed0=0)]
    cases += [(_bins(y2, tr.P), tr.grid.K, tr.P, M2)
              for tr, _, y2, M2 in nonideal_trials(100, seed0=0)]
    _assert_oracle_support(cases)


@pytest.mark.parametrize("k_factor", [4, 2])
def test_8_bit_families(k_factor):
    # k_factor 4 is criterion 7 (K = 2 K_min); 2 is K = K_min, where noise
    # often moves the support, and both estimators must move it alike
    trials = ideal_trials(50, seed0=5000, P_range=(2, 8), M_range=(1, 40),
                          amp_range=(5.0, 5.0), threshold=1.0, k_factor=k_factor, extra=0)
    _assert_oracle_support([(_bins(quantize(tr.y, 8, 1.0), tr.P), tr.grid.K, tr.P, tr.M)
                            for tr in trials])


@pytest.mark.parametrize("K, P, M_target, seed", [(1024, 10, 128, 0), (1024, 5, 256, 1)])
def test_dense_captures(K, P, M_target, seed):
    trial = dense_capture(synthesize_random(P, 1.0, 1.0, seed), K, M_target)
    y, M = trial.y, trial.M
    k = np.flatnonzero(finite_difference(trial.gamma.values - y.values, 1, circular=True))
    assert M_target - 8 <= M <= M_target
    half, z = _bins(y, P)
    support = grid_support(half, K, P, M)
    np.testing.assert_array_equal(support, _reference.grid_support(z, K, M))
    np.testing.assert_array_equal(support, k)
