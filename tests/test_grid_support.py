"""The grid support, read from the real half spectrum, against the oracle
in `_reference`, read from the out-of-band slice of the full DFT: the same
support on spike spectra of every Hankel shape parity and on the trial
families of the acceptance criteria, wherever fit_spikes runs the grid
(M = 1, or at most 3M+1 out-of-band bins, where the oracle's width is M+1
too); the in-place Hankel view, whose QR factor keeps the singular values
and the noise subspace of the Hankel matrix."""

import numpy as np
import pytest

import _reference
from _trials import ideal_trials, nonideal_trials
from modsample import finite_difference, quantize
from modsample.spectral import _hankel, grid_support


def _spectra(x, P):
    """(bins 0..K//2, out-of-band bins P+1..K-P-1) of the DFT of the real
    samples x: what fourier_prony_recover and the oracle each read."""
    bins = np.fft.fft(x)
    return bins[: len(x) // 2 + 1], bins[P + 1 : len(x) - P]


def _spike_bins(rng, L, P, M):
    """The spectra of M real spikes on an L-point grid, two of them
    adjacent when M >= 2, and their sorted indices."""
    k0 = int(rng.integers(L - 1))
    adjacent = [k0, k0 + 1][:M]
    rest = rng.choice(np.setdiff1d(np.arange(L), adjacent), size=M - len(adjacent), replace=False)
    k = np.sort(np.concatenate([adjacent, rest]))
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
    # len(z) = L - 2P - 1 runs from the sampling bound 2M+1 to 3M+1, and
    # over every P at M = 1: where fit_spikes runs the grid, at Q = M+1
    # taps. Even and odd L give both parities of len(z), so the rows
    # R = len(z) - Q + 1 and Q take both parities
    rng = np.random.default_rng(L_even)
    parities = set()
    for L in (L_even, L_even + 1):
        for M in (1, 3, 4, 7, 8, 11):
            for P in range(0, (L - 2 * M - 2) // 2 + 1):
                (half, z), k = _spike_bins(rng, L, P, M)
                if M > 1 and len(z) > 3 * M + 1:
                    continue
                parities.add(((len(z) - M) % 2, (M + 1) % 2))
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
    Q = M + 1
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


def test_criterion_1_and_2_families():
    cases = [(_bins(tr.y, tr.P), tr.grid.K, tr.P, tr.M) for tr in ideal_trials(100, seed0=0)]
    cases += [(_bins(y2, tr.P), tr.grid.K, tr.P, M2)
              for tr, _, y2, M2 in nonideal_trials(100, seed0=0)]
    _assert_oracle_support(cases)


def test_8_bit_family_at_the_sampling_bound():
    # criterion 7's family at K = K_min = 2(P+M+1), where noise often moves
    # the support, and both estimators must move it alike
    trials = ideal_trials(50, seed0=5000, P_range=(2, 8), M_range=(1, 40),
                          amp_range=(5.0, 5.0), threshold=1.0, k_factor=2, extra=0)
    _assert_oracle_support([(_bins(quantize(tr.y, 8, 1.0), tr.P), tr.grid.K, tr.P, tr.M)
                            for tr in trials])
