"""Fourier-domain spike estimation: band partitioning, the on-grid spike
support and least-squares amplitudes.

Folding instants lie on the sampling grid by model, so the first difference
of the residue is a train of M spikes at integer indices k_m of the L-point
grid, and its DFT is sum_m c_m xi_m^n with xi_m = exp(-2j pi k_m / L).
:func:`grid_support` finds the indices k_m on the grid and never roots a
polynomial; :func:`amplitudes_ls` fits the c_m with xi_m^n read from the L
roots of unity. Spikes are never held as roots or instants in seconds.
"""

from __future__ import annotations

import numpy as np

from .exceptions import UndersampledError


def band_partition(L: int, P: int):
    """Split DFT indices {0..L-1} into the 2P+1 in-band bins
    [0,P] u [L-P, L-1] and their complement.

    Returns (in_band, out_band) as sorted integer arrays.
    """
    if P < 0:
        raise ValueError("P must be nonnegative")
    if L < 2 * P + 2:
        raise UndersampledError(
            f"transform length L={L} leaves no out-of-band bins for P={P}"
        )
    in_band = np.concatenate([np.arange(0, P + 1), np.arange(L - P, L)])
    out_band = np.arange(P + 1, L - P)
    return in_band, out_band


def extract_out_of_band(bins, P: int):
    """Out-of-band bins (where only the spike train contributes) together
    with their original DFT indices.

    With y = gamma - r, these bins equal minus the spike spectrum.
    """
    bins = np.asarray(bins)
    _, out_band = band_partition(len(bins), P)
    return bins[out_band], out_band


def _real_hankel(z, Q: int) -> np.ndarray:
    """The real (len(z)-Q+1) x Q matrix T, in Fortran order, with the
    singular values of the width-Q Hankel matrix H[r, j] = z[r + j] of the
    conjugate-symmetric bins z (a contiguous complex array).

    H[R-1-r, Q-1-j] = conj(H[r, j]), so H is centro-Hermitian. Let U be the
    unitary whose column j is (e_j + e_{Q-1-j})/sqrt2 and column c+j is
    1j (e_j - e_{Q-1-j})/sqrt2 for j < Q//2, where c = Q - Q//2, with
    column Q//2 = e_{Q//2} at odd Q. Row R-1-r of H U is then the conjugate
    of row r, and the middle row at odd R is real, so sqrt2 times the real
    parts of the top rows, the middle row and sqrt2 times their imaginary
    parts stack into T, an orthogonal transform of H U. T's right singular
    vectors map to H's through U.
    """
    R = len(z) - Q + 1
    hQ, hR = Q // 2, R // 2
    c = Q - hQ
    # only the top R-hR rows of H are read, viewed transposed; T is built
    # transposed too, so that it is in the Fortran order LAPACK reads
    Ht = np.ndarray((Q, R - hR), complex, z, 0, 2 * z.strides)
    S = Ht[:c] + Ht[::-1][:c]  # row hQ at odd Q is 2 H[:, hQ]
    D = Ht[:hQ] - Ht[::-1][:hQ]
    Tt = np.empty((Q, R))
    Tt[:c, : R - hR] = S.real
    Tt[c:, : R - hR] = -D.imag
    Tt[:c, R - hR :] = S.imag[:, :hR]
    Tt[c:, R - hR :] = D.real[:, :hR]
    if R % 2:
        Tt[:, hR] /= 2**0.5
    if Q % 2:
        Tt[hQ] /= 2**0.5
    return Tt.T


def grid_support(z, L: int, M: int) -> np.ndarray:
    """Grid indices of the M spikes behind the contiguous spectrum bins z.

    z holds consecutive bins sum_m c_m xi_m^n of an L-point DFT of a real
    spike train, with xi_m = exp(-2j pi k_m / L) for integer k_m and real
    c_m, placed symmetrically about L/2 as the out-of-band bins are: so
    z[-1-j] = conj(z[j]). The right singular vectors of the width-Q Hankel
    matrix of z beyond the first M span its noise subspace, which is
    orthogonal to (1, xi, ..., xi^(Q-1)) exactly at the spike roots. One
    length-L FFT of the noise vectors evaluates that on every grid root at
    once, and the M grid indices with the least noise power are the
    support: MUSIC restricted to the grid.

    The width is Q = min(2M, max(M+1, len(z) - 2M)). At the sampling bound
    (len(z) = 2M+1) that is M+1 taps, the annihilating filter's aperture;
    where bins are plentiful it grows to 2M, which separates crowded folds
    that M+1 taps cannot. The Hankel matrix never has fewer rows than
    columns.

    The symmetry makes the Hankel matrix centro-Hermitian, and a sparse
    unitary change of basis on each side turns it into a real matrix with
    the same singular values (Lee 1980; Haardt & Nossek, Unitary ESPRIT,
    1995), so the QR and SVD run in real arithmetic. Bins that are not
    conjugate-symmetric to within 1e-9 of their largest raise ValueError.

    Returns the support as sorted integers in [0, L).
    """
    z = np.ascontiguousarray(z, dtype=complex)
    if M < 1:
        raise ValueError("M must be >= 1")
    if len(z) < 2 * M + 1:
        raise UndersampledError(f"need at least 2M+1={2 * M + 1} samples, got {len(z)}")
    if np.abs(z - z[::-1].conj()).max() > 1e-9 * np.abs(z).max():
        raise ValueError("bins are not conjugate-symmetric, so not a real spike train")
    Q = min(2 * M, max(M + 1, len(z) - 2 * M))
    hQ, c = Q // 2, Q - Q // 2
    # T and its triangular QR factor share their right singular vectors, and
    # the Q x Q factor is the cheaper one to decompose
    _, _, vh = np.linalg.svd(np.linalg.qr(_real_hankel(z, Q), mode="r"))
    # H's noise vectors are U times T's (see _real_hankel); w holds sqrt2 U v
    v = vh[M:]
    w = np.empty((Q - M, Q), dtype=complex)
    w[:, :c] = v[:, :c]
    w.imag[:, :hQ] = v[:, c:]
    if Q % 2:
        w[:, hQ] *= 2**0.5
    w[:, c:] = w[:, hQ - 1 :: -1].conj()
    # w . (xi^j)_j is the DFT of w at the root's grid index
    noise = np.fft.fft(w, n=L, axis=1)
    power = np.sum(np.abs(noise) ** 2, axis=0)
    return np.sort(np.argpartition(power, M - 1)[:M])


def amplitudes_ls(z, n_idx, k, L: int) -> tuple[np.ndarray, float]:
    """Real spike amplitudes from least squares on
    z[i] ~ sum_m c[m] exp(-2j pi k[m] n_idx[i] / L).

    k holds the spikes' distinct grid indices. Each Vandermonde entry is
    read from a table of the L roots of unity at (k n) mod L, so every
    entry is accurate to rounding, however large n gets. The complex system
    is stacked into its real and imaginary parts so the solution is
    constrained real. Returns (c, residual_norm).
    """
    z = np.asarray(z, dtype=complex)
    n_idx = np.asarray(n_idx)
    k = np.asarray(k)
    M = len(k)
    if M < 1:
        raise ValueError("need at least one spike")
    if len(z) < M:
        raise UndersampledError(f"need at least M={M} equations, got {len(z)}")
    roots = np.exp(-2j * np.pi * np.arange(L) / L)
    V = roots[np.outer(n_idx, k) % L]
    A = np.vstack([V.real, V.imag])
    b = np.concatenate([z.real, z.imag])
    c, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ c - b))
    return c, residual
