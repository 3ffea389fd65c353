"""Fourier-domain spike estimation: band partitioning, the on-grid spike
support and least-squares amplitudes.

Folding instants lie on the sampling grid by model, so the first difference
of the residue is a train of M spikes at integer indices k_m of the L-point
grid, and its DFT is sum_m c_m xi_m^n with xi_m = exp(-2j pi k_m / L).
:func:`grid_support` finds the indices k_m on the grid and never roots a
polynomial; :func:`amplitudes_ls` fits the c_m over the out-of-band bins
as an M x M high-pass Gram solve in the time domain, with no Vandermonde
matrix. Spikes are never held as roots or instants in seconds.
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


def amplitudes_ls(bins, P: int, k) -> tuple[np.ndarray, float]:
    """Real spike amplitudes c at the grid indices k from least squares over
    every out-of-band bin of the K-point DFT `bins` of the differenced
    samples, where bins = -(spike spectrum) + (2P+1 in-band bins).

    By Parseval, fitting c over the out-of-band bins is a least-squares fit
    of the high-pass part of the time-domain residual ybar + E c, where E
    places c at the indices k: the high-pass samples h (the bins with
    [0, P] and [K-P, K) zeroed, transformed back) are matched by the
    high-pass part of the spike train. The normal equations are the M x M
    system ([k_i == k_j] - l[(k_i - k_j) mod K]) c = -h[k], with l the
    low-pass kernel (1/K) sum_{|p|<=P} cos(2 pi p d / K). For distinct
    indices the matrix is I - l[...], symmetric and positive definite
    unless some spike train on the support is bandlimited; numpy raises
    LinAlgError (a ValueError) when it is singular, as it is for a repeated
    index. The cost is three length-K real FFTs and one M x M solve.

    Returns (c, residual), where residual is the norm of the fit's misfit
    over the out-of-band bins n <= K/2.
    """
    bins = np.asarray(bins)
    K = len(bins)
    k = np.asarray(k)
    M = len(k)
    if M < 1:
        raise ValueError("need at least one spike")
    if P < 0:
        raise ValueError("P must be nonnegative")
    half = K // 2 + 1
    if half - (P + 1) < M:
        raise UndersampledError(f"need at least M={M} equations, got {half - (P + 1)}")
    high = bins[:half].copy()
    high[: P + 1] = 0.0
    h = np.fft.irfft(high, n=K)
    low = np.zeros(half)
    low[: P + 1] = 1.0
    kernel = np.fft.irfft(low, n=K)
    gram = np.equal.outer(k, k) - kernel[np.subtract.outer(k, k) % K]
    c = np.linalg.solve(gram, -h[k])
    spikes = np.zeros(K)
    spikes[k] = c
    residual = float(np.linalg.norm(np.fft.rfft(spikes)[P + 1 :] + bins[P + 1 : half]))
    return c, residual
