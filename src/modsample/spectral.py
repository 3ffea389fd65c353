"""Fourier-domain spike estimation: the one spike stage of recovery,
:func:`fit_spikes`, and the kernels it runs on the spectrum it reads.

Folding instants lie on the sampling grid by model, so the circular first
difference of the modulo samples is a bandlimited part minus a train of M
spikes at integer indices k_m of the K-point grid, and the DFT of the
spikes is sum_m c_m xi_m^n with xi_m = exp(-2j pi k_m / K). The
differenced samples are real, so their bins K-n are the conjugates of bins
n. :func:`fit_spikes` takes the samples, checks the setting once, and
builds the bins 0..K//2 of that DFT and the high-pass samples h (the
inverse FFT with the bins within P of 0 zeroed) once each. Both supports
find the indices k_m on the grid and never root a polynomial:
:func:`inband_support` as the least l1 norm of h plus a low-pass part, a
few FFTs per step, and :func:`grid_support` from the noise subspace of a
complex Hankel matrix of the out-of-band bins, one QR and one SVD.
:func:`amplitudes_ls` fits the c_m over the out-of-band bins in the time
domain, as the low-pass fit of h off the support, with no Vandermonde
matrix and no M x M system, and its residual certifies a support: with at
least 2M+1 out-of-band bins only the true support fits them exactly. Where
no support is certified, the one with the smaller residual is kept.
Spikes are never held as roots or instants in seconds.
"""

from __future__ import annotations

import numpy as np

from . import folding
from .exceptions import UndersampledError

# the most reweighted least-squares steps of inband_support. It took 2
# steps on 40 of the 41 benchmark captures and 3 on the other (K=1024,
# M=256), 2 on every dense draw of acceptance criterion 10 and on 8-bit
# captures, and 2-10 on certified draws at M = K/4. The most seen was 17,
# on a draw at M = K/4 whose l1 support was wrong
_IRLS_STEPS = 20


def _width(Lz: int, M: int) -> int:
    """The Hankel width of :func:`grid_support` for Lz out-of-band bins and
    M spikes."""
    return min(2 * M, max(M + 1, Lz - 2 * M))


def _hankel(z: np.ndarray, Q: int) -> np.ndarray:
    """The width-Q Hankel matrix H[r, j] = z[r + j] of a contiguous complex
    z, viewed in place (sliding_window_view costs about 15 us a call)."""
    return np.ndarray((len(z) - Q + 1, Q), complex, z, 0, 2 * z.strides)


def _lowpass_fit(h: np.ndarray, w: np.ndarray, P: int) -> np.ndarray:
    """The low-pass l, with DFT bins only within P of 0, that minimizes the
    weighted misfit sum_k w_k (h_k + l_k)^2 over the K = len(h) samples.

    The normal equations in the bins X_p, |p| <= P, of l are the
    (2P+1)^2 Hermitian Toeplitz system
    sum_p W[q-p]/K X_p = -DFT(w h)[q], |q| <= P, with W the DFT of w, and
    l is the inverse real FFT of X on the bins 0..P. So a fit costs a few
    length-K FFTs and one (2P+1)^2 solve, and builds no K x (2P+1) basis.
    numpy raises LinAlgError (a ValueError) when the system is singular,
    that is when some nonzero low-pass signal vanishes wherever w > 0.
    """
    K = len(h)
    # lag q - p of the Toeplitz system, for the bins -P..P, as a DFT index
    lags = np.subtract.outer(np.arange(2 * P + 1), np.arange(2 * P + 1)) % K
    rhs = np.fft.rfft(w * h)[: P + 1]
    X = np.linalg.solve(np.fft.fft(w)[lags] / K, -np.concatenate((rhs[:0:-1].conj(), rhs)))
    # irfft pads the bins 0..P with zeros up to K//2
    return np.fft.irfft(X[P:], n=K)


def grid_support(half, K: int, P: int, M: int) -> np.ndarray:
    """Grid indices of the M spikes behind the out-of-band bins of a real
    K-point spectrum.

    `half` holds the bins 0..K//2 of the DFT of a real signal whose bins
    n = P+1..K-P-1 are sum_m c_m xi_m^n, with xi_m = exp(-2j pi k_m / K)
    for integer k_m and real c_m: the differenced samples, whose
    bandlimited part lies in the bins within P of 0. Bin K-n is the
    conjugate of bin n, so the out-of-band bins z are built from `half`
    and are conjugate-symmetric, z[-1-j] = conj(z[j]), by construction.
    The right singular vectors of the width-Q Hankel matrix of z beyond
    the first M span its noise subspace, which is orthogonal to
    (1, xi, ..., xi^(Q-1)) exactly at the spike roots. One length-K FFT of
    the noise vectors evaluates that on every grid root at once, and the M
    grid indices with the least noise power are the support: MUSIC
    restricted to the grid.

    The width is Q = min(2M, max(M+1, len(z) - 2M)). At the sampling bound
    (len(z) = 2M+1) that is M+1 taps, the annihilating filter's aperture;
    where bins are plentiful it grows to 2M, which separates crowded folds
    that M+1 taps cannot. The Hankel matrix never has fewer rows than
    columns.

    A kernel of :func:`fit_spikes`, which checks the setting: M >= 1 and
    len(z) = K-2P-1 >= 2M+1. Nothing here checks it again.

    Returns the support as sorted integers in [0, K).
    """
    # bins P+1..K//2, then the conjugates of bins (K-1-K//2)..P+1 as bins
    # K//2+1..K-P-1
    z = np.concatenate((half[P + 1 :], half[P + 1 : K - K // 2][::-1].conj()))
    Q = _width(len(z), M)
    # the Hankel matrix and its triangular QR factor share their right
    # singular vectors, and the Q x Q factor is the cheaper one to decompose
    _, _, vh = np.linalg.svd(np.linalg.qr(_hankel(z, Q), mode="r"))
    # conj(v) . (xi^j)_j is the DFT of conj(v) at the root's grid index
    noise = np.fft.fft(np.conj(vh[M:]), n=K, axis=1)
    power = np.sum(np.abs(noise) ** 2, axis=0)
    return np.sort(np.argpartition(power, M - 1)[:M])


def inband_support(h: np.ndarray, P: int, M: int) -> np.ndarray:
    """Grid indices of the M spikes behind the K = len(h) high-pass samples
    h, from an l1 fit in the time domain.

    h is the inverse FFT of the spectrum of the differenced samples with
    the bins within P of 0 zeroed, as :func:`fit_spikes` builds it. The
    differenced samples are a low-pass part minus a train of M spikes, so
    h is the negated spike train plus its own low-pass part. The spike
    train is -(h + l) for some low-pass l, and the sparsest such sum is
    found as the least l1 norm ||h + l||_1 over the low-pass l (Candes &
    Tao, IEEE TIT 2005), by iteratively reweighted least squares
    (Daubechies et al., CPAM 2010). Each step weights sample k by
    w = 1/max(|h + l|, 1e-12 max|h|) and takes the new l as the weighted
    low-pass fit of -h, one (2P+1)^2 Toeplitz solve (:func:`_lowpass_fit`).
    The first step starts from l = 0, the least-squares fit.

    The steps stop when h + l is numerically M-sparse (its (M+1)-th
    largest magnitude is at most 1e-12 of its largest), when its M largest
    magnitudes sit where they sat after the previous step, or after
    _IRLS_STEPS = 20 steps; the indices of the M largest are the support.
    With h = 0 every support fits, and the support is 0..M-1.

    The l1 minimizer need not be the spike train, least of all near the
    sampling bound, and nothing here checks that it is: :func:`fit_spikes`
    certifies the support by the residual of :func:`amplitudes_ls` on it.
    It also checks the setting (1 <= M, 2(P+M+1) <= K); nothing here does.

    Returns the support as sorted integers in [0, K).
    """
    K = len(h)
    floor = 1e-12 * np.max(np.abs(h))
    if floor == 0:  # no out-of-band energy: zero spikes fit anywhere
        return np.arange(M)
    r = h
    support = None
    for _ in range(_IRLS_STEPS):
        r = h + _lowpass_fit(h, 1.0 / np.maximum(np.abs(r), floor), P)
        mag = np.abs(r)
        order = np.argpartition(mag, K - M - 1)
        previous, support = support, np.sort(order[K - M :])
        if mag[order[K - M - 1]] <= 1e-12 * mag.max() or np.array_equal(support, previous):
            break
    return support


def amplitudes_ls(h: np.ndarray, P: int, k) -> tuple[np.ndarray, float]:
    """Real spike amplitudes c at the grid indices k from least squares over
    every out-of-band bin of the differenced samples, given by their
    K = len(h) high-pass samples h (as for :func:`inband_support`): the
    differenced samples are -(spike train) + (2P+1 in-band bins).

    By Parseval, fitting c over the out-of-band bins is a least-squares fit
    of the high-pass part of the time-domain residual ybar + E c, where E
    places c at the indices k: h is matched by the high-pass part of the
    spike train. That is the joint least-squares fit of E c + h + l over c
    and a low-pass l. For a given l the best c is -(h + l) at k, which
    leaves the misfit of h + l off k; so l is the low-pass fit of -h with
    weight 0 on k and 1 elsewhere (:func:`_lowpass_fit`, one (2P+1)^2
    solve) and c = -(h + l)[k]. The fit is singular, and numpy raises
    LinAlgError (a ValueError), when some spike train on the support is
    bandlimited; a repeated index, which that fit would not see, raises
    LinAlgError too. The cost is a few length-K real FFTs and one
    (2P+1)^2 solve. :func:`fit_spikes` checks the setting (1 <= M = len(k),
    2(P+M+1) <= K); nothing here does.

    Returns (c, residual), where residual is the norm of the fit's misfit
    over the out-of-band bins n <= K/2. As l is low-pass, that is the norm
    of the out-of-band bins of h + l off k.
    """
    w = np.ones(len(h))
    w[k] = 0.0
    if np.count_nonzero(w) > len(h) - len(k):  # an index of k repeats
        raise np.linalg.LinAlgError("the support repeats an index")
    r = h + _lowpass_fit(h, w, P)
    return -r[k], float(np.linalg.norm(np.fft.rfft(w * r)[P + 1 :]))


def fit_spikes(values, P: int, M: int):
    """The M spikes in the circular first difference of the K = len(values)
    modulo samples: their support, their real amplitudes, the fit's
    residual and the name of the support estimator that found them.

    This is the one place that checks the spike stage's setting: P and M
    must be nonnegative (ValueError), and K must reach the recovery bound
    2(P+M+1) (UndersampledError), the fewest samples that leave 2M+1
    out-of-band bins. Samples that hold NaN or inf raise LinAlgError, as a
    numerical failure of the fit does, before any FFT. The fit reads the
    real half spectrum, the bins 0..K//2 of the DFT of the differenced
    samples, once, and the high-pass samples h once; its kernels
    (:func:`inband_support`, :func:`amplitudes_ls` and
    :func:`grid_support`) take those arrays and check nothing again.

    M = 0 is the fit of no spikes: an empty support and empty amplitudes,
    the residual ||half[P+1:]||, the misfit of zero spikes over the
    out-of-band bins n <= K/2, and the estimator None. Otherwise the
    amplitudes and residual are those of :func:`amplitudes_ls` on the
    support, and two estimators can give the support:

    - ``"inband_l1"``, :func:`inband_support`, runs first where the Hankel
      width of :func:`grid_support` exceeds M+1, that is where the
      Lz = K-2P-1 out-of-band bins number more than 3M+1 and M >= 2. Its
      support is kept at once when the amplitude fit on it leaves a
      residual of at most 1e-9 of the norm of the out-of-band bins
      n <= K/2. The Lz >= 2M+1 bins admit only one M-spike train, so a
      support that fits them is the true one. Its reweighting stops after
      at most _IRLS_STEPS = 20 steps; it took 2 or 3 on the benchmark's
      captures, up to M = K/4.
    - ``"grid"``, :func:`grid_support`, runs everywhere else: at the width
      M+1, near the sampling bound, where the l1 support is usually wrong,
      and wherever the l1 fit is not certified, as under quantization noise
      or when a step of the l1 fit raises LinAlgError (a singular system).

    Where both ran, the support whose amplitude fit leaves the strictly
    smaller residual is returned, and a tie keeps the grid's. Under
    quantization noise no residual reaches the certificate, and the grid's
    resolution, about K/Q samples, can merge nearby spikes that the l1
    fit separates; its wrong support then fits worse. Where the grid's
    support is right a certified l1 support equals it, so there the order
    only saves time: an l1 step costs a few length-K FFTs, against a QR
    and an SVD of a matrix up to 2M wide. A singular amplitude system on
    the grid's support raises LinAlgError.

    Returns (support, amplitudes, residual, estimator).
    """
    if P < 0:
        raise ValueError("P must be nonnegative")
    if M < 0:
        raise ValueError("M must be nonnegative")
    values = np.asarray(values, dtype=float)
    K = len(values)
    if K < 2 * (P + M + 1):
        raise UndersampledError(f"K={K} below the recovery bound 2(P+M+1)={2 * (P + M + 1)}")
    if not np.isfinite(values).all():
        raise np.linalg.LinAlgError("the samples hold NaN or inf")
    # the circular first difference confines the bandlimited part exactly
    # to 2P+1 DFT bins, so the out-of-band bins carry only the (negated)
    # spike spectrum. The differenced samples are real, so the bins 0..K//2
    # hold the whole spectrum. They are the complex FFT's: np.fft.rfft's
    # differ from them in the last bit, which would move every written
    # estimate in its last digits
    half = np.fft.fft(folding.finite_difference(values, 1, circular=True))[: K // 2 + 1]
    out_of_band = np.linalg.norm(half[P + 1 :])
    if M == 0:
        return np.zeros(0, np.intp), np.zeros(0), float(out_of_band), None
    high = half.copy()
    high[: P + 1] = 0.0
    h = np.fft.irfft(high, n=K)
    l1 = (None, None, np.inf, None)  # no l1 fit, or a singular one
    if _width(K - 2 * P - 1, M) > M + 1:
        try:
            k = inband_support(h, P, M)
            l1 = (k, *amplitudes_ls(h, P, k), "inband_l1")
        except np.linalg.LinAlgError:
            pass
        if l1[2] <= 1e-9 * out_of_band:
            return l1
    k = grid_support(half, K, P, M)
    grid = (k, *amplitudes_ls(h, P, k), "grid")
    return l1 if l1[2] < grid[2] else grid
