"""Reference estimators that the package no longer runs, kept as test
oracles.

:func:`grid_support` is the complex-arithmetic subspace step that
:func:`modsample.spectral.grid_support` replaced with a real one; it takes
any contiguous bins, conjugate-symmetric or not. The annihilating filter
(:func:`build_toeplitz_tall`, :func:`annihilator`) and the matrix pencil
(:func:`matrix_pencil`) estimate the spike roots off the grid, for the
agreement checks of criterion 8.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from modsample import UndersampledError


def grid_support(z, L: int, M: int) -> np.ndarray:
    """Grid indices of the M spikes behind the contiguous spectrum bins z,
    found in complex arithmetic: the oracle of
    :func:`modsample.spectral.grid_support`.

    z holds consecutive bins sum_m c_m xi_m^n of an L-point DFT, with
    xi_m = exp(-2j pi k_m / L) for integer k_m. The right singular vectors
    of the width-Q Hankel matrix of z beyond the first M span its noise
    subspace, which is orthogonal to (1, xi, ..., xi^(Q-1)) exactly at the
    spike roots. One length-L FFT of the noise vectors evaluates that on
    every grid root at once, and the M grid indices with the least noise
    power are the support: MUSIC restricted to the grid.

    The width is Q = min(2M, max(M+1, len(z) - 2M)). At the sampling bound
    (len(z) = 2M+1) that is M+1 taps, the annihilating filter's aperture;
    where bins are plentiful it grows to 2M, which separates crowded folds
    that M+1 taps cannot. The Hankel matrix never has fewer rows than
    columns.

    Returns the support as sorted integers in [0, L).
    """
    z = np.asarray(z, dtype=complex)
    if M < 1:
        raise ValueError("M must be >= 1")
    if len(z) < 2 * M + 1:
        raise UndersampledError(f"need at least 2M+1={2 * M + 1} samples, got {len(z)}")
    Q = min(2 * M, max(M + 1, len(z) - 2 * M))
    # the Hankel matrix and its triangular QR factor share their right
    # singular vectors, and the Q x Q factor is the cheaper one to decompose
    _, _, vh = np.linalg.svd(np.linalg.qr(sliding_window_view(z, Q), mode="r"))
    # conj(v) . (xi^j)_j is the DFT of conj(v) at the root's grid index
    noise = np.fft.fft(np.conj(vh[M:]), n=L, axis=1)
    power = np.sum(np.abs(noise) ** 2, axis=0)
    return np.sort(np.argpartition(power, M - 1)[:M])


def build_toeplitz_tall(z, M: int) -> np.ndarray:
    """(L-M) x (M+1) Toeplitz system using every available spectrum sample.

    Row i and column j hold z[i - j + M]; noiseless M-spike data gives rank
    exactly M. A block of exactly 2M samples gives the minimal M x (M+1)
    system.
    """
    z = np.asarray(z, dtype=complex)
    if M < 1:
        raise ValueError("M must be >= 1")
    if len(z) < 2 * M:
        raise ValueError(f"need at least 2M={2 * M} samples, got {len(z)}")
    return sliding_window_view(z, M + 1)[:, ::-1]


def annihilator(Tmat: np.ndarray):
    """Annihilating filter taps from the kernel of the Toeplitz matrix.

    Accepts the minimal M x (M+1) matrix or a taller (L-M) x (M+1) system.
    Returns (p, diagnostics) where p is the right singular vector of the
    smallest singular value rescaled so p[M] = 1. If the trailing tap is
    numerically zero, falls back to largest-magnitude normalization and
    flags it.
    """
    Tmat = np.asarray(Tmat, dtype=complex)
    if Tmat.ndim != 2 or Tmat.shape[1] < 2 or Tmat.shape[0] < Tmat.shape[1] - 1:
        raise ValueError(f"expected at least M x (M+1) rows, got {Tmat.shape}")
    # full_matrices=True so vh is (M+1) x (M+1); its last row spans the kernel
    _, s, vh = np.linalg.svd(Tmat)
    p = np.conj(vh[-1])
    diagnostics = {
        "sigma_min": float(s[-1]),
        "rank_ratio": float(s[-1] / s[0]) if s[0] > 0 else 0.0,
        "residual": float(np.linalg.norm(Tmat @ p)),
        "normalization_fallback": False,
    }
    if np.abs(p[-1]) < 1e-12 * np.linalg.norm(p):
        k = int(np.argmax(np.abs(p)))
        p = p / p[k]
        diagnostics["normalization_fallback"] = True
    else:
        p = p / p[-1]
    return p, diagnostics


def matrix_pencil(z, M: int, Q: int | None = None) -> np.ndarray:
    """Estimate the M spike roots via the rank-truncated matrix pencil.

    Hankel matrices of width Q are built from z (rows shifted by 0 and 1);
    the roots are the eigenvalues of the rank-M-truncated pencil. Auto mode
    uses Q = floor(len(z)/3) clamped to [M, len(z)-M].

    Returns the roots as a complex array (unsorted).
    """
    z = np.asarray(z, dtype=complex)
    L_z = len(z)
    if M < 1:
        raise ValueError("M must be >= 1")
    if L_z < 2 * M:
        raise UndersampledError(f"need at least 2M={2 * M} samples, got {L_z}")
    if Q is None:
        Q = min(max(L_z // 3, M), L_z - M)
    if not M <= Q <= L_z - M:
        raise ValueError(f"pencil parameter Q={Q} outside [{M}, {L_z - M}]")
    rows = L_z - Q
    Y0 = sliding_window_view(z[: rows + Q - 1], Q)[:rows]
    Y1 = sliding_window_view(z[1:], Q)[:rows]
    U, s, Vh = np.linalg.svd(Y0, full_matrices=False)
    Um = U[:, :M]
    Vm = Vh[:M].conj().T
    sm = s[:M]
    core = (Um.conj().T @ Y1 @ Vm) / sm[:, None]
    return np.linalg.eigvals(core)
