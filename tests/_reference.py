"""Reference estimators that the package no longer runs, kept as test
oracles.

:func:`grid_support` is the complex-arithmetic subspace step that
:func:`modsample.spectral.grid_support` replaced with a real one; it takes
any contiguous bins, conjugate-symmetric or not. The annihilating filter
(:func:`build_toeplitz_tall`, :func:`annihilator`) and the matrix pencil
(:func:`matrix_pencil`) estimate the spike roots off the grid, for the
agreement checks of criterion 8. :func:`amplitudes_ls` is the Vandermonde
least-squares fit over the out-of-band bins that the time-domain low-pass
fit of :func:`modsample.spectral.amplitudes_ls` replaced. :func:`usf_recover`
and :func:`optimize_lambda` are the baseline unfolding one threshold at a
time and its per-threshold grid search, which the threshold-batched kernel
of :mod:`modsample.recovery` replaced. :func:`on_grid` and
:func:`synthesize_random` evaluate a polynomial through a full N-bin
spectrum filled by ``np.add.at``, as :mod:`modsample.signal_model` did
before it passed only the nonnegative bins to the inverse FFT.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from modsample import (
    FoldConsistencyError,
    RecoveryError,
    RecoveryReport,
    SampleVector,
    TrigPolynomial,
    UndersampledError,
    calibrated_mse,
    folding,
)

_EULER = float(np.e)


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


def anti_difference(rbar) -> np.ndarray:
    """Invert the first-difference operator: output r with r[0] = 0 and
    Delta r == rbar (length grows by one). The one-dimensional form that
    :func:`usf_recover` ran, kept so the oracle shares no step with the
    batched kernel."""
    rbar = np.asarray(rbar, dtype=float)
    return np.concatenate([[0.0], np.cumsum(rbar)])


def usf_recover(
    y: SampleVector,
    threshold: float,
    Omega: float,
    beta: float,
    N: int | None = None,
    strict: bool = True,
) -> RecoveryReport:
    """Baseline unfolding through higher-order finite differences.

    Estimates the order-N difference of the residue from the modulo identity,
    then anti-differences N times and returns the zero-mean estimate. At each
    integration stage the unknown constant (a multiple of 2*threshold) is
    fixed by minimizing the max norm of the partially reconstructed
    differences, which the bandlimited shrinkage bound (T*Omega*e)^n * beta
    keeps small for genuine signals; beta bounds max|gamma| (see
    `folding.round_beta`).

    With `strict`, a stage whose best constant still violates that bound,
    or whose norm is NaN, raises FoldConsistencyError: the data is
    inconsistent with ideal 2*threshold folds.
    """
    T = y.grid.T
    rho = T * Omega * _EULER
    if N is None:
        N = folding.choose_order(threshold, beta, T, Omega)
    if N < 1:
        raise ValueError("difference order must be >= 1")
    lam = threshold
    diagnostics: dict = {"N": N, "threshold": lam, "T_Omega_e": rho}

    dNy = folding.finite_difference(y.values, N, circular=False)
    eps = folding.centered_modulo(dNy, lam) - dNy
    k_mult = np.round(eps / (2.0 * lam))
    diagnostics["snap_distance"] = float(
        np.max(np.abs(eps - 2.0 * lam * k_mult), initial=0.0)
    )
    rho_n = 2.0 * lam * k_mult

    bound_slack = 1e-6 * beta
    for n in range(N, 0, -1):
        rho_n = anti_difference(rho_n)
        rho_n = 2.0 * lam * np.round(rho_n / (2.0 * lam))
        dy = (
            folding.finite_difference(y.values, n - 1, circular=False)
            if n > 1
            else y.values
        )
        s = dy + rho_n
        kappa = np.round(-(np.max(s) + np.min(s)) / (4.0 * lam))
        rho_n = rho_n + 2.0 * lam * kappa
        stage_bound = rho ** (n - 1) * beta
        stage_norm = float(np.max(np.abs(dy + rho_n)))
        diagnostics[f"stage_{n - 1}_excess"] = stage_norm - stage_bound
        if strict and not stage_norm <= stage_bound + bound_slack:
            raise FoldConsistencyError(
                f"stage {n - 1}: reconstructed difference norm {stage_norm:.6g} "
                f"exceeds the bandlimited bound {stage_bound:.6g}; data is "
                "inconsistent with ideal folds"
            )

    raw_gamma = y.values + rho_n
    return RecoveryReport(
        gamma_hat=y.with_values(raw_gamma - np.mean(raw_gamma)),
        residue_hat=y.with_values(rho_n),
        support=None,
        amplitudes=None,
        method="usf",
        diagnostics=diagnostics,
    )


def optimize_lambda(
    y: SampleVector,
    gamma_ref: SampleVector,
    Omega: float,
    lo: float,
    hi: float,
    step: float,
    N: int | None = None,
):
    """Grid search for the folding threshold minimizing the calibrated MSE of
    the baseline reconstruction against a reference; ties break toward the
    smallest threshold. A threshold whose run overflows to a non-finite
    score fails like one whose run raises. Returns the threshold and its
    zero-mean report."""
    if lo <= 0 or hi < lo or step <= 0:
        raise ValueError("need 0 < lo <= hi and step > 0")
    if gamma_ref.grid != y.grid:
        raise ValueError("gamma_ref must share the grid of y")
    best = None
    errors = []
    grid = np.arange(lo, hi + 0.5 * step, step)
    for lam in grid:
        try:
            beta = folding.round_beta(
                float(np.max(np.abs(gamma_ref.values))), lam
            )
            with np.errstate(over="ignore", invalid="ignore"):
                report = usf_recover(y, lam, Omega, beta, N=N, strict=False)
                err = calibrated_mse(report.gamma_hat.values, gamma_ref.values)
        except Exception as exc:  # record and keep scanning
            errors.append((float(lam), str(exc)))
            continue
        if not np.isfinite(err):
            errors.append((float(lam), f"non-finite calibrated MSE {err}"))
            continue
        if best is None or err < best[1] - 1e-15:
            best = (float(lam), err, report)
    if best is None:
        raise RecoveryError(
            f"every threshold in [{lo}, {hi}] failed; first error: {errors[:1]}"
        )
    lam_opt, err, report = best
    report.diagnostics["lambda_opt"] = lam_opt
    report.diagnostics["lambda_opt_mse"] = err
    return lam_opt, replace(report, method="usf_opt")


def on_grid(g: TrigPolynomial, N: int) -> np.ndarray:
    """g at the N points k*tau/N from the N-bin spectrum of its coefficients
    placed at bins p mod N, added with ``np.add.at``: the oracle of
    :func:`modsample.signal_model._on_grid`."""
    c = g.coeffs
    if 0.5 * np.sum(np.abs(c - np.conj(c[::-1]))) > 1e-9 * np.sum(np.abs(c)) + 1e-12:
        raise AssertionError("coefficients would give a non-negligible imaginary part")
    spec = np.zeros(N, dtype=complex)
    np.add.at(spec, np.arange(-g.P, g.P + 1) % N, c)
    return np.fft.irfft(spec[: N // 2 + 1], n=N) * N


def synthesize_random(P: int, tau: float, amplitude: float, seed) -> TrigPolynomial:
    """The random polynomial of :func:`modsample.synthesize_random`, scaled
    by the peak of the full-scale samples of :func:`on_grid` on the
    16384-point grid."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(2 * P + 1, dtype=complex)
    coeffs[P] = rng.standard_normal()
    if P > 0:
        pos = rng.standard_normal(P) + 1j * rng.standard_normal(P)
        coeffs[P + 1 :] = pos
        coeffs[:P] = np.conj(pos[::-1])
    if not np.any(np.abs(coeffs) > 0):
        coeffs[P] = 1.0
    g = TrigPolynomial(tau=tau, P=P, coeffs=coeffs)
    peak = np.max(np.abs(on_grid(g, 16384)))
    return TrigPolynomial(tau=tau, P=P, coeffs=coeffs * (amplitude / peak))
