"""End-to-end reconstruction: Fourier-Prony unfolding, the baseline
higher-order-difference recovery, threshold optimization and sampling
bounds.

Folded samples determine the signal only up to an additive constant, so
every recovery returns the zero-mean estimate; matching the mean to a
ground truth is left to the caller (the harness does it for its written
tables, and `calibrated_mse` scores up to the constant)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import folding, spectral
from .exceptions import (
    FoldConsistencyError,
    RecoveryError,
    UndersampledError,
)
from .signal_model import SampleVector

_EULER = float(np.e)


@dataclass(frozen=True)
class RecoveryReport:
    """Reconstructed unfolded samples plus diagnostics.

    Folding loses the signal's mean, so gamma_hat is the zero-mean estimate:
    gamma_hat == y + residue_hat - mean(y + residue_hat) elementwise.
    The Fourier method also reports the spikes of the differenced residue:
    their sorted grid indices (`support`) and their `amplitudes`. Both are
    None for the baseline.
    """

    gamma_hat: SampleVector
    residue_hat: SampleVector
    support: Optional[np.ndarray]
    amplitudes: Optional[np.ndarray]
    method: str
    diagnostics: dict = field(default_factory=dict)


def sampling_bounds(tau: float, P: int, M: int, Omega: float | None = None):
    """Sampling-rate and sample-count bounds for recovery.

    Returns (T_FD, T_US, K_min): the Fourier-domain rate tau/(2(P+M+1)),
    the baseline rate 1/(2*Omega*e), and the minimum sample count
    2*(ceil(Omega*tau/2pi) + M + 1). Omega defaults to 2*pi*P/tau.
    """
    if tau <= 0 or P < 0 or M < 0:
        raise ValueError("tau must be positive and P, M nonnegative")
    if Omega is None:
        Omega = 2.0 * np.pi * P / tau
    T_fd = tau / (2.0 * (P + M + 1))
    T_us = 1.0 / (2.0 * Omega * _EULER) if Omega > 0 else np.inf
    K_min = 2 * (int(np.ceil(Omega * tau / (2.0 * np.pi) - 1e-12)) + M + 1)
    return T_fd, T_us, K_min


def mse(x, y) -> float:
    """Mean squared error (1/K) * sum |x[k] - y[k]|^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    return float(np.mean(np.abs(x - y) ** 2))


def calibrated_mse(x, reference) -> float:
    """MSE after matching the mean of x to the reference (offset
    calibration)."""
    x = np.asarray(x, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return mse(x - np.mean(x) + np.mean(reference), reference)


def anti_difference(rbar) -> np.ndarray:
    """Invert the first-difference operator: output r with r[0] = 0 and
    Delta r == rbar (length grows by one)."""
    rbar = np.asarray(rbar, dtype=float)
    return np.concatenate([[0.0], np.cumsum(rbar)])


def fourier_prony_recover(y: SampleVector, P: int, M: int) -> RecoveryReport:
    """Unfold modulo samples by estimating the residue in the Fourier domain.

    Pipeline: circular first difference, DFT, out-of-band extraction, the
    spike support on the sampling grid (:func:`spectral.grid_support`) with
    real least-squares amplitudes, anti-difference and recombination with
    the folded samples. Folding instants lie on the sampling grid by model,
    so the differenced residue is the fitted amplitudes placed at the
    support; the report carries the support as grid indices, never as
    instants in seconds. The result is exact up to the signal's mean for
    noiseless folds whenever K >= 2(P+M+1), and the folding threshold is
    never consulted.

    The amplitudes are fitted by least squares over every out-of-band bin,
    solved in the time domain as an M x M high-pass Gram system
    (:func:`spectral.amplitudes_ls`); a singular system raises
    RecoveryError at step 4. ``diagnostics["fit_residual"]`` is the norm of
    the fit's misfit over the out-of-band bins n <= K/2,
    ||DFT(spikes)[n] + bins[n]|| for P < n <= K/2, where bins is the DFT of
    the differenced samples: the other out-of-band bins are the conjugates
    of these.

    Parameters
    ----------
    y : SampleVector
        K modulo samples covering one period.
    P : int
        Bandwidth index of the underlying signal.
    M : int
        Number of spikes in the circular first difference of the residue:
        the jumps, plus the wrap jump at the last sample when they do not
        cancel.
    """
    K = y.grid.K
    if M < 0:
        raise ValueError("M must be nonnegative")
    if K < 2 * (P + M + 1):
        raise UndersampledError(
            f"K={K} below the recovery bound 2(P+M+1)={2 * (P + M + 1)}"
        )
    diagnostics: dict = {"M": M}

    if M == 0:
        return RecoveryReport(
            gamma_hat=y.with_values(y.values - np.mean(y.values)),
            residue_hat=y.with_values(np.zeros(K)),
            support=np.zeros(0, dtype=np.intp),
            amplitudes=np.zeros(0),
            method="fourier_prony",
            diagnostics=diagnostics,
        )

    # steps 1-3: the circular first difference confines the bandlimited part
    # exactly to 2P+1 DFT bins, so the out-of-band bins carry only the
    # (negated) spike spectrum
    ybar = folding.finite_difference(y.values, 1, circular=True)
    bins = np.fft.fft(ybar)
    z, _ = spectral.extract_out_of_band(bins, P)

    # step 4: spike support on the grid and real amplitudes; a singular
    # amplitude system raises LinAlgError, a ValueError
    try:
        k_hat = spectral.grid_support(z, K, M)
        c_hat, residual = spectral.amplitudes_ls(bins, P, k_hat)
    except ValueError as exc:
        raise RecoveryError(str(exc), step=4) from exc
    diagnostics["fit_residual"] = residual

    # step 5: the differenced residue is c_hat at the support
    rbar_hat = np.zeros(K)
    rbar_hat[k_hat] = c_hat

    # step 6: anti-difference back to the residue (up to a constant)
    r_hat = anti_difference(rbar_hat)[:K]

    # step 7: recombine with the folded samples
    raw_gamma = y.values + r_hat
    return RecoveryReport(
        gamma_hat=y.with_values(raw_gamma - np.mean(raw_gamma)),
        residue_hat=y.with_values(r_hat),
        support=k_hat,
        amplitudes=c_hat,
        method="fourier_prony",
        diagnostics=diagnostics,
    )


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

    With `strict`, a stage whose best constant still violates that bound
    raises FoldConsistencyError: the data is inconsistent with ideal
    2*threshold folds.
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
        if strict and stage_norm > stage_bound + bound_slack:
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
    smallest threshold. Returns the threshold and its zero-mean report."""
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
            report = usf_recover(y, lam, Omega, beta, N=N, strict=False)
        except Exception as exc:  # record and keep scanning
            errors.append((float(lam), str(exc)))
            continue
        err = calibrated_mse(report.gamma_hat.values, gamma_ref.values)
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
