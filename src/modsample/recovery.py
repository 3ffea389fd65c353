"""End-to-end reconstruction: Fourier-Prony unfolding, the baseline
higher-order-difference recovery, threshold optimization and sampling
bounds.

Folded samples determine the signal only up to an additive constant, so
every recovery returns the zero-mean estimate; matching the mean to a
ground truth is left to the caller (the harness does it for its written
tables, and `calibrated_mse` scores up to the constant).

The baseline has one implementation, a kernel that unfolds a column of
thresholds sharing one difference order from the difference ladder of the
samples. :func:`usf_recover` is its one-row call; :func:`optimize_lambda`
takes the order rule over a whole threshold grid at once and runs the
kernel in row blocks, and every row's values are those of its own
one-threshold run. The search carries the fold counts as exact integers
wherever a bound on their size guarantees it, and falls back to the
float ladder of divide, round and multiply elsewhere; a threshold whose
unfolding overflows scores as failed."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import folding, spectral
from .exceptions import FoldConsistencyError, RecoveryError
from .signal_model import SampleVector

_EULER = float(np.e)
# the most samples (thresholds x K) that one batch of the threshold search
# holds in each of its arrays. Of 2**13, 2**14 and 2**15, 2**14 (128 KiB
# arrays) ran the integer-count search fastest at K from 256 to 2048 on a
# 2-vCPU x86 machine, 8-17% ahead of the next; 2**15 was 2-8% faster at
# K = 4096 and 8192
_BLOCK_CELLS = 2**14


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


def sampling_bounds(tau: float, P: int, M: int):
    """Sampling-rate and sample-count bounds for recovery of a tau-periodic
    signal with bandwidth index P, so bandwidth Omega = 2*pi*P/tau.

    Returns (T_FD, T_US, K_min): the Fourier-domain rate tau/(2(P+M+1)),
    the baseline rate 1/(2*Omega*e) (inf for P = 0), and the minimum sample
    count 2(P+M+1).
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    if P < 0 or M < 0:
        raise ValueError("P and M must be nonnegative")
    Omega = 2.0 * np.pi * P / tau
    T_fd = tau / (2.0 * (P + M + 1))
    T_us = 1.0 / (2.0 * Omega * _EULER) if Omega > 0 else np.inf
    return T_fd, T_us, 2 * (P + M + 1)


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
    """Invert the first-difference operator along the last axis: output r
    with r[..., 0] = 0 and Delta r == rbar (length grows by one)."""
    rbar = np.asarray(rbar, dtype=float)
    r = np.zeros(rbar.shape[:-1] + (rbar.shape[-1] + 1,))
    np.cumsum(rbar, axis=-1, out=r[..., 1:])
    return r


def fourier_prony_recover(y: SampleVector, P: int, M: int) -> RecoveryReport:
    """Unfold modulo samples by estimating the residue in the Fourier domain.

    Pipeline: one :func:`spectral.fit_spikes` call on the samples (their
    circular first difference, its real half spectrum, the spike support
    on the sampling grid and its real least-squares amplitudes), then
    anti-difference and recombination with the folded samples. Folding
    instants lie on the sampling grid by model, so the differenced residue
    is the fitted amplitudes placed at the support; the report carries the
    support as grid indices, never as instants in seconds. The result is
    exact up to the signal's mean for noiseless folds whenever
    K >= 2(P+M+1), and the folding threshold is never consulted.

    The amplitudes are fitted by least squares over every out-of-band bin,
    solved in the time domain as one low-pass fit off the support
    (:func:`spectral.amplitudes_ls`). ``diagnostics["fit_residual"]`` is
    the norm of the fit's misfit over the out-of-band bins n <= K/2,
    ||DFT(spikes)[n] + half[n]|| for P < n <= K/2, where half is the real
    half spectrum of the differenced samples: the other out-of-band bins
    are the conjugates of these.

    The support is the in-band l1 fit's where it is certified; else the
    Hankel grid search runs, and of the two supports the one whose fit
    leaves the strictly smaller residual is kept, the grid's on a tie.
    ``diagnostics["support_estimator"]`` names the estimator that found it
    (``"inband_l1"`` or ``"grid"``); see :func:`spectral.fit_spikes` for the
    order and the certificate. At M = 0 the fit has no spikes: the support
    is empty, the estimator None, and the residual is the norm of the
    out-of-band bins n <= K/2. The fit also checks the setting: a negative
    P or M raises ValueError, and K below 2(P+M+1) UndersampledError.
    Samples that hold NaN or inf, and a numerical failure of the fit such
    as a singular amplitude system on the grid's support, raise
    RecoveryError at step 4.

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
    # steps 1-4: the circular difference, its half spectrum and the spike
    # support and real amplitudes. A bad setting raises its own error; a
    # numerical failure of the fit raises LinAlgError
    try:
        k_hat, c_hat, residual, estimator = spectral.fit_spikes(y.values, P, M)
    except np.linalg.LinAlgError as exc:
        raise RecoveryError(str(exc), step=4) from exc

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
        diagnostics={"fit_residual": residual, "support_estimator": estimator},
    )


def _baseline_order(y: SampleVector, threshold, beta, Omega: float) -> int:
    """The baseline's difference order N at one threshold, by the selection
    rule. Raises as the unfolding would when the samples have no order-N
    difference."""
    N = folding.choose_order(threshold, beta, y.grid.T, Omega)
    if N >= y.grid.K:
        folding.finite_difference(y.values, N)  # raises its too-few-samples error
    return N


def _grid_orders(y: SampleVector, grid: np.ndarray, gamma_inf: float, Omega: float):
    """The order rule at every threshold of `grid` in one pass.

    Returns (betas, orders, failed): `folding.round_beta` and
    :func:`_baseline_order` at each threshold, with order 0 where the rule
    fails, and {grid index: error text} of those failures. A threshold
    whose elementwise `folding.choose_order` is not a finite order below K
    with beta >= threshold, or any threshold when T*Omega*e is not below 1,
    goes through the scalar rule, which gives its order or raises its own
    error.
    """
    rho = y.grid.T * Omega * _EULER
    with np.errstate(all="ignore"):  # what this pass cannot settle, the scalar rule does
        betas = folding.round_beta(gamma_inf, grid)
        orders = np.ceil(np.log(grid / betas) / np.log(rho) - 1e-12)
    np.maximum(orders, 1.0, out=orders)
    settled = (orders < y.grid.K) & (betas >= grid) & (rho < 1.0)
    failed = {}
    for i in np.flatnonzero(~settled).tolist():
        try:
            betas[i] = folding.round_beta(gamma_inf, grid[i])
            orders[i] = _baseline_order(y, grid[i], betas[i], Omega)
        except Exception as exc:  # record and keep scanning
            failed[i] = str(exc)
            orders[i] = 0
    return betas, orders.astype(int), failed


def _difference_ladder(values: np.ndarray, N: int) -> list:
    """[y, Delta y, ..., Delta^N y]: each linear difference is taken from the
    one before it, so the ladder costs N passes over the samples. High
    orders may overflow to inf, which the unfolding carries to a
    non-finite result."""
    diffs = [values]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(N):
            diffs.append(folding.finite_difference(diffs[-1], 1))
    return diffs


def _counts_exact(diffs: list, lam: float) -> bool:
    """Whether the fold counts of an unfolding of this ladder at thresholds
    of at least `lam` are small enough for the float ladder's rounding to
    recover every one exactly.

    A count bound D enters each stage: the top counts are at most
    max|Delta^N y|/2lam + 3/2. A stage's counts sum at most K of those,
    and its kappa adds at most max|Delta^n y|/2lam plus that sum plus 1,
    so the next bound is 2K*D + max|Delta^n y|/2lam + 1. The float ladder
    errs by at most about D*K*(K+3) units of 2**-53 before it rounds, so
    D*K*(K+4) < 2**51 keeps every rounding within a quarter of the nearest
    count. NaN or inf samples fail the guard.
    """
    K = len(diffs[0])
    top = diffs[-1]
    bound = float(max(top.max(), -top.min())) / (2.0 * lam) + 1.5
    for dy in diffs[-2:0:-1]:
        bound = 2.0 * K * bound + float(max(dy.max(), -dy.min())) / (2.0 * lam) + 1.0
    return bound * K * (K + 4) < 2.0**51


def _unfold(diffs: list, lam: np.ndarray, stats: bool = False):
    """The baseline's unfolding for a column of thresholds sharing one order.

    `diffs` is the difference ladder of the samples up to the order
    N = len(diffs) - 1, and `lam` an (R, 1) column of thresholds. Row r
    runs the modulo identity on Delta^N y at lam[r], snaps to the 2*lam[r]
    lattice and anti-differences N times, fixing each stage's constant by
    the kappa shift.

    The lattice points are integer fold counts times 2*lam. At the top the
    count is -floor(Delta^N y / 2lam + 1/2), and each stage's counts are
    the running sums of the counts below plus that stage's kappa. Where
    :func:`_counts_exact` holds, the counts are carried as exact integers
    in float64, and only the products and sums that build each stage's
    residue, `rebuilt` and kappa are taken in floating point. Elsewhere,
    and whenever `stats` asks for the snap distance and stage norms, the
    float ladder runs: a centered modulo at the top and a divide, round and
    multiply at each stage. Both paths give every row the values of a
    one-threshold float-ladder run; a zero may differ in sign on the
    integer path, which no score sees. The float ladder keeps the signs of
    that run, so :func:`usf_recover` takes it. The updates run in place,
    which changes no value, and overflow carries through as inf or NaN
    without a warning.

    Returns (residue rows (R, K), the rows y + residue, snap distances
    (R,), stage norms (R, N)); the last two are None without `stats`.
    Column n of the norms is the max norm of the rebuilt order-n
    difference.
    """
    N = len(diffs) - 1
    two_lam = 2.0 * lam
    dNy = diffs[N]
    snap = norms = None
    with np.errstate(over="ignore", invalid="ignore"):
        exact = not stats and _counts_exact(diffs, float(lam.min()))
        if exact:
            # -floor(u) for u = dNy/2lam + 1/2 as centered_modulo rounds it:
            # ceil(-u), with -u taken by negating both rounded steps
            counts = dNy / -two_lam
            counts -= 0.5
            np.ceil(counts, out=counts)
        else:
            eps = folding.centered_modulo(dNy, lam)
            eps -= dNy
            rho_n = np.round(eps / two_lam)
            rho_n *= two_lam
            if stats:
                eps -= rho_n
                snap = np.abs(eps, out=eps).max(axis=1, initial=0.0)
                norms = np.empty((len(lam), N))
        for n in range(N, 0, -1):
            if exact:
                counts = anti_difference(counts)
                rho_n = counts * two_lam
            else:
                rho_n = anti_difference(rho_n)
                rho_n /= two_lam
                np.round(rho_n, out=rho_n)
                rho_n *= two_lam
            dy = diffs[n - 1]
            rebuilt = dy + rho_n
            kappa = rebuilt.max(axis=1, keepdims=True)
            kappa += rebuilt.min(axis=1, keepdims=True)
            kappa = np.round(-kappa / (4.0 * lam))
            rho_n += two_lam * kappa
            np.add(dy, rho_n, out=rebuilt)
            if exact and n > 1:
                counts += kappa
            if stats:
                # max|x| is max(max x, -min x) exactly, without an abs pass
                norms[:, n - 1] = np.maximum(rebuilt.max(axis=1), -rebuilt.min(axis=1))
    return rho_n, rebuilt, snap, norms


def usf_recover(
    y: SampleVector,
    threshold: float,
    Omega: float,
    beta: float,
    strict: bool = True,
) -> RecoveryReport:
    """Baseline unfolding through higher-order finite differences.

    Estimates the order-N difference of the residue from the modulo identity,
    with N from the selection rule (`folding.choose_order`), then
    anti-differences N times and returns the zero-mean estimate. At each
    integration stage the unknown constant (a multiple of 2*threshold) is
    fixed by minimizing the max norm of the partially reconstructed
    differences, which the bandlimited shrinkage bound (T*Omega*e)^n * beta
    keeps small for genuine signals; beta bounds max|gamma| (see
    `folding.round_beta`). This is the one-threshold run of the kernel that
    :func:`optimize_lambda` runs over a whole threshold grid at once.

    With `strict`, a stage whose best constant still violates that bound,
    or whose norm is NaN because the unfolding overflowed, raises
    FoldConsistencyError, naming the first such stage from order N-1 down:
    the data is inconsistent with ideal 2*threshold folds. This run alone
    reports the snap distance and stage norms, so it takes the kernel's
    float ladder.
    """
    rho = y.grid.T * Omega * _EULER
    N = _baseline_order(y, threshold, beta, Omega)
    diagnostics: dict = {"N": N, "threshold": threshold, "T_Omega_e": rho}

    residue, raw_gamma, snap, norms = _unfold(
        _difference_ladder(y.values, N), np.full((1, 1), threshold), stats=True
    )
    diagnostics["snap_distance"] = float(snap[0])
    bound_slack = 1e-6 * beta
    for n in range(N - 1, -1, -1):
        stage_norm = float(norms[0, n])
        stage_bound = rho**n * beta
        diagnostics[f"stage_{n}_excess"] = stage_norm - stage_bound
        # a NaN norm, from an unfolding that overflowed, fails the check too
        if strict and not stage_norm <= stage_bound + bound_slack:
            raise FoldConsistencyError(
                f"stage {n}: reconstructed difference norm {stage_norm:.6g} "
                f"exceeds the bandlimited bound {stage_bound:.6g}; data is "
                "inconsistent with ideal folds"
            )

    return RecoveryReport(
        gamma_hat=y.with_values(raw_gamma[0] - np.mean(raw_gamma[0])),
        residue_hat=y.with_values(residue[0]),
        support=None,
        amplitudes=None,
        method="usf",
        diagnostics=diagnostics,
    )


def _grid_mse(y: SampleVector, gamma_ref: SampleVector, Omega: float, grid):
    """The baseline at every threshold of `grid`, scored against gamma_ref.

    Returns (mse, betas, failed): the calibrated MSE and the max-norm bound
    of each threshold, and {grid index: error text} of the thresholds that
    fail, in grid order. A threshold fails when its order fails (its mse
    entry is NaN) or when its score is not finite because the unfolding
    overflowed (the entry keeps that score). The order rule runs over the
    whole grid at once (:func:`_grid_orders`), and the rest run in one
    batch per order, in blocks of at most _BLOCK_CELLS samples.
    """
    gamma_inf = float(np.max(np.abs(gamma_ref.values)))
    betas, orders, failed = _grid_orders(y, grid, gamma_inf, Omega)

    # row-wise, in place, and in the order of calibrated_mse's own operations
    ref = gamma_ref.values
    ref_mean = np.mean(ref)
    mse_of = np.full(len(grid), np.nan)
    diffs = _difference_ladder(y.values, orders.max(initial=0))
    per_block = max(1, _BLOCK_CELLS // y.grid.K)
    for n in np.unique(orders[orders > 0]).tolist():
        rows = np.flatnonzero(orders == n)
        for start in range(0, len(rows), per_block):
            block = rows[start:start + per_block]
            _, raw, _, _ = _unfold(diffs[:n + 1], grid[block][:, None])
            with np.errstate(over="ignore", invalid="ignore"):
                raw -= raw.mean(axis=1, keepdims=True)  # usf_recover's gamma_hat
                raw -= raw.mean(axis=1, keepdims=True)  # calibrated_mse from here on
                raw += ref_mean
                raw -= ref
                # x*x is |x|**2 exactly for real x
                mse_of[block] = np.square(raw, out=raw).mean(axis=1)
    for i in np.flatnonzero((orders > 0) & ~np.isfinite(mse_of)).tolist():
        failed[i] = f"non-finite calibrated MSE {mse_of[i]}"
    return mse_of, betas, dict(sorted(failed.items()))


def optimize_lambda(
    y: SampleVector,
    gamma_ref: SampleVector,
    Omega: float,
    lo: float,
    hi: float,
    step: float,
):
    """Grid search for the folding threshold minimizing the calibrated MSE of
    the baseline reconstruction against a reference; ties break toward the
    smallest threshold. Returns the threshold and its zero-mean report.

    The grid is lo, lo+step, ... up to hi. A threshold whose difference
    order fails, or whose score is not finite, is skipped, so the optimum
    is the least finite score; RecoveryError names the first failure in
    grid order when no score is finite. The thresholds run through the
    kernel behind :func:`usf_recover` in batches that share an order,
    mostly on exact integer fold counts, and each scores bitwise as its own
    :func:`usf_recover` run would; the report is that run at the optimum.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValueError(f"need finite lo, hi and step, got {lo!r}, {hi!r}, {step!r}")
    if lo <= 0 or hi < lo or step <= 0:
        raise ValueError("need 0 < lo <= hi and step > 0")
    if gamma_ref.grid != y.grid:
        raise ValueError("gamma_ref must share the grid of y")
    grid = np.arange(lo, hi + 0.5 * step, step)
    mse_of, betas, failed = _grid_mse(y, gamma_ref, Omega, grid)
    best = None
    for i, err in enumerate(mse_of):
        if i not in failed and (best is None or err < mse_of[best] - 1e-15):
            best = i
    if best is None:
        first = [(float(grid[i]), text) for i, text in failed.items()][:1]
        raise RecoveryError(f"every threshold in [{lo}, {hi}] failed; first error: {first}")
    lam_opt = float(grid[best])
    report = usf_recover(y, grid[best], Omega, betas[best], strict=False)
    report.diagnostics["lambda_opt"] = lam_opt
    report.diagnostics["lambda_opt_mse"] = float(mse_of[best])
    return lam_opt, replace(report, method="usf_opt")
