"""Centered modulo nonlinearity, ideal and generalized folding models,
finite differences and the baseline order-selection rule.

A residue's jumps are kept as grid indices: folds lie on the sampling grid
by model, so no fold instant is ever held in seconds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import OversamplingInsufficientError
from .signal_model import SampleVector

_EULER = float(np.e)


@dataclass(frozen=True, eq=False)  # array fields: == would be elementwise
class ResidueSpec:
    """Piecewise-constant residue on one period of a K-point sampling grid.

    Jump m adds c[m] to every sample from grid index k[m] on. The indices
    are strictly increasing integers in [0, K); tau is the period in
    seconds, so jump m happens at k[m] * tau / K.
    """

    k: np.ndarray
    c: np.ndarray
    K: int
    tau: float

    def __post_init__(self):
        k = np.asarray(self.k)
        if k.size and k.dtype.kind not in "iu":
            raise ValueError(f"fold indices must be integers, got {k.dtype}")
        k = k.astype(np.intp)
        c = np.array(self.c, dtype=float)
        if k.ndim != 1 or c.shape != k.shape:
            raise ValueError(f"k and c must be 1-D and match, got {k.shape}, {c.shape}")
        if self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K}")
        if np.count_nonzero(k[1:] <= k[:-1]):
            raise ValueError("fold indices must be strictly increasing")
        if k.size and (k[0] < 0 or k[-1] >= self.K):
            raise ValueError(f"fold indices must lie in [0, K={self.K})")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "c", c)

    @property
    def M(self) -> int:
        return len(self.k)

    def values(self) -> np.ndarray:
        """The K residue samples: r[n] is the sum of the jumps with k[m] <= n,
        added in jump order."""
        return np.bincount(self.k, weights=self.c, minlength=self.K).cumsum()


@dataclass(frozen=True)
class NonIdealityConfig:
    """Hardware-artifact surrogate: fold delays, threshold jitter and
    spurious jumps."""

    delay_max_samples: int = 0
    threshold_jitter: float = 0.0
    spurious_rate: float = 0.0
    spurious_amp_max: float = 0.0

    def __post_init__(self):
        if self.delay_max_samples < 0:
            raise ValueError("delay_max_samples must be >= 0")
        if not 0.0 <= self.threshold_jitter < 1.0:
            raise ValueError("threshold_jitter must lie in [0, 1)")
        if not 0 <= self.spurious_rate < np.inf:
            raise ValueError(f"spurious_rate must be finite and >= 0, got {self.spurious_rate!r}")
        if not 0 <= self.spurious_amp_max < np.inf:
            raise ValueError(
                f"spurious_amp_max must be finite and >= 0, got {self.spurious_amp_max!r}"
            )


def centered_modulo(x, threshold):
    """Centered modulo: wrap x into [-threshold, threshold).

    Computes 2*lam*(frac(x/2lam + 1/2) - 1/2) with frac(u) = u - floor(u).
    The threshold may be an array that broadcasts against x, such as a
    column of thresholds for rows of copies of x.
    """
    lam = threshold
    # numpy reductions would cost more than the wrap itself on short inputs
    if (lam <= 0).any() if isinstance(lam, np.ndarray) else lam <= 0:
        raise ValueError("threshold must be positive")
    u = np.asarray(x, dtype=float) / (2.0 * lam) + 0.5
    out = 2.0 * lam * ((u - np.floor(u)) - 0.5)
    return out if np.ndim(out) else float(out)


def fold_ideal(gamma: SampleVector, threshold: float):
    """Ideal modulo folding and its residue.

    Returns (y, residue) with y = centered modulo of the samples and
    residue = gamma - y snapped to the exact 2*lambda grid.
    """
    values = gamma.values
    residue = values - centered_modulo(values, threshold)
    k = (residue / (2.0 * threshold)).round()
    snapped = 2.0 * threshold * k
    # array methods, not the np.max / np.maximum wrappers: on grids of tens
    # of samples the wrappers' dispatch is most of the cost
    if abs(residue - snapped).max(initial=0.0) > 1e-9 * threshold * abs(k).max(initial=1.0):
        raise AssertionError("ideal residue fell off the 2*lambda grid")
    return gamma.with_values(values - snapped), gamma.with_values(snapped)


def residue_spec_from_samples(residue: SampleVector, tau: float) -> ResidueSpec:
    """Jumps of residue samples: one at each grid index where the samples
    change (the residue before the first sample is 0)."""
    r = residue.values
    jumps = r.copy()  # r[0] - 0.0 is r[0]
    jumps[1:] -= r[:-1]
    k = jumps.nonzero()[0]
    return ResidueSpec(k=k, c=jumps[k], K=residue.grid.K, tau=tau)


def apply_residue(gamma: SampleVector, spec: ResidueSpec) -> SampleVector:
    """Generalized (non-ideal) folding: y[k] = gamma[k] - r[k].

    Jump amplitudes are unconstrained reals, so this covers residues off the
    2*lambda grid.
    """
    if spec.K != gamma.grid.K:
        raise ValueError(f"fold spec has K={spec.K}, the samples K={gamma.grid.K}")
    return gamma.with_values(gamma.values - spec.values())


def perturb_folds(ideal: ResidueSpec, cfg: NonIdealityConfig, seed) -> ResidueSpec:
    """Apply the non-ideality model to an ideal fold specification.

    Each jump is delayed by a uniform integer number of grid steps in
    [0, delay_max_samples] (wrapping at the period boundary), its amplitude
    is scaled by (1 + eta) with eta uniform in +-threshold_jitter, and
    Poisson(spurious_rate) extra jumps at uniform grid indices with uniform
    amplitudes in +-spurious_amp_max are added. Jumps that land on the same
    index merge by summing their amplitudes, in draw order; a merged jump
    of exactly zero is dropped. An all-zero config returns the ideal jumps.
    """
    rng = np.random.default_rng(seed)
    K = ideal.K
    k, c = ideal.k.tolist(), ideal.c.tolist()
    # one event at a time, so the draws keep their per-event order
    for m in range(ideal.M):
        if cfg.delay_max_samples > 0:
            k[m] = (k[m] + int(rng.integers(0, cfg.delay_max_samples + 1))) % K
        if cfg.threshold_jitter > 0:
            eta = rng.uniform(-cfg.threshold_jitter, cfg.threshold_jitter)
            c[m] = c[m] * (1.0 + eta)
    if cfg.spurious_rate > 0:
        for _ in range(int(rng.poisson(cfg.spurious_rate))):
            k.append(int(rng.integers(0, K)))
            c.append(rng.uniform(-cfg.spurious_amp_max, cfg.spurious_amp_max))
    merged = np.bincount(np.asarray(k, dtype=np.intp), weights=c, minlength=K)
    k_out = merged.nonzero()[0]
    return ResidueSpec(k=k_out, c=merged[k_out], K=K, tau=ideal.tau)


def finite_difference(s, N: int, circular: bool = False) -> np.ndarray:
    """Order-N forward finite difference.

    Linear mode returns len(s) - N values; circular mode uses the periodic
    extension s[K] == s[0] and keeps the length.
    """
    if N < 1:
        raise ValueError("difference order must be >= 1")
    out = np.asarray(s, dtype=float)
    if not circular and len(out) <= N:
        raise ValueError(f"need more than N={N} samples, got {len(out)}")
    for _ in range(N):
        if circular:
            out = np.concatenate((out[1:], out[:1])) - out
        else:
            out = out[1:] - out[:-1]
    return out


def choose_order(threshold: float, beta: float, T: float, Omega: float) -> int:
    """Smallest difference order N >= 1 meeting the baseline selection rule
    ceil((log lam - log beta) / log(T Omega e)), valid only for
    T * Omega * e < 1."""
    rho = T * Omega * _EULER
    if rho >= 1.0:
        raise OversamplingInsufficientError(
            f"T*Omega*e = {rho:.6g} >= 1; baseline order rule has no solution"
        )
    if beta < threshold:
        raise ValueError("beta must be >= threshold")
    if rho == 0:  # a constant signal: its first difference vanishes
        return 1
    n = int(np.ceil(np.log(threshold / beta) / np.log(rho) - 1e-12))
    return max(n, 1)


def round_beta(gamma_inf: float, threshold):
    """Round a max-norm bound up to the nearest positive multiple of
    2*threshold, as the order rule requires. The threshold may be an array
    of thresholds; a NaN multiple counts as one step."""
    return 2.0 * threshold * np.fmax(1.0, np.ceil(gamma_inf / (2.0 * threshold)))
