"""Centered modulo nonlinearity, ideal and generalized folding models,
finite differences and the baseline order-selection rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import OversamplingInsufficientError
from .signal_model import SampleVector

_EULER = float(np.e)


@dataclass(frozen=True)
class ResidueSpec:
    """Piecewise-constant residue on one period, as sorted jump events.

    Each event (t_m, c_m) contributes a step c_m * 1_{t >= t_m}; instants
    live in [0, tau) and, when attached to a grid, on integer multiples of
    the grid step.
    """

    events: tuple
    tau: float

    def __post_init__(self):
        events = tuple((float(t), float(c)) for t, c in self.events)
        instants = [t for t, _ in events]
        if any(t1 <= t0 for t0, t1 in zip(instants, instants[1:])):
            raise ValueError("event instants must be strictly increasing")
        if instants and (instants[0] < 0 or instants[-1] >= self.tau):
            raise ValueError("event instants must lie in [0, tau)")
        object.__setattr__(self, "events", events)

    @property
    def M(self) -> int:
        return len(self.events)

    def instants(self) -> np.ndarray:
        return np.array([t for t, _ in self.events], dtype=float)

    def amplitudes(self) -> np.ndarray:
        return np.array([c for _, c in self.events], dtype=float)

    def step_values(self, times: np.ndarray) -> np.ndarray:
        """r(t) = sum of jumps with t_m <= t, evaluated at the given times."""
        # levels[n] is the sum of the first n jumps, added in event order
        levels = np.cumsum(np.concatenate(([0.0], self.amplitudes())))
        n = np.searchsorted(self.instants() - 1e-12 * self.tau, times, side="right")
        return levels[n]


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
        if self.spurious_rate < 0:
            raise ValueError("spurious_rate must be >= 0")
        if self.spurious_amp_max < 0:
            raise ValueError("spurious_amp_max must be >= 0")


def centered_modulo(x, threshold: float):
    """Centered modulo: wrap x into [-threshold, threshold).

    Computes 2*lam*(frac(x/2lam + 1/2) - 1/2) with frac(u) = u - floor(u).
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    lam = threshold
    u = np.asarray(x, dtype=float) / (2.0 * lam) + 0.5
    out = 2.0 * lam * ((u - np.floor(u)) - 0.5)
    return out if np.ndim(x) else float(out)


def fold_ideal(gamma: SampleVector, threshold: float):
    """Ideal modulo folding and its residue.

    Returns (y, residue) with y = centered modulo of the samples and
    residue = gamma - y snapped to the exact 2*lambda grid.
    """
    y = centered_modulo(gamma.values, threshold)
    residue = gamma.values - y
    k = np.round(residue / (2.0 * threshold))
    snapped = 2.0 * threshold * k
    if np.max(np.abs(residue - snapped), initial=0.0) > 1e-9 * threshold * np.maximum(
        1.0, np.max(np.abs(k), initial=0.0)
    ):
        raise AssertionError("ideal residue fell off the 2*lambda grid")
    return gamma.with_values(gamma.values - snapped), gamma.with_values(snapped)


def residue_spec_from_samples(residue: SampleVector, tau: float) -> ResidueSpec:
    """Convert residue samples to jump events at the grid instants where the
    step function changes."""
    r = residue.values
    jumps = r - np.concatenate(([0.0], r[:-1]))  # r before the first sample is 0
    k = jumps.nonzero()[0]
    events = zip((k * residue.grid.T).tolist(), jumps[k].tolist())
    return ResidueSpec(events=tuple(events), tau=tau)


def apply_residue(gamma: SampleVector, spec: ResidueSpec) -> SampleVector:
    """Generalized (non-ideal) folding: y[k] = gamma[k] - r(kT).

    Jump amplitudes are unconstrained reals, so this covers residues off the
    2*lambda grid.
    """
    T = gamma.grid.T
    for t_m, _ in spec.events:
        if abs(t_m / T - round(t_m / T)) > 1e-6:
            raise ValueError(f"event instant {t_m} is not aligned to the grid")
    r = spec.step_values(gamma.grid.times)
    return gamma.with_values(gamma.values - r)


def perturb_folds(ideal: ResidueSpec, cfg: NonIdealityConfig, T: float, seed) -> ResidueSpec:
    """Apply the non-ideality model to an ideal fold specification.

    Each event is delayed by a uniform integer number of grid steps in
    [0, delay_max_samples] (wrapping at the period boundary), its amplitude
    is scaled by (1 + eta) with eta uniform in +-threshold_jitter, and
    Poisson(spurious_rate) extra grid-aligned events with uniform amplitudes
    in +-spurious_amp_max are inserted. Colliding instants merge by summing
    amplitudes.
    """
    rng = np.random.default_rng(seed)
    tau = ideal.tau
    K = int(round(tau / T))
    merged: dict[int, float] = {}

    def add(k: int, c: float):
        merged[k] = merged.get(k, 0.0) + c

    for t_m, c_m in ideal.events:
        k = int(round(t_m / T))
        if cfg.delay_max_samples > 0:
            k = (k + int(rng.integers(0, cfg.delay_max_samples + 1))) % K
        if cfg.threshold_jitter > 0:
            c_m = c_m * (1.0 + rng.uniform(-cfg.threshold_jitter, cfg.threshold_jitter))
        add(k, c_m)
    if cfg.spurious_rate > 0:
        for _ in range(int(rng.poisson(cfg.spurious_rate))):
            add(int(rng.integers(0, K)), rng.uniform(-cfg.spurious_amp_max, cfg.spurious_amp_max))
    events = tuple(
        (k * T, c) for k, c in sorted(merged.items()) if c != 0.0
    )
    return ResidueSpec(events=events, tau=tau)


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
            out = np.roll(out, -1) - out
        else:
            out = out[1:] - out[:-1]
    return out


def choose_order(threshold: float, beta_g: float, T: float, Omega: float) -> int:
    """Smallest difference order N >= 1 meeting the baseline selection rule
    ceil((log lam - log beta_g) / log(T Omega e)), valid only for
    T * Omega * e < 1."""
    rho = T * Omega * _EULER
    if rho >= 1.0:
        raise OversamplingInsufficientError(
            f"T*Omega*e = {rho:.6g} >= 1; baseline order rule has no solution"
        )
    if beta_g < threshold:
        raise ValueError("beta_g must be >= threshold")
    n = int(np.ceil(np.log(threshold / beta_g) / np.log(rho) - 1e-12))
    return max(n, 1)


def round_beta(gamma_inf: float, threshold: float) -> float:
    """Round a max-norm bound up to the nearest positive multiple of
    2*threshold, as the order rule requires."""
    return 2.0 * threshold * max(1.0, np.ceil(gamma_inf / (2.0 * threshold)))
