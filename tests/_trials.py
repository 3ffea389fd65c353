"""Shared synthetic-trial generators for the test suite.

A "trial" is one period of a random bandlimited signal, folded ideally at a
threshold, with the sample count K tied to the realized fold count M through
the recovery bound K = k_factor*(P+M+1) + extra. Because M itself depends on
the grid, the generator iterates K to a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modsample import folding, harness, signal_model


@dataclass(frozen=True)
class Trial:
    g: signal_model.TrigPolynomial
    grid: signal_model.UniformGrid
    gamma: signal_model.SampleVector
    y: signal_model.SampleVector
    spec: folding.ResidueSpec
    M: int
    P: int
    threshold: float

    @property
    def tau(self) -> float:
        return self.g.tau

    @property
    def Omega(self) -> float:
        return 2.0 * np.pi * self.P / self.tau


def fixpoint_trial(
    seed,
    P: int,
    amplitude: float,
    threshold: float = 1.0,
    tau: float = 1.0,
    k_factor: int = 2,
    extra: int = 2,
    M_guess: int = 1,
    max_iter: int = 30,
):
    """Build a trial with K = k_factor*(P+M+1)+extra consistent with the
    realized circular-difference fold count M, or None if the iteration
    does not settle."""
    g = signal_model.synthesize_random(P, tau, amplitude, seed)
    for _ in range(max_iter):
        K = k_factor * (P + M_guess + 1) + extra
        grid = signal_model.UniformGrid(T=tau / K, K=K)
        gamma = signal_model.sample(g, grid)
        y, residue = folding.fold_ideal(gamma, threshold)
        spec = folding.residue_spec_from_samples(residue, tau)
        M = harness.realized_fold_count(spec, grid)
        if M == M_guess:
            return Trial(
                g=g, grid=grid, gamma=gamma, y=y, spec=spec,
                M=M, P=P, threshold=threshold,
            )
        M_guess = M
    return None


def ideal_trials(
    n: int,
    seed0: int = 0,
    P_range=(1, 15),
    M_range=(1, 20),
    amp_range=(3.0, 8.0),
    threshold: float = 1.0,
    **kwargs,
):
    """Deterministic scan over seeds collecting n fixed-point trials whose
    parameters fall in the requested ranges."""
    trials = []
    seed = seed0
    while len(trials) < n:
        rng = np.random.default_rng(seed)
        P = int(rng.integers(P_range[0], P_range[1] + 1))
        amp = threshold * float(rng.uniform(*amp_range))
        trial = fixpoint_trial(seed, P, amp, threshold=threshold, **kwargs)
        seed += 1
        if trial is not None and M_range[0] <= trial.M <= M_range[1]:
            trials.append(trial)
        if seed - seed0 > 50 * n:
            raise RuntimeError(f"could not collect {n} trials in {seed - seed0} seeds")
    return trials


def add_spurious_jump(spec: folding.ResidueSpec, grid, rng) -> folding.ResidueSpec:
    """Insert exactly one extra jump at a free grid index with an amplitude
    off the 2*lambda lattice."""
    free = np.setdiff1d(np.arange(grid.K), spec.k)
    k_sp = free[int(rng.integers(len(free)))]
    amp = float(rng.uniform(0.3, 1.5)) * float(rng.choice([-1.0, 1.0]))
    at = np.searchsorted(spec.k, k_sp)
    return folding.ResidueSpec(
        k=np.insert(spec.k, at, k_sp), c=np.insert(spec.c, at, amp),
        K=spec.K, tau=spec.tau,
    )


def nonideal_trials(n: int, seed0: int = 0, **kwargs):
    """Trials from :func:`ideal_trials` with 20% amplitude jitter, fold
    delays up to 2 samples and exactly one spurious jump applied, keeping
    only cases where the perturbed fold count still fits the trial's K."""
    cfg = folding.NonIdealityConfig(delay_max_samples=2, threshold_jitter=0.2)
    out = []
    seed = seed0
    while len(out) < n:
        rng = np.random.default_rng(seed)
        P = int(rng.integers(1, 16))
        amp = float(rng.uniform(3.0, 8.0))
        trial = fixpoint_trial(seed, P, amp, threshold=1.0, **kwargs)
        seed += 1
        if trial is None or not 1 <= trial.M <= 20:
            continue
        spec2 = folding.perturb_folds(trial.spec, cfg, seed=seed + 10_000)
        spec2 = add_spurious_jump(spec2, trial.grid, np.random.default_rng(seed + 20_000))
        M2 = harness.realized_fold_count(spec2, trial.grid)
        if trial.grid.K < 2 * (trial.P + M2 + 1):
            continue
        y2 = folding.apply_residue(trial.gamma, spec2)
        out.append((trial, spec2, y2, M2))
        if seed - seed0 > 100 * n:
            raise RuntimeError(f"could not collect {n} non-ideal trials")
    return out


def dense_capture(g: signal_model.TrigPolynomial, K: int, M_target: int) -> Trial:
    """Ideal folds of one period of g on a K-point grid at the smallest
    threshold (found by bisection, to 2**-60 of the peak) whose folds make
    at most M_target spikes after circular differencing: the dense tier,
    where folds come as close as one sample."""
    grid = signal_model.UniformGrid(T=g.tau / K, K=K)
    gamma = signal_model.sample(g, grid)
    peak = float(np.max(np.abs(gamma.values)))

    def fold(threshold):
        y, residue = folding.fold_ideal(gamma, threshold)
        spec = folding.residue_spec_from_samples(residue, g.tau)
        return y, spec, harness.realized_fold_count(spec, grid)

    lo, hi = 1e-6 * peak, 2.0 * peak
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fold(mid)[2] > M_target else (lo, mid)
    y, spec, M = fold(hi)
    return Trial(g=g, grid=grid, gamma=gamma, y=y, spec=spec, M=M, P=g.P, threshold=hi)


def dense_draws(K: int, M_target: int, n: int = 4):
    """The dense draws of acceptance criterion 10 at one (K, M_target): n
    captures keyed [K, M_target, draw] with P drawn in [1, 15], the odd
    draws with folds delayed by up to 2 samples, scaled by 1 +- 0.2 and one
    spurious jump added. Returns (key, gamma, y, P, M) per draw."""
    cfg = folding.NonIdealityConfig(delay_max_samples=2, threshold_jitter=0.2)
    draws = []
    for draw in range(n):
        key = [K, M_target, draw]
        rng = np.random.default_rng(key)
        P = int(rng.integers(1, 16))
        trial = dense_capture(signal_model.synthesize_random(P, 1.0, 1.0, key), K, M_target)
        y, M = trial.y, trial.M
        if draw % 2:
            spec = folding.perturb_folds(trial.spec, cfg, seed=key + [1])
            spec = add_spurious_jump(spec, trial.grid, rng)
            y = folding.apply_residue(trial.gamma, spec)
            M = harness.realized_fold_count(spec, trial.grid)
        draws.append((key, trial.gamma, y, P, M))
    return draws
