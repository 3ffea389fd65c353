"""Periodic bandlimited signals (trigonometric polynomials): synthesis,
sampling, quantization and dynamic range."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative tolerance used to verify that evaluated signals are real
_REAL_RTOL = 1e-9
_REAL_ATOL = 1e-12

# grid size used to estimate the max amplitude during synthesis
_MAX_EST_GRID = 16384


@dataclass(frozen=True)
class TrigPolynomial:
    """A tau-periodic bandlimited signal g(t) = sum_{|p|<=P} c_p exp(j p w0 t).

    Parameters
    ----------
    tau : float
        Period in seconds, > 0.
    P : int
        Highest harmonic index (bandwidth index), >= 0.
    coeffs : ndarray
        Complex Fourier coefficients for p = -P..P (length 2P+1), with
        Hermitian symmetry c_{-p} = conj(c_p) so the signal is real.
    """

    tau: float
    P: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.P < 0:
            raise ValueError(f"P must be nonnegative, got {self.P}")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (2 * self.P + 1,):
            raise ValueError(
                f"coeffs must have length 2P+1={2 * self.P + 1}, got {coeffs.shape}"
            )
        scale = max(np.max(np.abs(coeffs)), 1.0)
        if not np.allclose(coeffs[::-1], np.conj(coeffs), atol=1e-12 * scale):
            raise ValueError("coeffs must be Hermitian symmetric (real signal)")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def omega0(self) -> float:
        """Fundamental harmonic 2*pi/tau in rad/s."""
        return 2.0 * np.pi / self.tau


@dataclass(frozen=True)
class UniformGrid:
    """Uniform sampling lattice with step T and K samples."""

    T: float
    K: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K}")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.K) * self.T

    @property
    def span(self) -> float:
        """K * T, the covered interval length."""
        return self.K * self.T


@dataclass(frozen=True)
class SampleVector:
    """Real-valued samples attached to the grid that produced them."""

    values: np.ndarray
    grid: UniformGrid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.K,):
            raise ValueError(
                f"expected {self.grid.K} samples, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.grid.K

    def with_values(self, values: np.ndarray) -> "SampleVector":
        return SampleVector(values=values, grid=self.grid)


def synthesize_random(P: int, tau: float, amplitude: float, seed) -> TrigPolynomial:
    """Draw a random real trigonometric polynomial with max |g(t)| ~ amplitude.

    Coefficients for p = 1..P are complex Gaussian, the DC term is real
    Gaussian, negative harmonics follow by conjugation, and everything is
    rescaled so the dense-grid maximum of |g| equals `amplitude` (1% accurate
    by construction of the estimation grid). The dense grid is the
    N = 16384 points k*tau/N, evaluated by :func:`_on_grid` with one
    half-spectrum inverse real FFT; for 2P+1 > N, harmonics p and p + N
    would share a bin and the peak would be that of the aliased samples.
    """
    if P < 0:
        raise ValueError(f"P must be nonnegative, got {P}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(2 * P + 1, dtype=complex)
    coeffs[P] = rng.standard_normal()
    if P > 0:
        pos = rng.standard_normal(P) + 1j * rng.standard_normal(P)
        coeffs[P + 1 :] = pos
        coeffs[:P] = np.conj(pos[::-1])
    if not np.any(np.abs(coeffs) > 0):  # pathological draw, keep it valid
        coeffs[P] = 1.0
    g = TrigPolynomial(tau=tau, P=P, coeffs=coeffs)
    peak = np.max(np.abs(_on_grid(g, _MAX_EST_GRID)))
    return TrigPolynomial(tau=tau, P=P, coeffs=coeffs * (amplitude / peak))


def evaluate(g: TrigPolynomial, t) -> np.ndarray | float:
    """Evaluate g at time(s) t; the (verified negligible) imaginary part is
    discarded."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    p = np.arange(-g.P, g.P + 1)
    phases = np.exp(1j * g.omega0 * np.outer(t_arr, p))
    out = _real_part(g, phases @ g.coeffs)
    return out if np.ndim(t) else float(out[0])


def _on_grid(g: TrigPolynomial, N: int) -> np.ndarray:
    """g at the N points k*tau/N, k = 0..N-1.

    The coefficients are placed at bins p mod N; coefficients that share a
    bin (N < 2P+1) add, as sampling at that rate aliases them. The placed
    spectrum is Hermitian, so one inverse real FFT of its bins 0..N//2
    gives the samples. That transform drops the imaginary part a
    non-Hermitian spectrum would carry, so the coefficients are checked
    first: half the sum of |c_p - conj(c_-p)| bounds that imaginary part,
    and it must lie within the tolerance :func:`evaluate` allows.
    """
    c = g.coeffs
    if 0.5 * np.sum(np.abs(c - np.conj(c[::-1]))) > (
        _REAL_RTOL * np.sum(np.abs(c)) + _REAL_ATOL
    ):
        raise AssertionError("coefficients would give a non-negligible imaginary part")
    spec = np.zeros(N, dtype=complex)
    np.add.at(spec, np.arange(-g.P, g.P + 1) % N, c)
    return np.fft.irfft(spec[: N // 2 + 1], n=N) * N


def _real_part(g: TrigPolynomial, vals: np.ndarray) -> np.ndarray:
    """Real part of values of g, after checking the imaginary part is
    roundoff."""
    im_bound = _REAL_RTOL * np.abs(vals.real) + _REAL_ATOL
    # allow for accumulated roundoff on large coefficient sums
    im_bound += _REAL_RTOL * np.sum(np.abs(g.coeffs))
    if np.any(np.abs(vals.imag) > im_bound):
        raise AssertionError("evaluation produced a non-negligible imaginary part")
    return vals.real


def sample(g: TrigPolynomial, grid: UniformGrid) -> SampleVector:
    """Sample one period of g on a K-point grid with K*T == tau.

    The samples g(k*tau/K) come from one inverse real FFT of the bins
    0..K//2 of the coefficients placed at bins p mod K, after the Hermitian
    check of :func:`_on_grid`. With K < 2P+1, harmonics p and p + K fall
    in the same bin and add, which is the aliasing of sampling at that
    rate.
    """
    if abs(grid.span - g.tau) > 1e-9 * g.tau:
        raise ValueError(
            f"grid span K*T={grid.span!r} does not match the period tau={g.tau!r}"
        )
    return SampleVector(values=_on_grid(g, grid.K), grid=grid)


def quantize(samples: SampleVector, bits: int, full_scale: float) -> SampleVector:
    """Mid-rise uniform quantizer over [-full_scale, +full_scale].

    2**bits levels with step q = 2*full_scale / 2**bits; out-of-range inputs
    clip to the extreme levels.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if full_scale <= 0:
        raise ValueError(f"full_scale must be positive, got {full_scale}")
    q = 2.0 * full_scale / (2**bits)
    half_levels = 2 ** (bits - 1)
    idx = np.floor(samples.values / q)
    idx = np.clip(idx, -half_levels, half_levels - 1)
    return samples.with_values((idx + 0.5) * q)


def dynamic_range(samples: SampleVector) -> float:
    """Peak-to-peak value max - min of the samples."""
    if len(samples) < 1:
        raise ValueError("dynamic_range of an empty sample vector")
    return float(np.max(samples.values) - np.min(samples.values))
