"""Periodic bandlimited signals (trigonometric polynomials): synthesis,
sampling, Fourier-domain interpolation, quantization and dynamic range."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import UndersampledError

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

    @property
    def omega_max(self) -> float:
        """Highest angular frequency P * omega0 in rad/s."""
        return self.P * self.omega0


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
        return SampleVector(values=np.asarray(values, dtype=float), grid=self.grid)


def synthesize_random(P: int, tau: float, amplitude: float, seed) -> TrigPolynomial:
    """Draw a random real trigonometric polynomial with max |g(t)| ~ amplitude.

    Coefficients for p = 1..P are complex Gaussian, the DC term is real
    Gaussian, negative harmonics follow by conjugation, and everything is
    rescaled so the dense-grid maximum of |g| equals `amplitude` (1% accurate
    by construction of the estimation grid). The dense grid is the
    N = 16384 points k*tau/N, evaluated with one inverse FFT of the
    coefficients placed at bins p mod N; for 2P+1 > N, harmonics p and
    p + N would share a bin and the peak would be that of the aliased
    samples.
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
    """g at the N points k*tau/N, k = 0..N-1, by one inverse FFT of the
    coefficients placed at bins p mod N; coefficients that share a bin
    (N < 2P+1) add, as sampling at that rate aliases them."""
    spec = np.zeros(N, dtype=complex)
    np.add.at(spec, np.arange(-g.P, g.P + 1) % N, g.coeffs)
    return _real_part(g, np.fft.ifft(spec) * N)


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

    The samples g(k*tau/K) come from one inverse FFT of the coefficients
    placed at bins p mod K. With K < 2P+1, harmonics p and p + K fall in
    the same bin and add, which is the aliasing of sampling at that rate.
    """
    if abs(grid.span - g.tau) > 1e-9 * g.tau:
        raise ValueError(
            f"grid span K*T={grid.span!r} does not match the period tau={g.tau!r}"
        )
    return SampleVector(values=_on_grid(g, grid.K), grid=grid)


def interpolate(samples: SampleVector, P: int, t_query) -> np.ndarray | float:
    """Bandlimited interpolation of one-period samples at arbitrary times.

    Works in the Fourier domain: the K-point DFT is restricted to the 2P+1
    in-band bins and re-evaluated as a trigonometric polynomial. Exact for
    noiseless samples of a degree-P signal.
    """
    K = samples.grid.K
    if K < 2 * P + 1:
        raise UndersampledError(f"K={K} < 2P+1={2 * P + 1} samples")
    p_idx = np.arange(-P, P + 1)
    coeffs = np.fft.fft(samples.values)[p_idx % K] / K
    tau = samples.grid.span
    t_arr = np.atleast_1d(np.asarray(t_query, dtype=float))
    vals = np.exp(2j * np.pi / tau * np.outer(t_arr, p_idx)) @ coeffs
    out = vals.real
    return out if np.ndim(t_query) else float(out[0])


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
