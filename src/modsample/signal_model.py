"""Periodic bandlimited signals (trigonometric polynomials): synthesis,
sampling, quantization and dynamic range."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# relative tolerance used to verify that evaluated signals are real
_REAL_RTOL = 1e-9
_REAL_ATOL = 1e-12

# grid size used to estimate the max amplitude during synthesis
_MAX_EST_GRID = 16384


def _count(n, name: str) -> int:
    """n as a nonnegative int (numpy integers pass), else ValueError."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")
    return n


@dataclass(frozen=True)
class TrigPolynomial:
    """A tau-periodic bandlimited signal g(t) = sum_{|p|<=P} c_p exp(j p w0 t).

    Parameters
    ----------
    tau : float
        Period in seconds, finite and > 0.
    P : int
        Highest harmonic index (bandwidth index), an integer >= 0; numpy
        integers pass.
    coeffs : ndarray
        Finite complex Fourier coefficients for p = -P..P (length 2P+1),
        Hermitian c_{-p} = conj(c_p) so that the signal is real. The
        constructor is the one place that checks this: it rejects
        coefficients with 0.5 * sum_p |c_p - conj(c_-p)| above
        1e-9 * sum_p |c_p| + 1e-12. Half that sum bounds the imaginary part
        of g anywhere, so sampling (:func:`_on_grid`), which drops it,
        trusts the constructor. The polynomial keeps a read-only copy.
    """

    tau: float
    P: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        P = _count(self.P, "P")
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.shape != (2 * P + 1,):
            raise ValueError(
                f"coeffs must have length 2P+1={2 * P + 1}, got {coeffs.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise ValueError("coeffs must be finite")
        asym = np.sum(np.abs(coeffs - np.conj(coeffs[::-1])))
        if 0.5 * asym > _REAL_RTOL * np.sum(np.abs(coeffs)) + _REAL_ATOL:
            raise ValueError("coeffs must be Hermitian symmetric (real signal)")
        coeffs.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def omega0(self) -> float:
        """Fundamental harmonic 2*pi/tau in rad/s."""
        return 2.0 * np.pi / self.tau


@dataclass(frozen=True)
class UniformGrid:
    """Uniform sampling lattice with step T and K samples; K is a positive
    integer, and numpy integers pass."""

    T: float
    K: int

    def __post_init__(self):
        if not 0 < self.T < np.inf:
            raise ValueError(f"T must be finite and positive, got {self.T}")
        K = _count(self.K, "K")
        if K < 1:
            raise ValueError(f"K must be a positive integer, got {K}")
        object.__setattr__(self, "K", K)

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
    N = 16384 points k*tau/N: one inverse real FFT of the drawn
    coefficients' bins (:func:`_placed_bins`) gives them divided by N, and
    the peak is scaled by N after the max. N is a power of two, so that
    scaling is exact and the peak is that of the samples of
    :func:`_on_grid`, with one N-point array fewer. For 2P+1 > N, harmonics
    p and p + N would share a bin and the peak would be that of the aliased
    samples. P is a nonnegative integer (numpy integers pass).
    """
    P = _count(P, "P")
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be finite and positive, got {tau}")
    if not 0 < amplitude < np.inf:
        raise ValueError(f"amplitude must be finite and positive, got {amplitude}")
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(2 * P + 1, dtype=complex)
    coeffs[P] = rng.standard_normal()
    if P > 0:
        pos = rng.standard_normal(P) + 1j * rng.standard_normal(P)
        coeffs[P + 1 :] = pos
        coeffs[:P] = np.conj(pos[::-1])
    if not np.any(np.abs(coeffs) > 0):  # pathological draw, keep it valid
        coeffs[P] = 1.0
    N = _MAX_EST_GRID
    peak = np.max(np.abs(np.fft.irfft(_placed_bins(coeffs, N), n=N))) * N
    return TrigPolynomial(tau=tau, P=P, coeffs=coeffs * (amplitude / peak))


def evaluate(g: TrigPolynomial, t) -> np.ndarray | float:
    """Evaluate g at time(s) t; the (verified negligible) imaginary part is
    discarded."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    p = np.arange(-g.P, g.P + 1)
    phases = np.exp(1j * g.omega0 * np.outer(t_arr, p))
    out = _real_part(g, phases @ g.coeffs)
    return out if np.ndim(t) else float(out[0])


def _placed_bins(c: np.ndarray, N: int) -> np.ndarray:
    """Bins 0..N//2 of the 2P+1 coefficients c_-P..c_P placed at bins
    p mod N, the input that gives their polynomial at the N points k*tau/N
    by one inverse real FFT of length N.

    The transform drops the imaginary part that a non-Hermitian spectrum
    would carry; the coefficients are taken as Hermitian, which the
    :class:`TrigPolynomial` constructor checks.

    For N > 2P the bins are the P+1 coefficients c_0..c_P, and the FFT
    zero-pads them to N//2+1 inside its own buffer, so no N-bin spectrum is
    built. Adding 0.0 makes a coefficient of -0.0 the +0.0 that adding it
    to an empty bin gives. For N <= 2P, harmonics p and p + N share a bin
    and add, as sampling at that rate aliases them.
    """
    P = len(c) // 2
    if N > 2 * P:
        return c[P:] + 0.0
    spec = np.zeros(N, dtype=complex)
    np.add.at(spec, np.arange(-P, P + 1) % N, c)
    return spec[: N // 2 + 1]


def _on_grid(g: TrigPolynomial, N: int) -> np.ndarray:
    """g at the N points k*tau/N, k = 0..N-1: one inverse real FFT of
    :func:`_placed_bins`, scaled by N in place. Apart from the N-point
    result it allocates nothing of length N once N > 2P (on numpy >= 2;
    numpy 1.x pads the input to N complex bins in Python)."""
    out = np.fft.irfft(_placed_bins(g.coeffs, N), n=N)
    out *= N
    return out


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

    The samples g(k*tau/K) come from :func:`_on_grid`: one inverse real
    FFT of the coefficients placed at bins p mod K, whose realness the
    polynomial's constructor has checked. For K > 2P the only K-point array
    allocated is the result. With K < 2P+1, harmonics p and p + K fall in
    the same bin and add, which is the aliasing of sampling at that rate;
    at the even K = 2P, harmonics +-P share the Nyquist bin.
    """
    if abs(grid.span - g.tau) > 1e-9 * g.tau:
        raise ValueError(
            f"grid span K*T={grid.span!r} does not match the period tau={g.tau!r}"
        )
    return SampleVector(values=_on_grid(g, grid.K), grid=grid)


def quantize(samples: SampleVector, bits: int, full_scale: float) -> SampleVector:
    """Mid-rise uniform quantizer over [-full_scale, +full_scale].

    2**bits levels with step q = 2*full_scale / 2**bits; out-of-range inputs
    clip to the extreme levels. bits lies in [1, 53]: up to 53 bits, every
    level (idx + 1/2)*q is an exact float64 value.
    """
    if not 1 <= bits <= 53:
        raise ValueError(f"bits must lie in [1, 53], got {bits!r}")
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
