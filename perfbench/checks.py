"""The benchmark's own signal maths and output checks.

Nothing here calls modsample: truth signals, folds and quantization are
recomputed from their definitions, so that a check never compares the
package against itself. Every check returns None when the output is right
and otherwise one line that starts with the failed check's name and a
colon, so that the benchmark can tell which check failed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

EXACT = 1e-10  # share of DR^2 an exact recovery may miss by
# Non-ideal folds: each jump is delayed by up to FOLD_DELAY_MAX samples and
# scaled by 1 +- FOLD_JITTER.
FOLD_DELAY_MAX = 2
FOLD_JITTER = 0.2
CAPTURE_TAU = 1.0  # period of the benchmark's capture CSVs, in seconds


def bandlimited_truth(rng, K, P):
    """K samples of one period of a random real signal with harmonics -P..P.

    Hermitian coefficients are drawn with `rng` and evaluated by inverse
    FFT; the result is scaled to unit peak."""
    bins = np.zeros(K, dtype=complex)
    pos = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    bins[0] = rng.standard_normal()
    bins[1 : P + 1] = pos
    bins[K - P :] = np.conj(pos[::-1])
    g = np.fft.ifft(bins).real
    return g / np.max(np.abs(g))


def centered_modulo(x, lam):
    """Wrap x into [-lam, lam)."""
    return x - 2.0 * lam * np.floor(x / (2.0 * lam) + 0.5)


def midrise_quantize(x, lam, bits):
    """Mid-rise quantizer with 2**bits levels over [-lam, lam)."""
    q = 2.0 * lam / 2**bits
    idx = np.clip(np.floor(x / q), -(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
    return (idx + 0.5) * q


def jump_count(residue, lam):
    """Jumps of a piecewise-constant residue after circular differencing."""
    return int(np.count_nonzero(np.abs(np.roll(residue, -1) - residue) > 1e-9 * lam))


def threshold_for_folds(g, M_target):
    """Smallest threshold (to 1e-9 relative) whose ideal folds of g make at
    most M_target circular jumps."""
    lo, hi = 1e-6, float(np.max(np.abs(g))) * 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if jump_count(g - centered_modulo(g, mid), mid) > M_target:
            lo = mid
        else:
            hi = mid
    return hi


def perturb_residue(residue, lam, rng):
    """Non-ideal folds: every jump of the ideal residue is delayed by up to
    FOLD_DELAY_MAX samples and scaled by 1 +- FOLD_JITTER, and one spurious
    jump off the 2*lam lattice is added at a free sample."""
    K = len(residue)
    steps = residue - np.roll(residue, 1)
    steps[0] = residue[0]
    out = np.zeros(K)
    for k in np.flatnonzero(np.abs(steps) > 1e-9 * lam):
        shifted = (k + int(rng.integers(0, FOLD_DELAY_MAX + 1))) % K
        out[shifted] += steps[k] * (1.0 + rng.uniform(-FOLD_JITTER, FOLD_JITTER))
    free = np.flatnonzero(out == 0.0)
    spurious = free[int(rng.integers(len(free)))]
    out[spurious] = rng.uniform(0.3, 1.5) * lam * rng.choice([-1.0, 1.0])
    return np.cumsum(out)


def annihilator_rank_deficient(residue, P, M):
    """True when the M+1-tap Toeplitz system built from the exact spike
    spectrum of `residue` has a second null direction in float64
    (sigma_M < 1e-12 sigma_1), so its kernel no longer pins the folds."""
    K = len(residue)
    z = np.fft.fft(np.roll(residue, -1) - residue)[P + 1 : K - P]
    T = np.lib.stride_tricks.sliding_window_view(z, M + 1)[:, ::-1]
    s = np.linalg.svd(T, compute_uv=False)
    return bool(s[-2] < 1e-12 * s[0])


def calibrated_mse(x, ref):
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.mean((x - np.mean(x) + np.mean(ref) - ref) ** 2))


def dynamic_range(x):
    return float(np.max(x) - np.min(x))


def check_recovery(name, estimate, truth, tol):
    """`estimate` within `tol` calibrated MSE of `truth`."""
    estimate = np.asarray(estimate, dtype=float)
    if estimate.shape != np.shape(truth) or not np.all(np.isfinite(estimate)):
        return f"{name}: no finite estimate of {len(truth)} samples"
    err = calibrated_mse(estimate, truth)
    if not err <= tol:
        return f"{name}: calibrated MSE {err:.3g} > {tol:.3g}"
    return None


def check_samples(values, coeffs, K):
    """`values` are the K-grid samples of the trigonometric polynomial with
    coefficients `coeffs` (harmonics -P..P) to 1e-9 relative."""
    P = (len(coeffs) - 1) // 2
    bins = np.zeros(K, dtype=complex)
    bins[: P + 1] = coeffs[P:]
    bins[K - P :] = coeffs[:P]
    expected = np.fft.ifft(bins).real * K
    scale = np.max(np.abs(expected))
    err = np.max(np.abs(np.asarray(values) - expected))
    if not err <= 1e-9 * scale:
        return f"sample: off the coefficients' own evaluation by {err / scale:.3g} relative"
    return None


def check_folded(y, truth, lam):
    """y lies in [-lam, lam) and differs from truth by multiples of 2*lam."""
    y = np.asarray(y)
    if np.any(y < -lam) or np.any(y >= lam):
        return "fold_ideal: output outside [-lambda, lambda)"
    k = (np.asarray(truth) - y) / (2.0 * lam)
    if np.max(np.abs(k - np.round(k)), initial=0.0) > 1e-9 * max(1.0, np.max(np.abs(k))):
        return "fold_ideal: output differs from truth by a non-multiple of 2*lambda"
    return None


def check_bandlimited(truth, P):
    """truth carries no DFT energy outside its 2P+1 bins."""
    bins = np.abs(np.fft.fft(truth))
    K = len(truth)
    out = bins[P + 1 : K - P]
    if out.size and np.max(out) > 1e-9 * np.max(bins):
        return f"truth: out-of-band energy ({np.max(out) / np.max(bins):.3g} of peak)"
    return None


def check_modulo_column(modulo, truth, lam, bits):
    """modulo is the centered modulo of truth, quantized to `bits` if given."""
    expected = centered_modulo(np.asarray(truth), lam)
    if bits is not None:
        expected = midrise_quantize(expected, lam, bits)
    err = np.max(np.abs(np.asarray(modulo) - expected))
    if not err <= 1e-9 * lam:
        return f"modulo: column off its own fold/quantization by {err:.3g}"
    return None


def write_capture_csv(path, modulo):
    """Hardware-style capture: a tau header and time,modulo rows."""
    K = len(modulo)
    rows = np.column_stack([np.arange(K) * (CAPTURE_TAU / K), modulo])
    with Path(path).open("w") as fh:
        fh.write(f"# tau = {CAPTURE_TAU!r}\ntime,modulo\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def read_capture_csv(path):
    """{column: values} of a capture CSV; '#' header lines are skipped."""
    with Path(path).open() as fh:
        for line in fh:
            if not line.startswith("#"):
                header = line.strip().split(",")
                break
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def read_reconstruction(path):
    """{column: values} of a reconstruction.csv; empty cells read as NaN."""
    with Path(path).open() as fh:
        header = fh.readline().strip().split(",")
        data = np.genfromtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def read_metrics(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out
