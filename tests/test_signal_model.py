"""Unit tests for the bandlimited-signal model: synthesis, evaluation,
sampling, quantization and dynamic range."""

import tracemalloc
import warnings

import _reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsample import (
    SampleVector,
    TrigPolynomial,
    UniformGrid,
    dynamic_range,
    evaluate,
    quantize,
    sample,
    synthesize_random,
)
from modsample.signal_model import _MAX_EST_GRID

NUMPY_2 = int(np.__version__.split(".")[0]) >= 2


def cosine_signal(tau=1.0):
    """g(t) = cos(2*pi*t/tau) as a trig polynomial."""
    return TrigPolynomial(tau=tau, P=1, coeffs=np.array([0.5, 0.0, 0.5]))


class TestTrigPolynomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrigPolynomial(tau=0.0, P=1, coeffs=np.zeros(3))
        with pytest.raises(ValueError):
            TrigPolynomial(tau=1.0, P=-1, coeffs=np.zeros(1))
        with pytest.raises(ValueError):
            TrigPolynomial(tau=1.0, P=1, coeffs=np.zeros(4))
        with pytest.raises(ValueError):  # breaks Hermitian symmetry
            TrigPolynomial(tau=1.0, P=1, coeffs=np.array([1j, 0.0, 1j]))

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            TrigPolynomial(tau=tau, P=1, coeffs=np.array([0.5, 0.0, 0.5]))

    @pytest.mark.parametrize(
        "coeffs",
        [
            [np.inf, 0.0, np.inf],  # was accepted, with an inf tolerance
            [np.nan, 0.0, np.nan],  # was "must be Hermitian symmetric"
            [0.5, complex(0.0, np.inf), 0.5],
            [complex(0.5, np.nan), 0.0, complex(0.5, np.nan)],
        ],
    )
    def test_non_finite_coeffs(self, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coeffs must be finite"):
                TrigPolynomial(tau=1.0, P=1, coeffs=coeffs)

    def test_symmetry_check_is_the_sum_rule(self):
        # accepted exactly when half the summed asymmetry
        # |c_p - conj(c_-p)| is at most 1e-9 * sum|c| + 1e-12: perturbed
        # Hermitian draws from 1e-14 to 1e2 in size, half of them within a
        # factor of 10 of that bound
        rng = np.random.default_rng(0)
        decided = set()
        for trial in range(600):
            P = 1 + trial % 4
            pos = rng.standard_normal(P) + 1j * rng.standard_normal(P)
            pos *= 10.0 ** rng.uniform(-14, 2)
            c = np.concatenate([np.conj(pos[::-1]), [rng.standard_normal()], pos])
            p = int(rng.integers(2 * P + 1))
            if trial % 2:
                size = (1e-9 * np.sum(np.abs(c)) + 1e-12) * 10.0 ** rng.uniform(-1, 1)
            else:
                size = 10.0 ** rng.uniform(-14, -3) * max(abs(c[p]), 1e-12)
            c[p] += size * np.exp(2j * np.pi * rng.uniform())
            asym = sum(abs(c[i] - np.conj(c[2 * P - i])) for i in range(2 * P + 1))
            bound = 1e-9 * sum(abs(x) for x in c) + 1e-12
            if abs(0.5 * asym - bound) <= 1e-9 * bound:
                continue  # too close to the bound for roundoff to settle
            accepted = 0.5 * asym <= bound
            decided.add(accepted)
            try:
                TrigPolynomial(tau=1.0, P=P, coeffs=c)
            except ValueError as exc:
                assert not accepted and "Hermitian" in str(exc)
            else:
                assert accepted
        assert decided == {True, False}

    def test_asymmetry_below_the_sum_bound_is_accepted(self):
        # c_1 = 0 next to c_-1 = 1e-11: beyond np.allclose's absolute
        # tolerance of 1e-12, but the imaginary part of g stays within
        # 1e-11, below the sum bound, and sampling matches evaluate
        g = TrigPolynomial(tau=1.0, P=1, coeffs=np.array([1e-11, 1.0, 0.0]))
        grid = UniformGrid(T=1.0 / 8, K=8)
        err = np.max(np.abs(sample(g, grid).values - evaluate(g, grid.times)))
        assert 0 < err <= 1e-9 * np.sum(np.abs(g.coeffs))

    @pytest.mark.parametrize("P", [1.5, 1.0, "1", None])
    def test_non_integer_P_is_named(self, P):
        with pytest.raises(ValueError, match="P must be an integer"):
            TrigPolynomial(tau=1.0, P=P, coeffs=np.ones(3))
        with pytest.raises(ValueError, match="P must be an integer"):
            synthesize_random(P, 1.0, 1.0, 0)

    def test_numpy_integer_P_passes_as_int(self):
        g = TrigPolynomial(tau=1.0, P=np.int64(1), coeffs=np.array([0.5, 0.0, 0.5]))
        assert type(g.P) is int
        assert g.coeffs.tobytes() == cosine_signal().coeffs.tobytes()
        a = synthesize_random(np.int32(4), 1.0, 3.0, 5)
        b = synthesize_random(4, 1.0, 3.0, 5)
        assert type(a.P) is int and a.coeffs.tobytes() == b.coeffs.tobytes()

    def test_coeffs_are_a_read_only_copy(self):
        c = np.array([0.5, 0.0, 0.5], dtype=complex)
        g = TrigPolynomial(tau=1.0, P=1, coeffs=c)
        c[0] = 7.0
        assert g.coeffs[0] == 0.5
        with pytest.raises(ValueError, match="read-only"):
            g.coeffs[0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            synthesize_random(P=3, tau=1.0, amplitude=1.0, seed=0).coeffs *= 2.0

    def test_frequencies(self):
        g = cosine_signal(tau=2.0)
        assert g.omega0 == pytest.approx(np.pi)


class TestSynthesizeRandom:
    def test_dc_only(self):
        g = synthesize_random(P=0, tau=1.0, amplitude=2.0, seed=7)
        assert abs(abs(g.coeffs[0]) - 2.0) < 1e-12

    def test_amplitude_normalization(self):
        g = synthesize_random(P=5, tau=1.0, amplitude=1.0, seed=1)
        t = np.linspace(0.0, 1.0, 40000, endpoint=False)
        assert np.max(np.abs(evaluate(g, t))) <= 1.01

    def test_determinism(self):
        a = synthesize_random(P=4, tau=1.0, amplitude=3.0, seed=123)
        b = synthesize_random(P=4, tau=1.0, amplitude=3.0, seed=123)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("P", [0, 3, 15])
    def test_peak_matches_dense_evaluate(self, P):
        g = synthesize_random(P=P, tau=2.0, amplitude=5.0, seed=11)
        t = np.arange(_MAX_EST_GRID) * (2.0 / _MAX_EST_GRID)
        dense_peak = np.max(np.abs(evaluate(g, t)))
        assert abs(dense_peak - 5.0) <= 1e-12 * 5.0

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            synthesize_random(P=-1, tau=1.0, amplitude=1.0, seed=0)
        with pytest.raises(ValueError):
            synthesize_random(P=1, tau=-1.0, amplitude=1.0, seed=0)
        with pytest.raises(ValueError):
            synthesize_random(P=1, tau=1.0, amplitude=0.0, seed=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="tau must be finite and positive"):
                synthesize_random(P=1, tau=bad, amplitude=1.0, seed=0)
            with pytest.raises(ValueError, match="amplitude must be finite and positive"):
                synthesize_random(P=1, tau=1.0, amplitude=bad, seed=0)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# P up to 1000 and K from 1 to 4097, including the aliased K <= 2P, the
# even K = 2P whose Nyquist bin holds harmonics +-P, and K = 2P+1
BITWISE_P = [*range(41), 63, 100, 257, 1000]


def _bitwise_K(P):
    near = [2 * P - 1, 2 * P, 2 * P + 1, 2 * P + 2, 2 * P + 3]
    return sorted({K for K in [1, 2, 3, 4, 5, 64, 1024, 4096, 4097, *near] if K >= 1})


class TestBitwiseReference:
    """Synthesis and sampling give the bits of the N-bin ``np.add.at``
    spectrum of :mod:`_reference`."""

    @pytest.mark.parametrize("P", BITWISE_P)
    def test_synthesis_and_samples(self, P):
        for seed in (P, [7, P], [P, 2, 5]):
            g = synthesize_random(P=P, tau=1.0, amplitude=4.0, seed=seed)
            ref = _reference.synthesize_random(P, 1.0, 4.0, seed)
            assert _same_bits(g.coeffs, ref.coeffs)
            for K in _bitwise_K(P):
                values = sample(g, UniformGrid(T=1.0 / K, K=K)).values
                assert _same_bits(values, _reference.on_grid(ref, K)), (seed, K)

    def test_negative_zero_coefficients(self):
        # -0.0 in bins 0..P: adding it to an empty bin gives +0.0
        nz = -0.0
        pos = [complex(nz, nz), 1.0 + 2.0j, complex(0.5, nz), complex(nz, 0.25)]
        c = np.array([*np.conj(pos[::-1]), complex(nz, 0.0), *pos])
        g = TrigPolynomial(tau=1.0, P=4, coeffs=c)
        assert np.signbit(g.coeffs.real[4])
        for K in [*range(1, 12), 16, 64, 4096]:
            values = sample(g, UniformGrid(T=1.0 / K, K=K)).values
            assert _same_bits(values, _reference.on_grid(g, K)), K
        g0 = TrigPolynomial(tau=1.0, P=0, coeffs=np.array([complex(nz, nz)]))
        for K in (1, 2, 3, 8):
            values = sample(g0, UniformGrid(T=1.0 / K, K=K)).values
            assert _same_bits(values, _reference.on_grid(g0, K)), K


def _traced_peak(fn):
    """Peak bytes traced by tracemalloc during one call of fn, after a
    warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocations:
    """Traced allocation peaks (no timing). On numpy >= 2 the inverse FFT
    zero-pads the P+1 nonnegative bins inside its output, so one call holds
    at most two N-point float arrays. numpy 1.x pads its input to N complex
    bins (16 N bytes) in Python, next to the 8 N-byte output: three N-point
    float arrays' worth."""

    arrays = 2 if NUMPY_2 else 3

    def test_synthesize_random_peak(self):
        N = _MAX_EST_GRID
        peak = _traced_peak(lambda: synthesize_random(P=15, tau=1.0, amplitude=4.0, seed=3))
        assert peak <= self.arrays * 8 * N + 4096, peak

    def test_sample_peak(self):
        K = 1024
        g = synthesize_random(P=15, tau=1.0, amplitude=4.0, seed=3)
        grid = UniformGrid(T=1.0 / K, K=K)
        peak = _traced_peak(lambda: sample(g, grid))
        assert peak <= self.arrays * 8 * K + 4096, peak


class TestEvaluate:
    def test_dc(self):
        g = TrigPolynomial(tau=1.0, P=0, coeffs=np.array([3.0 + 0j]))
        for t in (0.0, 0.3, 17.0):
            assert evaluate(g, t) == pytest.approx(3.0)

    def test_cosine_by_hand(self):
        g = cosine_signal()
        assert evaluate(g, 0.0) == pytest.approx(1.0)
        assert evaluate(g, 0.25) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_periodicity(self, t):
        g = synthesize_random(P=3, tau=1.0, amplitude=1.0, seed=5)
        assert abs(evaluate(g, t + 1.0) - evaluate(g, t)) < 1e-12

    def test_real_output_many_points(self):
        g = synthesize_random(P=9, tau=1.0, amplitude=4.0, seed=2)
        t = np.random.default_rng(0).uniform(0.0, 1.0, 1000)
        vals = evaluate(g, t)  # internal assertion guards the imaginary part
        assert vals.dtype == np.float64


class TestSample:
    def test_constant(self):
        g = TrigPolynomial(tau=1.0, P=0, coeffs=np.array([3.0 + 0j]))
        sv = sample(g, UniformGrid(T=0.25, K=4))
        np.testing.assert_allclose(sv.values, [3, 3, 3, 3])

    def test_cosine(self):
        sv = sample(cosine_signal(), UniformGrid(T=0.25, K=4))
        np.testing.assert_allclose(sv.values, [1, 0, -1, 0], atol=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            sample(cosine_signal(), UniformGrid(T=0.25, K=5))

    @pytest.mark.parametrize("P", [0, 1, 7, 30])
    @pytest.mark.parametrize("K", ["3", "2P+1", "64", "4097", "2P", "2P-1"])
    def test_matches_evaluate(self, P, K):
        # K = 3 and the odd K = 2P-1 are below 2P+1 and alias harmonics onto
        # shared bins; at the even K = 2P harmonics +-P share the Nyquist
        # bin K/2, the last bin of the half spectrum
        sizes = {"2P+1": 2 * P + 1, "2P": 2 * P, "2P-1": 2 * P - 1}
        K = max(sizes[K], 1) if K in sizes else int(K)
        g = synthesize_random(P=P, tau=1.5, amplitude=4.0, seed=P)
        grid = UniformGrid(T=1.5 / K, K=K)
        err = np.max(np.abs(sample(g, grid).values - evaluate(g, grid.times)))
        assert err <= 1e-12 * np.sum(np.abs(g.coeffs))

    def test_imaginary_part_guard_at_construction(self):
        # symmetric to np.allclose's 1e-5, but not to the 1e-9 that the
        # real part of an inverse FFT needs: rejected before any sampling
        with pytest.raises(ValueError, match="Hermitian"):
            TrigPolynomial(tau=1.0, P=1, coeffs=np.array([0.5, 0.0, 0.5 + 1e-7j]))

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_step(self, T):
        # a NaN step passed the span check, since abs(nan - tau) > tol is False
        with pytest.raises(ValueError, match="T must be finite and positive"):
            UniformGrid(T=T, K=4)
        with pytest.raises(ValueError, match="T must be finite and positive"):
            sample(cosine_signal(), UniformGrid(T=T, K=4))

    @pytest.mark.parametrize("K", [4.5, 4.0, "4"])
    def test_non_integer_K_is_named(self, K):
        with pytest.raises(ValueError, match="K must be an integer"):
            UniformGrid(T=0.1, K=K)

    def test_numpy_integer_K_passes_as_int(self):
        grid = UniformGrid(T=0.25, K=np.int32(4))
        assert type(grid.K) is int and grid == UniformGrid(T=0.25, K=4)
        with pytest.raises(ValueError, match="K must be a positive integer"):
            UniformGrid(T=0.25, K=np.int64(0))


def _sv(values):
    values = np.asarray(values, dtype=float)
    return SampleVector(values=values, grid=UniformGrid(T=1.0, K=len(values)))


class TestQuantize:
    def test_zero_maps_to_half_step(self):
        out = quantize(_sv([0.0]), bits=8, full_scale=1.0)
        assert out.values[0] == pytest.approx(1.0 / 256)

    def test_full_scale_clips_to_top_level(self):
        q = 2.0 / 256
        out = quantize(_sv([1.0]), bits=8, full_scale=1.0)
        assert out.values[0] == pytest.approx(1.0 - q / 2)

    @given(st.floats(min_value=-0.999, max_value=0.999, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_half_step_accuracy(self, x):
        q = 2.0 / 256
        out = quantize(_sv([x]), bits=8, full_scale=1.0)
        assert abs(out.values[0] - x) <= q / 2 + 1e-15

    @given(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, values, bits):
        once = quantize(_sv(values), bits=bits, full_scale=1.0)
        twice = quantize(once, bits=bits, full_scale=1.0)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            quantize(_sv([0.0]), bits=0, full_scale=1.0)
        # 2**2000 does not fit a float: was an OverflowError
        for bits in (54, 2000):
            with pytest.raises(ValueError, match=r"bits must lie in \[1, 53\]"):
                quantize(_sv([0.0]), bits=bits, full_scale=1.0)
        with pytest.raises(ValueError):
            quantize(_sv([0.0]), bits=8, full_scale=0.0)

    def test_widest_levels_are_exact(self):
        # at 53 bits the level (idx + 1/2)*q of the largest idx is exact
        q = 2.0 / 2**53
        out = quantize(_sv([1.0, -1.0, 0.0]), bits=53, full_scale=1.0)
        np.testing.assert_array_equal(out.values, [1.0 - q / 2, -1.0 + q / 2, q / 2])


class TestDynamicRange:
    def test_examples(self):
        assert dynamic_range(_sv([1.0, -1.0, 0.0])) == pytest.approx(2.0)
        assert dynamic_range(_sv([4.2, 4.2, 4.2])) == 0.0

    def test_published_ratio(self):
        # the reference experiment reports DR 19.87 V unfolded vs 3.89 V
        # folded, an HDR ratio of about 5.11
        assert 19.87 / 3.89 == pytest.approx(5.11, rel=5e-3)

    @given(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, values, c):
        base = _sv(values)
        shifted = _sv(np.asarray(values) + c)
        assert dynamic_range(shifted) == pytest.approx(dynamic_range(base), abs=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            UniformGrid(T=1.0, K=0)


class TestSampleVector:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            SampleVector(values=np.zeros(3), grid=UniformGrid(T=1.0, K=4))

    def test_with_values_keeps_grid(self):
        sv = _sv([1.0, 2.0])
        out = sv.with_values([3.0, 4.0])
        assert out.grid == sv.grid
        np.testing.assert_array_equal(out.values, [3.0, 4.0])
