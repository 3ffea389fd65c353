"""Unit tests for the folding module: centered modulo, ideal and generalized
residues, fold perturbation, finite differences and order selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsample import (
    NonIdealityConfig,
    OversamplingInsufficientError,
    ResidueSpec,
    SampleVector,
    UniformGrid,
    apply_residue,
    centered_modulo,
    choose_order,
    finite_difference,
    fold_ideal,
    perturb_folds,
    residue_spec_from_samples,
    round_beta,
)


def _sv(values):
    values = np.asarray(values, dtype=float)
    return SampleVector(values=values, grid=UniformGrid(T=1.0, K=len(values)))


class TestCenteredModulo:
    @pytest.mark.parametrize(
        "x,lam,expected",
        [
            (0.5, 1.0, 0.5),
            (1.2, 1.0, -0.8),
            (-1.2, 1.0, 0.8),
            (1.0, 1.0, -1.0),  # the boundary point maps to -lambda
        ],
    )
    def test_pointwise(self, x, lam, expected):
        assert centered_modulo(x, lam) == pytest.approx(expected)

    def test_scalar_in_scalar_out(self):
        assert isinstance(centered_modulo(0.3, 1.0), float)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_range(self, x, lam):
        out = centered_modulo(x, lam)
        assert -lam <= out < lam

    @given(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=-(10**6), max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_lambda_periodicity(self, x, k):
        lam = 1.0
        assert centered_modulo(x + 2.0 * lam * k, lam) == pytest.approx(
            centered_modulo(x, lam), abs=1e-9
        )

    def test_threshold_positive(self):
        with pytest.raises(ValueError):
            centered_modulo(1.0, 0.0)


class TestFoldIdeal:
    def test_example(self):
        y, residue = fold_ideal(_sv([0.5, 1.5, 2.5]), 1.0)
        np.testing.assert_allclose(y.values, [0.5, -0.5, 0.5])
        np.testing.assert_allclose(residue.values, [0.0, 2.0, 2.0])

    def test_in_range_identity(self):
        gamma = _sv([0.1, -0.7, 0.9])
        y, residue = fold_ideal(gamma, 1.0)
        np.testing.assert_array_equal(y.values, gamma.values)
        np.testing.assert_array_equal(residue.values, np.zeros(3))

    def test_shift_by_two_lambda(self):
        gamma = _sv([0.3, 1.4, -2.2])
        y0, r0 = fold_ideal(gamma, 1.0)
        y1, r1 = fold_ideal(_sv(gamma.values + 2.0), 1.0)
        np.testing.assert_allclose(y1.values, y0.values, atol=1e-12)
        np.testing.assert_allclose(r1.values, r0.values + 2.0, atol=1e-12)

    @given(
        st.lists(
            st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_decomposition(self, values):
        gamma = _sv(values)
        y, residue = fold_ideal(gamma, 1.0)
        np.testing.assert_array_equal(y.values + residue.values, gamma.values)
        np.testing.assert_array_equal(residue.values / 2.0, np.round(residue.values / 2.0))


def _spec(k, c, K, tau=1.0):
    return ResidueSpec(k=np.array(k, dtype=int), c=c, K=K, tau=tau)


class TestResidueSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _spec([2, 2], [1.0, 2.0], 10)  # not increasing
        with pytest.raises(ValueError):
            _spec([10], [2.0], 10)  # index outside [0, K)
        with pytest.raises(ValueError):
            _spec([-1], [2.0], 10)
        with pytest.raises(ValueError):
            ResidueSpec(k=[0.5], c=[2.0], K=10, tau=1.0)  # not an integer
        with pytest.raises(ValueError):
            _spec([1, 2], [2.0], 10)  # one amplitude short
        with pytest.raises(ValueError):
            _spec([], [], 0)

    def test_accessors(self):
        spec = _spec([1, 5], [2.0, -4.0], 10)
        assert spec.M == 2
        np.testing.assert_array_equal(spec.k, [1, 5])
        np.testing.assert_array_equal(spec.c, [2.0, -4.0])
        np.testing.assert_array_equal(
            spec.values(), [0.0, 2.0, 2.0, 2.0, 2.0, -2.0, -2.0, -2.0, -2.0, -2.0]
        )


def _values_loop(spec):
    """Reference: one masked add per jump, in jump order."""
    r = np.zeros(spec.K)
    n = np.arange(spec.K)
    for k_m, c_m in zip(spec.k, spec.c):
        r[n >= k_m] += c_m
    return r


def _residue_events_loop(r):
    """Reference: one jump per grid index where the step changes."""
    k, c = [], []
    prev = 0.0
    for n in range(len(r)):
        jump = r[n] - prev
        if jump != 0.0:
            k.append(n)
            c.append(jump)
        prev = r[n]
    return k, c


def _perturb_folds_loop(events, tau, cfg, T, seed):
    """Reference: the per-event draws merged through a dict, with the jumps
    as (instant in seconds, amplitude) pairs."""
    rng = np.random.default_rng(seed)
    K = int(round(tau / T))
    merged = {}

    def add(k, c):
        merged[k] = merged.get(k, 0.0) + c

    for t_m, c_m in events:
        k = int(round(t_m / T))
        if cfg.delay_max_samples > 0:
            k = (k + int(rng.integers(0, cfg.delay_max_samples + 1))) % K
        if cfg.threshold_jitter > 0:
            c_m = c_m * (1.0 + rng.uniform(-cfg.threshold_jitter, cfg.threshold_jitter))
        add(k, c_m)
    if cfg.spurious_rate > 0:
        for _ in range(int(rng.poisson(cfg.spurious_rate))):
            add(
                int(rng.integers(0, K)),
                rng.uniform(-cfg.spurious_amp_max, cfg.spurious_amp_max),
            )
    return tuple((k * T, c) for k, c in sorted(merged.items()) if c != 0.0)


def _assert_same_spec(spec, k, c):
    assert spec.k.tolist() == list(k)
    assert spec.c.tobytes() == np.asarray(c, dtype=float).tobytes()


class TestResidueBookkeeping:
    """The integer fold format reproduces the per-event loops bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_step_values_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        K = 257
        k = np.sort(rng.choice(K, size=int(rng.integers(1, 40)), replace=False))
        spec = _spec(k, rng.normal(scale=3.0, size=len(k)), K)
        assert spec.values().tobytes() == _values_loop(spec).tobytes()

    def test_step_values_empty_spec(self):
        spec = _spec([], [], 3, tau=2.0)
        assert spec.values().tobytes() == _values_loop(spec).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_residue_spec_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        K = 200
        r = 2.0 * np.cumsum(rng.choice([-1.0, 0.0, 0.0, 1.0], size=K))
        r[0] = 6.0  # jump at k = 0
        sv = SampleVector(values=r, grid=UniformGrid(T=0.01, K=K))
        spec = residue_spec_from_samples(sv, 2.0)
        _assert_same_spec(spec, *_residue_events_loop(r))
        assert (spec.k[0], spec.c[0]) == (0, 6.0)
        assert (spec.K, spec.tau) == (K, 2.0)

    def test_residue_spec_from_flat_residue_is_empty(self):
        spec = residue_spec_from_samples(_sv(np.zeros(7)), 7.0)
        assert spec.M == 0 and _residue_events_loop(np.zeros(7)) == ([], [])

    @pytest.mark.parametrize(
        "cfg",
        [
            NonIdealityConfig(delay_max_samples=2),
            NonIdealityConfig(threshold_jitter=0.2),
            NonIdealityConfig(delay_max_samples=3, threshold_jitter=0.2,
                              spurious_rate=4.0, spurious_amp_max=0.5),
        ],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_perturb_folds_matches_loop(self, cfg, seed):
        rng = np.random.default_rng(100 + seed)
        K = 64
        T = 1.0 / K
        k = np.sort(rng.choice(K, size=12, replace=False))
        k[-1] = K - 1  # a delay past the last sample wraps to the start
        spec = _spec(k, 2.0 * rng.choice([-1.0, 1.0], size=12), K)
        events = tuple(zip((spec.k * T).tolist(), spec.c.tolist()))
        expected = _perturb_folds_loop(events, 1.0, cfg, T, seed)
        out = perturb_folds(spec, cfg, seed=seed)
        _assert_same_spec(
            out, [round(t / T) for t, _ in expected], [c for _, c in expected]
        )

    def test_perturb_folds_wrap_and_cancel(self):
        cfg = NonIdealityConfig(delay_max_samples=1)
        # seed 2 delays the first jump by one sample and the second by none:
        # they merge to exactly zero and the jump is dropped
        spec = _spec([3, 4], [2.0, -2.0], 8)
        assert perturb_folds(spec, cfg, seed=2).M == 0
        events = ((3 / 8, 2.0), (4 / 8, -2.0))
        assert _perturb_folds_loop(events, 1.0, cfg, 1 / 8, seed=2) == ()
        # seed 0 delays the jump at the last index by one: it wraps to index 0
        out = perturb_folds(_spec([7], [2.0], 8), cfg, seed=0)
        _assert_same_spec(out, [0], [2.0])
        expected = ((0.0, 2.0),)
        assert _perturb_folds_loop(((7 / 8, 2.0),), 1.0, cfg, 1 / 8, seed=0) == expected


class TestApplyResidue:
    def test_empty_spec_identity(self):
        gamma = _sv([1.0, 2.0, 3.0])
        out = apply_residue(gamma, _spec([], [], 3, tau=3.0))
        np.testing.assert_array_equal(out.values, gamma.values)

    def test_single_step(self):
        gamma = _sv(np.zeros(5))
        out = apply_residue(gamma, _spec([2], [3.7], 5, tau=5.0))
        np.testing.assert_allclose(out.values, [0, 0, -3.7, -3.7, -3.7])

    def test_matches_fold_ideal(self):
        gamma = _sv([0.5, 1.5, 2.5, 0.2])
        y, residue = fold_ideal(gamma, 1.0)
        spec = residue_spec_from_samples(residue, 4.0)
        out = apply_residue(gamma, spec)
        np.testing.assert_allclose(out.values, y.values, atol=1e-12)

    def test_grid_size_mismatch_rejected(self):
        gamma = _sv(np.zeros(4))
        with pytest.raises(ValueError, match="K=5"):
            apply_residue(gamma, _spec([1], [1.0], 5, tau=4.0))


class TestPerturbFolds:
    def _spec(self):
        return _spec([2, 5], [2.0, -2.0], 10, tau=10.0)

    def test_identity_when_disabled(self):
        # a spurious amplitude without a spurious rate adds no jump
        for cfg in (NonIdealityConfig(), NonIdealityConfig(spurious_amp_max=1.0)):
            out = perturb_folds(self._spec(), cfg, seed=0)
            _assert_same_spec(out, self._spec().k, self._spec().c)

    def test_delay_deterministic(self):
        cfg = NonIdealityConfig(delay_max_samples=2)
        a = perturb_folds(self._spec(), cfg, seed=42)
        b = perturb_folds(self._spec(), cfg, seed=42)
        _assert_same_spec(a, b.k, b.c)
        for k_out, k_in in zip(a.k, self._spec().k):
            assert (k_out - k_in) % 10 in (0, 1, 2)

    def test_jitter_bound(self):
        cfg = NonIdealityConfig(threshold_jitter=0.1)
        out = perturb_folds(self._spec(), cfg, seed=3)
        for c_out, c_in in zip(out.c, self._spec().c):
            assert abs(c_out / c_in - 1.0) <= 0.1

    def test_spurious_jumps_added(self):
        cfg = NonIdealityConfig(spurious_rate=5.0, spurious_amp_max=1.0)
        out = perturb_folds(self._spec(), cfg, seed=1)
        assert out.M >= self._spec().M

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NonIdealityConfig(delay_max_samples=-1)
        with pytest.raises(ValueError):
            NonIdealityConfig(threshold_jitter=1.0)
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="spurious_rate must be finite"):
                NonIdealityConfig(spurious_rate=bad)
            with pytest.raises(ValueError, match="spurious_amp_max must be finite"):
                NonIdealityConfig(spurious_amp_max=bad)


class TestFiniteDifference:
    def test_orders(self):
        np.testing.assert_array_equal(finite_difference([1, 3, 6], 1), [2, 3])
        np.testing.assert_array_equal(finite_difference([1, 3, 6], 2), [1])

    def test_circular(self):
        np.testing.assert_array_equal(
            finite_difference([1, 3, 6], 1, circular=True), [2, 3, -5]
        )

    def test_errors(self):
        with pytest.raises(ValueError):
            finite_difference([1, 2], 2)
        with pytest.raises(ValueError):
            finite_difference([1, 2, 3], 0)

    def test_commutes_with_modulo(self):
        s = np.array([0.2, 1.7, 0.1])
        lhs = centered_modulo(finite_difference(s, 1), 1.0)
        rhs = centered_modulo(finite_difference(centered_modulo(s, 1.0), 1), 1.0)
        np.testing.assert_allclose(lhs, [-0.5, 0.4], atol=1e-12)
        np.testing.assert_allclose(rhs, [-0.5, 0.4], atol=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @given(
        s=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_circular_matches_roll_bitwise(self, N, s):
        expected = np.asarray(s, dtype=float)
        for _ in range(N):
            expected = np.roll(expected, -1) - expected
        got = finite_difference(s, N, circular=True)
        assert got.tobytes() == expected.tobytes()


class TestChooseOrder:
    def test_examples(self):
        Omega = 1.0
        T_half = 0.5 / (Omega * np.e)  # makes T*Omega*e = 0.5
        assert choose_order(1.0, 4.0, T_half, Omega) == 2
        assert choose_order(1.0, 2.0, T_half, Omega) == 1

    def test_zero_bandwidth_takes_the_first_difference(self):
        # Omega = 0: a constant signal's first difference vanishes, and the
        # rule takes no log of T*Omega*e = 0
        assert choose_order(1.0, 2.0, 0.1, 0.0) == 1

    def test_insufficient_oversampling(self):
        with pytest.raises(OversamplingInsufficientError):
            choose_order(1.0, 4.0, 1.0 / np.e, 1.0)

    def test_beta_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            choose_order(1.0, 0.5, 0.01, 1.0)


class TestRoundBeta:
    def test_rounds_up_to_2lambda_grid(self):
        assert round_beta(3.1, 1.0) == 4.0
        assert round_beta(4.0, 1.0) == 4.0
        assert round_beta(0.1, 1.0) == 2.0  # never below one step
