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


class TestResidueSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResidueSpec(events=((0.2, 1.0), (0.2, 2.0)), tau=1.0)  # not increasing
        with pytest.raises(ValueError):
            ResidueSpec(events=((1.0, 2.0),), tau=1.0)  # instant outside [0, tau)
        with pytest.raises(ValueError):
            ResidueSpec(events=((-0.1, 2.0),), tau=1.0)

    def test_accessors(self):
        spec = ResidueSpec(events=((0.1, 2.0), (0.5, -4.0)), tau=1.0)
        assert spec.M == 2
        np.testing.assert_allclose(spec.instants(), [0.1, 0.5])
        np.testing.assert_allclose(spec.amplitudes(), [2.0, -4.0])
        np.testing.assert_allclose(
            spec.step_values(np.array([0.0, 0.1, 0.4, 0.6])), [0.0, 2.0, 2.0, -2.0]
        )


def _step_values_loop(spec, times):
    """Reference: one masked add per event, in event order."""
    r = np.zeros(len(times))
    for t_m, c_m in spec.events:
        r[times >= t_m - 1e-12 * spec.tau] += c_m
    return r


def _residue_events_loop(r, T):
    """Reference: one event per grid index where the step changes."""
    events = []
    prev = 0.0
    for k in range(len(r)):
        jump = r[k] - prev
        if jump != 0.0:
            events.append((k * T, jump))
        prev = r[k]
    return tuple(events)


class TestResidueBookkeeping:
    """The vectorized step evaluation and jump extraction reproduce the
    per-event loops bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_step_values_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        K, T = 257, 1.0 / 257
        k = np.sort(rng.choice(K, size=int(rng.integers(1, 40)), replace=False))
        spec = ResidueSpec(
            events=tuple(zip(k * T, rng.normal(scale=3.0, size=len(k)))), tau=1.0
        )
        on_grid = np.arange(K) * T
        off_grid_unsorted = rng.uniform(-0.1, 1.1, size=300)
        at_tolerance_edge = spec.instants() - 1e-12 * spec.tau
        for times in (on_grid, off_grid_unsorted, on_grid[::-1], at_tolerance_edge):
            expected = _step_values_loop(spec, times)
            got = spec.step_values(times)
            assert got.tobytes() == expected.tobytes()

    def test_step_values_empty_spec(self):
        spec = ResidueSpec(events=(), tau=2.0)
        times = np.array([1.5, 0.0, 0.7])
        assert spec.step_values(times).tobytes() == _step_values_loop(spec, times).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_residue_spec_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        K = 200
        r = 2.0 * np.cumsum(rng.choice([-1.0, 0.0, 0.0, 1.0], size=K))
        r[0] = 6.0  # jump at k = 0
        sv = SampleVector(values=r, grid=UniformGrid(T=0.01, K=K))
        spec = residue_spec_from_samples(sv, 2.0)
        expected = _residue_events_loop(r, 0.01)
        assert spec.events == expected
        assert spec.events[0] == (0.0, 6.0)

    def test_residue_spec_from_flat_residue_is_empty(self):
        spec = residue_spec_from_samples(_sv(np.zeros(7)), 7.0)
        assert spec.events == () == _residue_events_loop(np.zeros(7), 1.0)


class TestApplyResidue:
    def test_empty_spec_identity(self):
        gamma = _sv([1.0, 2.0, 3.0])
        out = apply_residue(gamma, ResidueSpec(events=(), tau=3.0))
        np.testing.assert_array_equal(out.values, gamma.values)

    def test_single_step(self):
        gamma = _sv(np.zeros(5))
        spec = ResidueSpec(events=((2.0, 3.7),), tau=5.0)
        out = apply_residue(gamma, spec)
        np.testing.assert_allclose(out.values, [0, 0, -3.7, -3.7, -3.7])

    def test_matches_fold_ideal(self):
        gamma = _sv([0.5, 1.5, 2.5, 0.2])
        y, residue = fold_ideal(gamma, 1.0)
        spec = residue_spec_from_samples(residue, 4.0)
        out = apply_residue(gamma, spec)
        np.testing.assert_allclose(out.values, y.values, atol=1e-12)

    def test_off_grid_instant_rejected(self):
        gamma = _sv(np.zeros(4))
        with pytest.raises(ValueError):
            apply_residue(gamma, ResidueSpec(events=((1.5, 1.0),), tau=4.0))


class TestPerturbFolds:
    def _spec(self):
        return ResidueSpec(events=((2.0, 2.0), (5.0, -2.0)), tau=10.0)

    def test_identity_when_disabled(self):
        cfg = NonIdealityConfig()
        out = perturb_folds(self._spec(), cfg, T=1.0, seed=0)
        assert out.events == self._spec().events

    def test_delay_deterministic(self):
        cfg = NonIdealityConfig(delay_max_samples=2)
        a = perturb_folds(self._spec(), cfg, T=1.0, seed=42)
        b = perturb_folds(self._spec(), cfg, T=1.0, seed=42)
        assert a.events == b.events
        for (t_out, _), (t_in, _) in zip(a.events, self._spec().events):
            shift = (t_out - t_in) % 10.0
            assert shift in (0.0, 1.0, 2.0)

    def test_jitter_bound(self):
        cfg = NonIdealityConfig(threshold_jitter=0.1)
        out = perturb_folds(self._spec(), cfg, T=1.0, seed=3)
        for (_, c_out), (_, c_in) in zip(out.events, self._spec().events):
            assert abs(c_out / c_in - 1.0) <= 0.1

    def test_spurious_jumps_added(self):
        cfg = NonIdealityConfig(spurious_rate=5.0, spurious_amp_max=1.0)
        out = perturb_folds(self._spec(), cfg, T=1.0, seed=1)
        assert out.M >= self._spec().M

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NonIdealityConfig(delay_max_samples=-1)
        with pytest.raises(ValueError):
            NonIdealityConfig(threshold_jitter=1.0)


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


class TestChooseOrder:
    def test_examples(self):
        Omega = 1.0
        T_half = 0.5 / (Omega * np.e)  # makes T*Omega*e = 0.5
        assert choose_order(1.0, 4.0, T_half, Omega) == 2
        assert choose_order(1.0, 2.0, T_half, Omega) == 1

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
