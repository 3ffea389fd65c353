"""The threshold-batched baseline against the one-threshold oracle in
`_reference`: the batched grid search scores every threshold bitwise as the
oracle's per-threshold loop does, and :func:`usf_recover`, the one-row call
of the same kernel, keeps the oracle's diagnostics and strict failures."""

import numpy as np
import pytest

import _reference
from modsample import (
    FoldConsistencyError,
    NonIdealityConfig,
    RecoveryError,
    SampleVector,
    UniformGrid,
    calibrated_mse,
    choose_order,
    finite_difference,
    harness,
    optimize_lambda,
    round_beta,
    usf_recover,
)
from modsample import recovery

# K -> P, each with T*Omega*e < 1 so the baseline's order rule applies
_P_OF_K = {64: 1, 256: 2, 2048: 8, 8192: 8}
_KINDS = {
    "noiseless": {},
    "8-bit": {"bits": 8},
    "non-ideal": {"nonideality": NonIdealityConfig(delay_max_samples=2, threshold_jitter=0.05)},
}


def _measurement(K, kind, seed=7, amplitude=4.0):
    P = _P_OF_K[K]
    src = harness.SyntheticSource(P=P, tau=1.0, K=K, amplitude=amplitude, seed=seed,
                                  threshold=1.0, **_KINDS[kind])
    gamma, y, _ = harness.synthesize_measurement(src)
    return gamma, y, 2.0 * np.pi * P


def _oracle_scores(y, gamma, Omega, grid):
    """Per-threshold calibrated MSE of the oracle, NaN where it fails."""
    gamma_inf = float(np.max(np.abs(gamma.values)))
    out = np.full(len(grid), np.nan)
    for i, lam in enumerate(grid):
        try:
            beta = round_beta(gamma_inf, lam)
            report = _reference.usf_recover(y, lam, Omega, beta, strict=False)
        except Exception:
            continue
        out[i] = calibrated_mse(report.gamma_hat.values, gamma.values)
    return out


def _assert_same_search(y, gamma, Omega, lo, hi, step):
    lam, report = optimize_lambda(y, gamma, Omega, lo, hi, step)
    lam_ref, report_ref = _reference.optimize_lambda(y, gamma, Omega, lo, hi, step)
    assert lam == lam_ref
    assert report.method == report_ref.method == "usf_opt"
    np.testing.assert_array_equal(report.gamma_hat.values, report_ref.gamma_hat.values)
    np.testing.assert_array_equal(report.residue_hat.values, report_ref.residue_hat.values)
    assert report.diagnostics == report_ref.diagnostics


@pytest.mark.parametrize("kind", list(_KINDS))
@pytest.mark.parametrize("K", list(_P_OF_K))
def test_every_threshold_scores_bitwise_as_the_oracle(K, kind):
    gamma, y, Omega = _measurement(K, kind)
    grid = np.arange(0.55, 1.45 + 0.005, 0.01)
    mse_of, betas, failed = recovery._grid_mse(y, gamma, Omega, grid)
    assert failed == {}
    np.testing.assert_array_equal(mse_of, _oracle_scores(y, gamma, Omega, grid))
    gamma_inf = float(np.max(np.abs(gamma.values)))
    np.testing.assert_array_equal(betas, [round_beta(gamma_inf, lam) for lam in grid])
    _assert_same_search(y, gamma, Omega, 0.55, 1.45, 0.01)


def test_grid_larger_than_a_block_spanning_two_orders():
    gamma, y, Omega = _measurement(256, "noiseless")
    grid = np.arange(0.3, 2.0 + 0.005, 0.01)
    assert len(grid) * 256 > recovery._BLOCK_CELLS
    T = y.grid.T
    gamma_inf = float(np.max(np.abs(gamma.values)))
    orders = {choose_order(lam, round_beta(gamma_inf, lam), T, Omega) for lam in grid}
    assert len(orders) >= 2
    mse_of, _, failed = recovery._grid_mse(y, gamma, Omega, grid)
    assert failed == {}
    np.testing.assert_array_equal(mse_of, _oracle_scores(y, gamma, Omega, grid))
    _assert_same_search(y, gamma, Omega, 0.3, 2.0, 0.01)


@pytest.mark.parametrize("amplitude, orders", [(4.0, {1, 2}), (20.0, {2}), (100.0, {3})])
def test_every_rule_order_scores_bitwise_as_the_oracle(amplitude, orders):
    # the rule's order grows with the amplitude, so the batched unfolding
    # runs at orders 1 to 3 on 8-bit samples
    gamma, y, Omega = _measurement(256, "8-bit", amplitude=amplitude)
    grid = np.arange(0.55, 1.45 + 0.005, 0.01)
    gamma_inf = float(np.max(np.abs(gamma.values)))
    assert {choose_order(lam, round_beta(gamma_inf, lam), y.grid.T, Omega) for lam in grid} == orders
    mse_of, _, failed = recovery._grid_mse(y, gamma, Omega, grid)
    assert failed == {}
    np.testing.assert_array_equal(mse_of, _oracle_scores(y, gamma, Omega, grid))
    _assert_same_search(y, gamma, Omega, 0.55, 1.45, 0.01)


def _near_critical(K=64, rho=0.97):
    """A signal sampled with T*Omega*e = rho close to 1: the order rule asks
    for N >= K at the small thresholds of 0.2:1.2 and for N < K above."""
    gamma, y, _ = _measurement(K, "noiseless", amplitude=3.0)
    return gamma, y, rho / (y.grid.T * np.e)


def test_thresholds_whose_order_fails_are_skipped_as_by_the_oracle():
    gamma, y, Omega = _near_critical()
    grid = np.arange(0.2, 1.2 + 0.025, 0.05)
    mse_of, _, failed = recovery._grid_mse(y, gamma, Omega, grid)
    assert 0 < len(failed) < len(grid)
    assert all("need more than N=" in text for text in failed.values())
    oracle = _oracle_scores(y, gamma, Omega, grid)
    np.testing.assert_array_equal(np.isnan(oracle), [i in failed for i in range(len(grid))])
    np.testing.assert_array_equal(mse_of, oracle)
    _assert_same_search(y, gamma, Omega, 0.2, 1.2, 0.05)


@pytest.mark.parametrize(
    "case,lo,hi,step,first_error",
    [("order N >= K", 0.2, 0.3, 0.05, "need more than N=92 samples, got 64"),
     ("T*Omega*e >= 1", 0.5, 1.5, 0.1, "baseline order rule has no solution")],
)
def test_every_threshold_failing_raises_the_oracle_error(case, lo, hi, step, first_error):
    gamma, y, Omega = _near_critical()
    if case == "T*Omega*e >= 1":
        Omega = 1.5 / (y.grid.T * np.e)
    with pytest.raises(RecoveryError) as ours:
        optimize_lambda(y, gamma, Omega, lo, hi, step)
    with pytest.raises(RecoveryError) as oracle:
        _reference.optimize_lambda(y, gamma, Omega, lo, hi, step)
    assert str(ours.value) == str(oracle.value)
    assert f"every threshold in [{lo}, {hi}] failed" in str(ours.value)
    assert first_error in str(ours.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_bounds_are_rejected(bad):
    gamma, y, Omega = _measurement(64, "noiseless")
    for lo, hi, step in ((bad, 1.0, 0.1), (0.5, bad, 0.1), (0.5, 1.0, bad)):
        with pytest.raises(ValueError, match="need finite lo, hi and step"):
            optimize_lambda(y, gamma, Omega, lo, hi, step)


def _strict_cases():
    """(y, threshold, Omega, beta): ideal folds, and jittered folds that
    trip the strict check at some stage, at amplitudes whose rule orders
    run from 1 to 4."""
    cases = []
    for K, kind, seed in ((256, "noiseless", 3), (2048, "8-bit", 4), (256, "non-ideal", 5),
                          (2048, "non-ideal", 6), (64, "non-ideal", 8)):
        for amplitude in (4.0, 20.0, 100.0):
            gamma, y, Omega = _measurement(K, kind, seed=seed, amplitude=amplitude)
            for lam in (0.7, 1.0, 1.3):
                beta = round_beta(float(np.max(np.abs(gamma.values))), lam)
                cases.append((y, lam, Omega, beta))
    return cases


def test_usf_recover_keeps_the_oracle_diagnostics_and_strict_failures():
    raised = 0
    for y, lam, Omega, beta in _strict_cases():
        for strict in (False, True):
            try:
                expected = _reference.usf_recover(y, lam, Omega, beta, strict=strict)
            except FoldConsistencyError as exc:
                raised += 1
                with pytest.raises(FoldConsistencyError) as ours:
                    usf_recover(y, lam, Omega, beta, strict=strict)
                assert str(ours.value) == str(exc)
                continue
            report = usf_recover(y, lam, Omega, beta, strict=strict)
            assert list(report.diagnostics) == list(expected.diagnostics)
            assert report.diagnostics == expected.diagnostics
            np.testing.assert_array_equal(report.gamma_hat.values, expected.gamma_hat.values)
            np.testing.assert_array_equal(report.residue_hat.values,
                                          expected.residue_hat.values)
    # the cases must exercise the strict check, at more than one stage
    assert raised >= 5


def test_strict_failure_names_the_oracle_stage():
    stages = set()
    for y, lam, Omega, beta in _strict_cases():
        try:
            _reference.usf_recover(y, lam, Omega, beta)
        except FoldConsistencyError as exc:
            stages.add(str(exc).split(":")[0])
    assert len(stages) >= 2, stages


@pytest.mark.parametrize("amplitude, N", [(4.0, 1), (20.0, 2), (100.0, 3)])
def test_strict_check_at_the_bound(amplitude, N):
    # where beta leaves the rule's order unchanged, it sets only the check:
    # stage n fails when its norm exceeds (rho^n + 1e-6) * beta. Put beta
    # just below and just above the largest beta at which some stage fails
    gamma, y, Omega = _measurement(256, "noiseless", amplitude=amplitude)
    beta0 = round_beta(float(np.max(np.abs(gamma.values))), 1.0)
    probe = usf_recover(y, 1.0, Omega, beta0, strict=False).diagnostics
    assert probe["N"] == N
    rho = probe["T_Omega_e"]
    norms = [probe[f"stage_{n}_excess"] + rho**n * beta0 for n in range(N)]
    critical = max(norm / (rho**n + 1e-6) for n, norm in enumerate(norms))
    for factor, raises in ((1 - 1e-9, True), (1 + 1e-9, False)):
        beta = critical * factor
        assert choose_order(1.0, beta, y.grid.T, Omega) == N
        try:
            _reference.usf_recover(y, 1.0, Omega, beta)
            oracle = None
        except FoldConsistencyError as exc:
            oracle = str(exc)
        assert (oracle is not None) == raises
        if raises:
            with pytest.raises(FoldConsistencyError) as ours:
                usf_recover(y, 1.0, Omega, beta)
            assert str(ours.value) == oracle
        else:
            usf_recover(y, 1.0, Omega, beta)


def test_one_row_and_batch_agree():
    # the kernel's rows do not depend on which other thresholds share the batch
    gamma, y, Omega = _measurement(256, "8-bit")
    N = 2
    diffs = recovery._difference_ladder(y.values, N)
    grid = np.arange(0.55, 1.45 + 0.005, 0.01)
    residue, raw, snap, norms = recovery._unfold(diffs, grid[:, None])
    for r, lam in enumerate(grid):
        one = recovery._unfold(diffs, np.full((1, 1), lam))
        np.testing.assert_array_equal(residue[r], one[0][0])
        np.testing.assert_array_equal(raw[r], one[1][0])
        assert snap[r] == one[2][0]
        np.testing.assert_array_equal(norms[r], one[3][0])


def test_difference_ladder_matches_direct_differences():
    y = np.random.default_rng(0).standard_normal(40)
    diffs = recovery._difference_ladder(y, 5)
    np.testing.assert_array_equal(diffs[0], y)
    for n in range(1, 6):
        np.testing.assert_array_equal(diffs[n], finite_difference(y, n))
    # T*Omega*e = 0.97 asks for an order N >= K at beta = 4 lambda
    sv = SampleVector(values=y, grid=UniformGrid(T=1.0, K=40))
    Omega = 0.97 / np.e
    N = choose_order(1.0, 4.0, 1.0, Omega)
    assert N >= 40
    with pytest.raises(ValueError) as ours:
        recovery._baseline_order(sv, 1.0, 4.0, Omega)
    with pytest.raises(ValueError) as direct:
        finite_difference(y, N)
    assert str(ours.value) == str(direct.value)
