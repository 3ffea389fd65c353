"""The threshold-batched baseline against the one-threshold oracle in
`_reference`: the batched grid search scores every threshold bitwise as the
oracle's per-threshold loop does, the search returns the oracle's optimum
and its MSE, and :func:`usf_recover`, the one-row call of the same kernel,
keeps the oracle's diagnostics and consistency failures."""

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


def _oracle_grid(y, gamma, Omega, grid):
    """The oracle's loop over the grid: per threshold its calibrated MSE (NaN
    where it raises), its beta, and {grid index: error text} of the
    thresholds that raise or score non-finite, as its optimize_lambda
    records them."""
    gamma_inf = float(np.max(np.abs(gamma.values)))
    out = np.full(len(grid), np.nan)
    betas = np.full(len(grid), np.nan)
    failed = {}
    for i, lam in enumerate(grid):
        try:
            betas[i] = round_beta(gamma_inf, lam)
            with np.errstate(over="ignore", invalid="ignore"):
                report = _reference.usf_recover(y, lam, Omega, betas[i], strict=False)
                out[i] = calibrated_mse(report.gamma_hat.values, gamma.values)
        except Exception as exc:
            failed[i] = str(exc)
            continue
        if not np.isfinite(out[i]):
            failed[i] = f"non-finite calibrated MSE {out[i]}"
    return out, betas, failed


def _oracle_scores(y, gamma, Omega, grid):
    """Per-threshold calibrated MSE of the oracle, NaN where it fails."""
    return _oracle_grid(y, gamma, Omega, grid)[0]


def _assert_same_search(y, gamma, Omega, lo, hi, step):
    lam, err = optimize_lambda(y, gamma, Omega, lo, hi, step)
    lam_ref, report_ref = _reference.optimize_lambda(y, gamma, Omega, lo, hi, step)
    assert type(lam) is type(err) is float
    assert lam == lam_ref == report_ref.diagnostics["lambda_opt"]
    assert err == report_ref.diagnostics["lambda_opt_mse"]


@pytest.mark.parametrize("kind", list(_KINDS))
@pytest.mark.parametrize("K", list(_P_OF_K))
def test_every_threshold_scores_bitwise_as_the_oracle(K, kind):
    gamma, y, Omega = _measurement(K, kind)
    grid = np.arange(0.55, 1.45 + 0.005, 0.01)
    mse_of, failed = recovery._grid_mse(y, gamma, Omega, grid)
    assert failed == {}
    np.testing.assert_array_equal(mse_of, _oracle_scores(y, gamma, Omega, grid))
    _assert_same_search(y, gamma, Omega, 0.55, 1.45, 0.01)


def test_grid_larger_than_a_block_spanning_two_orders():
    gamma, y, Omega = _measurement(256, "noiseless")
    grid = np.arange(0.3, 2.0 + 0.005, 0.01)
    assert len(grid) * 256 > recovery._BLOCK_CELLS
    T = y.grid.T
    gamma_inf = float(np.max(np.abs(gamma.values)))
    orders = {choose_order(lam, round_beta(gamma_inf, lam), T, Omega) for lam in grid}
    assert len(orders) >= 2
    mse_of, failed = recovery._grid_mse(y, gamma, Omega, grid)
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
    mse_of, failed = recovery._grid_mse(y, gamma, Omega, grid)
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
    mse_of, failed = recovery._grid_mse(y, gamma, Omega, grid)
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
    trip the consistency check at some stage, at amplitudes whose rule orders
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
        try:
            expected = _reference.usf_recover(y, lam, Omega, beta)
        except FoldConsistencyError as exc:
            raised += 1
            with pytest.raises(FoldConsistencyError) as ours:
                usf_recover(y, lam, Omega, beta)
            assert str(ours.value) == str(exc)
            continue
        report = usf_recover(y, lam, Omega, beta)
        assert list(report.diagnostics) == list(expected.diagnostics)
        assert report.diagnostics == expected.diagnostics
        np.testing.assert_array_equal(report.gamma_hat.values, expected.gamma_hat.values)
        np.testing.assert_array_equal(report.residue_hat.values, expected.residue_hat.values)
    # the cases must exercise the consistency check, at more than one stage
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
    probe = _reference.usf_recover(y, 1.0, Omega, beta0, strict=False).diagnostics
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
    # the kernel's rows do not depend on which other thresholds share the
    # batch, and the rows of its integer path hold the float ladder's values
    gamma, y, Omega = _measurement(256, "8-bit")
    N = 2
    diffs = recovery._difference_ladder(y.values, N)
    grid = np.arange(0.55, 1.45 + 0.005, 0.01)
    assert recovery._counts_exact(diffs, grid.min())
    batch = recovery._unfold(diffs, grid[:, None])
    assert batch[2] is None and batch[3] is None
    batch_stats = recovery._unfold(diffs, grid[:, None], stats=True)
    for r, lam in enumerate(grid):
        one = recovery._unfold(diffs, np.full((1, 1), lam), stats=True)
        for rows in (batch, batch_stats):
            np.testing.assert_array_equal(rows[0][r], one[0][0])
            np.testing.assert_array_equal(rows[1][r], one[1][0])
        assert batch_stats[2][r] == one[2][0]
        np.testing.assert_array_equal(batch_stats[3][r], one[3][0])


def test_integer_counts_hold_the_float_ladder_values_at_every_scale():
    # noise plus a ramp and a parabola, each up to 1e18 times the
    # threshold: where the guard holds, the integer path gives the float
    # ladder's values, and toward the top of the scale the guard sends the
    # rows to the float ladder. A steep ramp has small top counts but a
    # large kappa; a parabola has large equal counts that sum up
    rng = np.random.default_rng(31)
    sides = set()
    for _ in range(600):
        K = int(rng.integers(2, 65))
        N = int(rng.integers(1, min(4, K - 1) + 1))
        k = np.arange(K)
        scale = 10.0 ** rng.uniform(0, 18, size=3) * (rng.random(3) < [1.0, 0.5, 0.5])
        values = rng.standard_normal(K) * scale[0] + scale[1] * k + scale[2] * k * k
        diffs = recovery._difference_ladder(values, N)
        lam = np.exp(rng.uniform(-1, 1, size=(3, 1)))
        sides.add(recovery._counts_exact(diffs, lam.min()))
        ours = recovery._unfold(diffs, lam)
        ladder = recovery._unfold(diffs, lam, stats=True)
        np.testing.assert_array_equal(ours[0], ladder[0])
        np.testing.assert_array_equal(ours[1], ladder[1])
    assert sides == {True, False}


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


# -- random draws against the oracle -----------------------------------------

_DRAW_KINDS = {
    "noiseless": {},
    "8-bit": {"bits": 8},
    "non-ideal": {"nonideality": NonIdealityConfig(delay_max_samples=2, threshold_jitter=0.05,
                                                   spurious_rate=2.0, spurious_amp_max=0.5)},
}


def _draw(rng):
    """One seeded draw: (y, gamma, Omega, lo, hi, step). K runs from 16 to
    8192, the amplitude from 0.6 to 1000, and T*Omega*e is either the
    rule's own, below 1 with P <= 64, or 0.97 with K <= 128. The oracle
    takes each order's differences from the samples anew, so the caps on P
    and K keep its high orders cheap. The grid is a stretch of 0.2:2.0 at
    a step of 0.01 to 0.2."""
    near_critical = rng.random() < 0.3
    K = int(2 ** rng.integers(4, 8 if near_critical else 14))
    P = int(rng.integers(0, min(int(K / (2 * np.pi * np.e) - 1e-9), 64) + 1))
    amplitude = float(np.exp(rng.uniform(np.log(0.6), np.log(1000.0))))
    src = harness.SyntheticSource(P=P, tau=1.0, K=K, amplitude=amplitude,
                                  seed=int(rng.integers(2**31)), threshold=1.0,
                                  **_DRAW_KINDS[list(_DRAW_KINDS)[rng.integers(3)]])
    gamma, y, _ = harness.synthesize_measurement(src)
    Omega = 0.97 / (y.grid.T * np.e) if near_critical else 2.0 * np.pi * P
    step = float(rng.choice([0.01, 0.05, 0.1, 0.2]))
    n = int(rng.integers(1, 16 if K <= 256 and not near_critical else 6 if K <= 1024 else 4))
    lo = round(0.2 + 0.01 * int(rng.integers(0, 181)), 2)
    hi = round(min(2.0, lo + step * (n - 1)), 2)
    return y, gamma, Omega, lo, hi, step


def test_random_draws_match_the_oracle_bitwise(monkeypatch):
    # the grid's scores and failure texts, the search's optimum and its
    # MSE, and one-threshold runs, all as the oracle's
    guard = []

    def recording(diffs, lam):
        guard.append(exact(diffs, lam))
        return guard[-1]

    exact = recovery._counts_exact
    monkeypatch.setattr(recovery, "_counts_exact", recording)
    rng = np.random.default_rng(2027)
    non_finite = 0
    for _ in range(500):
        y, gamma, Omega, lo, hi, step = _draw(rng)
        grid = np.arange(lo, hi + 0.5 * step, step)
        mse_of, failed = recovery._grid_mse(y, gamma, Omega, grid)
        oracle, oracle_betas, oracle_failed = _oracle_grid(y, gamma, Omega, grid)
        np.testing.assert_array_equal(mse_of, oracle)
        assert failed == oracle_failed
        ok = [i for i in range(len(grid)) if i not in failed]
        non_finite += sum("non-finite" in text for text in failed.values())
        if not ok:
            with pytest.raises(RecoveryError) as ours:
                optimize_lambda(y, gamma, Omega, lo, hi, step)
            with pytest.raises(RecoveryError) as oracle_error:
                _reference.optimize_lambda(y, gamma, Omega, lo, hi, step)
            assert str(ours.value) == str(oracle_error.value)
            continue
        _assert_same_search(y, gamma, Omega, lo, hi, step)
        lam, beta = grid[ok[0]], oracle_betas[ok[0]]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = _reference.usf_recover(y, lam, Omega, beta)
        except FoldConsistencyError as exc:
            with pytest.raises(FoldConsistencyError) as ours:
                usf_recover(y, lam, Omega, beta)
            assert str(ours.value) == str(exc)
            continue
        report = usf_recover(y, lam, Omega, beta)
        assert report.diagnostics == expected.diagnostics
        assert report.gamma_hat.values.tobytes() == expected.gamma_hat.values.tobytes()
        assert report.residue_hat.values.tobytes() == expected.residue_hat.values.tobytes()
    # the draws take both sides of the exactness guard, and some overflow
    assert guard.count(True) >= 100 and guard.count(False) >= 50, (guard.count(True), guard.count(False))
    assert non_finite >= 10


def _scalar_rule(y, grid, gamma_inf, Omega):
    """round_beta and the order rule one threshold at a time; beta is NaN
    where round_beta raises."""
    betas, orders, failed = np.full(len(grid), np.nan), [], {}
    for i, lam in enumerate(grid):
        try:
            betas[i] = round_beta(gamma_inf, lam)
            orders.append(recovery._baseline_order(y, lam, betas[i], Omega))
        except Exception as exc:
            failed[i] = str(exc)
            orders.append(0)
    return betas, orders, failed


def test_order_rule_over_the_grid_matches_the_scalar_rule():
    rng = np.random.default_rng(27)
    seen = set()
    for _ in range(400):
        K = int(rng.integers(2, 4096))
        y = SampleVector(values=np.zeros(K), grid=UniformGrid(T=1.0 / K, K=K))
        rho = float(rng.choice([0.0, rng.uniform(0.001, 0.999), rng.uniform(0.9, 0.9999),
                                rng.uniform(1.0, 3.0), 1.0]))
        Omega = rho * K / np.e
        gamma_inf = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e4))))
        grid = np.sort(np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=60)))
        if rng.random() < 0.1:  # thresholds the scalar rule rejects
            grid[rng.integers(60, size=3)] = [-1.0, 0.0, np.nan]
        betas, orders, failed = recovery._grid_orders(y, grid, gamma_inf, Omega)
        scalar_betas, scalar_orders, scalar_failed = _scalar_rule(y, grid, gamma_inf, Omega)
        np.testing.assert_array_equal(betas, scalar_betas)
        assert orders.tolist() == scalar_orders
        assert failed == scalar_failed
        for text in failed.values():
            seen.add("rule" if "baseline order rule has no solution" in text
                     else "samples" if "need more than N=" in text else text)
        if y.grid.T * Omega * np.e >= 1.0:
            assert len(failed) == len(grid)
    assert {"rule", "samples", "beta must be >= threshold"} <= seen


def test_every_threshold_failing_past_the_rate_names_the_rule():
    gamma, y, _ = _measurement(64, "noiseless")
    grid = np.arange(0.5, 1.5 + 0.05, 0.1)
    _, failed = recovery._grid_mse(y, gamma, 1.0 / (y.grid.T * np.e), grid)
    assert list(failed) == list(range(len(grid)))
    assert set(failed.values()) == {
        "T*Omega*e = 1 >= 1; baseline order rule has no solution"}


def _overflowing():
    """T*Omega*e = 0.995 at K = 256: from 0.3 up the order rule asks for 167
    or fewer differences, and every unfolding overflows."""
    src = harness.SyntheticSource(P=1, tau=1.0, K=256, amplitude=0.6, seed=7, threshold=1.0)
    gamma, y, _ = harness.synthesize_measurement(src)
    return gamma, y, 0.995 / (y.grid.T * np.e)


def test_no_finite_score_raises():
    gamma, y, Omega = _overflowing()
    mse_of, failed = recovery._grid_mse(y, gamma, Omega, np.arange(0.3, 2.0 + 0.05, 0.1))
    assert not np.isfinite(mse_of).any() and len(failed) == len(mse_of)
    message = ("every threshold in [0.3, 2.0] failed; first error: "
               "[(0.3, 'non-finite calibrated MSE inf')]")
    with pytest.raises(RecoveryError) as ours:
        optimize_lambda(y, gamma, Omega, 0.3, 2.0, 0.1)
    assert str(ours.value) == message
    with pytest.raises(RecoveryError) as oracle:
        _reference.optimize_lambda(y, gamma, Omega, 0.3, 2.0, 0.1)
    assert str(oracle.value) == message


def test_the_least_finite_score_wins_over_a_nan():
    # T*Omega*e = 0.984: the unfolding overflows at the small thresholds,
    # the first of them to NaN, and scores finite at 31 of the 60
    src = harness.SyntheticSource(P=59, tau=1.0, K=1024, amplitude=3.0, seed=0, threshold=1.0)
    gamma, y, _ = harness.synthesize_measurement(src)
    Omega = 2.0 * np.pi * 59
    mse_of, failed = recovery._grid_mse(y, gamma, Omega, np.arange(0.05, 3.0 + 0.025, 0.05))
    assert np.isnan(mse_of[0]) and 0 in failed
    assert np.isfinite(mse_of).sum() == 31
    assert all("non-finite calibrated MSE" in text for text in failed.values())
    lam, err = optimize_lambda(y, gamma, Omega, 0.05, 3.0, 0.05)
    assert lam == 2.25
    assert err == np.nanmin(mse_of)
    _assert_same_search(y, gamma, Omega, 0.05, 3.0, 0.05)


def test_strict_run_that_overflows_to_nan_fails_the_check():
    # samples of +-1e308 overflow the differences to inf and the unfolding
    # to NaN at every stage; no stage norm compares above its bound
    y = SampleVector(values=1e308 * (-1.0) ** np.arange(16), grid=UniformGrid(T=1.0, K=16))
    Omega, beta = 1e-100 / np.e, 1e306
    with np.errstate(over="ignore", invalid="ignore"):
        unchecked = _reference.usf_recover(y, 1.0, Omega, beta, strict=False)
    assert unchecked.diagnostics["N"] == 4
    assert np.isnan(unchecked.gamma_hat.values).all()
    with pytest.raises(FoldConsistencyError) as ours:
        usf_recover(y, 1.0, Omega, beta)
    assert str(ours.value).startswith("stage 3: reconstructed difference norm nan exceeds")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FoldConsistencyError) as oracle:
        _reference.usf_recover(y, 1.0, Omega, beta)
    assert str(oracle.value) == str(ours.value)
