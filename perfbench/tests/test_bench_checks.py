"""The benchmark's checks accept exact outputs and reject planted errors.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
from modsample import folding, signal_model  # noqa: E402

LAM = 1.0
K, P = 512, 6


@pytest.fixture
def truth():
    g = checks.bandlimited_truth(np.random.default_rng(7), K, P)
    return 4.0 * g


def test_exact_recovery_passes_and_one_sample_off_by_two_lambda_fails(truth):
    tol = checks.EXACT * checks.dynamic_range(truth) ** 2
    assert checks.check_recovery("gamma_fd", truth + 0.3, truth, tol) is None
    planted = truth.copy()
    planted[100] += 2 * LAM
    assert "gamma_fd" in checks.check_recovery("gamma_fd", planted, truth, tol)


def test_baseline_off_by_one_fold_fails_the_quantized_bound(truth):
    q = 2 * LAM / 256
    planted = truth.copy()
    planted[300:310] += 2 * LAM
    assert checks.check_recovery("gamma_us", truth, truth, q * q / 4) is None
    assert checks.check_recovery("gamma_us", planted, truth, q * q / 4) is not None


def test_missing_estimate_fails(truth):
    assert checks.check_recovery("gamma_us", np.full(K, np.nan), truth, 1.0) is not None


def test_capture_quantized_one_level_off_fails(truth):
    q = 2 * LAM / 256
    modulo = checks.midrise_quantize(checks.centered_modulo(truth, LAM), LAM, 8)
    assert checks.check_modulo_column(modulo, truth, LAM, 8) is None
    planted = modulo.copy()
    planted[42] += q
    assert checks.check_modulo_column(planted, truth, LAM, 8) is not None


def test_modsample_fold_and_quantizer_match_the_checks(truth):
    grid = signal_model.UniformGrid(T=1.0 / K, K=K)
    gamma = signal_model.SampleVector(values=truth, grid=grid)
    y, _ = folding.fold_ideal(gamma, LAM)
    assert checks.check_folded(y.values, truth, LAM) is None
    assert checks.check_modulo_column(y.values, truth, LAM, None) is None
    yq = signal_model.quantize(y, 8, LAM)
    assert checks.check_modulo_column(yq.values, truth, LAM, 8) is None


def test_fold_off_the_lattice_or_out_of_range_fails(truth):
    y = checks.centered_modulo(truth, LAM)
    assert checks.check_folded(y, truth, LAM) is None
    shifted = y.copy()
    shifted[5] += 0.5 if shifted[5] < 0 else -0.5
    assert "non-multiple" in checks.check_folded(shifted, truth, LAM)
    assert "outside" in checks.check_folded(y * 1.01 + 0.02, truth, LAM)


def test_truth_with_out_of_band_energy_fails(truth):
    assert checks.check_bandlimited(truth, P) is None
    k = np.arange(K)
    planted = truth + 1e-6 * np.cos(2 * np.pi * (P + 1) * k / K)
    assert "out-of-band" in checks.check_bandlimited(planted, P)


def test_samples_match_their_coefficients():
    g = signal_model.synthesize_random(P, 1.0, 5.0, 3)
    grid = signal_model.UniformGrid(T=1.0 / K, K=K)
    values = signal_model.sample(g, grid).values
    assert checks.check_samples(values, g.coeffs, K) is None
    planted = values.copy()
    planted[9] *= 1 + 1e-6
    assert checks.check_samples(planted, g.coeffs, K) is not None


def test_capture_csv_round_trips_through_modsample(tmp_path, truth):
    from modsample import harness

    modulo = checks.centered_modulo(truth, LAM)
    checks.write_capture_csv(tmp_path / "c.csv", modulo)
    capture = harness.load_capture(tmp_path / "c.csv")
    np.testing.assert_array_equal(capture.modulo, modulo)
    assert capture.K == K and abs(capture.T - 1.0 / K) < 1e-15


def test_threshold_for_folds_is_the_smallest_with_at_most_the_target(truth):
    lam = checks.threshold_for_folds(truth, 20)
    assert checks.jump_count(truth - checks.centered_modulo(truth, lam), lam) <= 20
    lower = lam * (1 - 1e-6)
    assert checks.jump_count(truth - checks.centered_modulo(truth, lower), lower) > 20


def test_a_known_fault_excuses_only_the_checks_it_fails():
    import workloads

    op = workloads.Op("8-bit", 512, lambda: None, lambda _: [], excused=("gamma_fd",))
    fd = "gamma_fd: calibrated MSE 1.4 > 0.0005"
    us = "gamma_us: calibrated MSE 0.1 > 4e-06"
    assert workloads.unexcused(op, [fd]) == []
    assert workloads.unexcused(op, [fd, us]) == [us]
    assert workloads.unexcused(op, ["raised ValueError: x"]) == ["raised ValueError: x"]
    dense = workloads.Op("dense", 1024, lambda: None, lambda _: [],
                         excused=workloads.DENSE_FAULT_CHECKS)
    assert workloads.unexcused(dense, ["recover exit 3: step 4"]) == []
    assert workloads.unexcused(dense, ["recover exit 1: usage"]) == ["recover exit 1: usage"]
    plain = workloads.Op("plain", 1024, lambda: None, lambda _: [])
    assert workloads.unexcused(plain, [fd]) == [fd]


def test_only_the_three_failing_8_bit_captures_are_known_faults(tmp_path):
    import workloads

    ops, _ = workloads.simulate_compare(None, tmp_path, 1)
    excused = [(op.K, op.excused) for op in ops if op.excused]
    assert excused == [(512, ("gamma_fd",)), (1024, ("gamma_fd",)), (2048, ("gamma_fd",))]
