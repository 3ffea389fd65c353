"""The three workloads: inputs, operations and their checks.

A workload builder returns one round of operations. The benchmark runs
whole rounds, so every run attempts the same operations in the same
proportions. Inputs that depend on the seed come from `seed`; the inputs
that exercise the two known faults (dense folds, 8-bit captures) are fixed,
so those operations fail the same way on every run.

Every check of an operation runs, also after another one has failed, and
an operation's check returns the list of failed checks. A known-fault
operation excuses only the checks its fault explains: any other failed
check of it makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# Fixed seed for the inputs of the known-fault operations.
FAULT_SEED = 20210512


@dataclass
class Op:
    label: str
    K: int  # sample count, 0 where it is found during the operation
    run: Callable[[], object]  # timed: the calls into modsample
    check: Callable[[object], list]  # untimed: the failed checks, as checks.py words them
    excused: tuple = ()  # names of the checks one of the two known faults fails


def unexcused(op, failures):
    """The failures of `op` that no known fault explains; a failure line
    names its check before the first ':'."""
    return [f for f in failures if f.split(":", 1)[0] not in op.excused]


def call_cli(ms, argv):
    """modsample.cli.main(argv) in-process, its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = ms.cli.main([str(a) for a in argv])
    return code, sink.getvalue().strip().splitlines()


def _exit_failure(what, code, lines):
    first = lines[0][:160] if lines else ""
    return f"{what} exit {code}: {first}"


def _failures(*results):
    return [r for r in results if r is not None]


# -- capture_recover ---------------------------------------------------------

# Seed-drawn captures: (K, P, folds wanted, non-ideal). The default
# estimator is exact on these; from about M=24 on it fails on some fold
# patterns, and an operation that fails on some seeds only cannot be
# counted steadily, so M stays at 16 or below here. 24 are K=1024 and 10
# are K=2048 (P from 4 to 20, M from 6 to 16, every other one non-ideal):
# the median operation is a K=1024 one and the tail one a K=2048 one, for
# any number of rounds up to three. The K>=4096 ones carry the
# O(L^2..L^3) cost and the memory peak.
CAPTURE_SLOTS = (
    tuple((1024, 4 + 7 * i % 17, 6 + 2 * (i % 6), i % 2 == 1) for i in range(24))
    + tuple((2048, 4 + 5 * i % 17, 8 + 2 * (i % 5), i % 2 == 1) for i in range(10))
    + ((4096, 20, 16, False), (8192, 20, 16, False))
)
# Known fault, fixed inputs: (K, P, folds wanted, non-ideal, RNG key).
# Dense tier, M ~ K/8 ... K/4, where the M+1-tap annihilator breaks down,
# and two crowded captures (M=24 and M=43) that it already gets wrong. The
# fault shows as exit 3 ("root finding failed") or as a wrong gamma_fd.
FAULT_CAPTURES = (
    (1024, 10, 128, False, [FAULT_SEED, 0]), (1024, 5, 256, False, [FAULT_SEED, 1]),
    (2048, 10, 256, False, [FAULT_SEED, 2]),
    (1024, 20, 24, False, [20, 4]), (2048, 20, 40, True, [36, 9]),
)
DENSE_FAULT_CHECKS = ("recover exit 3", "gamma_fd")


def _capture(rng, K, P, M_target, nonideal):
    """(truth, modulo, M) of one capture made by the benchmark."""
    g = checks.bandlimited_truth(rng, K, P)
    lam = checks.threshold_for_folds(g, M_target)
    residue = g - checks.centered_modulo(g, lam)
    if nonideal:
        residue = checks.perturb_residue(residue, lam, rng)
    return g, g - residue, checks.jump_count(residue, lam)


def capture_recover(ms, work, seed):
    slots = [(K, P, M, ni, [seed, i], ()) for i, (K, P, M, ni) in enumerate(CAPTURE_SLOTS)]
    slots += [(*slot, DENSE_FAULT_CHECKS) for slot in FAULT_CAPTURES]
    ops = []
    for i, (K, P, M_target, nonideal, key, excused) in enumerate(slots):
        truth, modulo, M = _capture(np.random.default_rng(key), K, P, M_target, nonideal)
        path = work / f"capture{i}.csv"
        checks.write_capture_csv(path, modulo)
        out = work / f"recover{i}"
        argv = ["recover", "--input", path, "--P", P, "--M", M,
                "--method", "fp", "--output-dir", out]

        def run(argv=argv):
            return call_cli(ms, argv)

        def check(result, truth=truth, out=out):
            code, lines = result
            if code != 0:
                return [_exit_failure("recover", code, lines)]
            rec = checks.read_reconstruction(out / "reconstruction.csv")
            tol = checks.EXACT * checks.dynamic_range(truth) ** 2
            return _failures(checks.check_recovery("gamma_fd", rec["gamma_fd"], truth, tol))

        kind = ("known fault " if excused else "") + ("non-ideal" if nonideal else "ideal")
        ops.append(Op(f"K={K} P={P} M={M} {kind}", K, run, check, excused))
    return ops, ops[:1]


# -- trial_batch -------------------------------------------------------------

# Trials per round; P cycles through 1..15 so every round has the same mix.
TRIALS_PER_ROUND = 60
LAMBDA = 1.0
# A criterion-1 draw (P=7, 20 folds crowded into 27 of K=58 samples) on which
# the M+1-tap annihilator returns a wrong answer: kept as a known fault.
# (P, synthesize_random seed, amplitude)
CROWDED_TRIAL = (7, [25, 21], 6.773872351239024)


def _fixpoint_trial(ms, g, P, lam):
    """K = 2(P+M+1)+2 consistent with the realized circular fold count M."""
    sm = ms.signal_model
    M = 1
    for _ in range(30):
        K = 2 * (P + M + 1) + 2
        grid = sm.UniformGrid(T=1.0 / K, K=K)
        gamma = sm.sample(g, grid)
        y, residue = ms.folding.fold_ideal(gamma, lam)
        spec = ms.folding.residue_spec_from_samples(residue, 1.0)
        M_realized = ms.harness.realized_fold_count(spec, grid)
        if M_realized == M:
            return gamma, y, M, True
        M = M_realized
    return gamma, y, M, False


def _trial_amplitude(key, stratum):
    """Uniform in the `stratum`-th quarter of [3, 8] lambda."""
    u = float(np.random.default_rng(key + [1]).uniform())
    return LAMBDA * (3.0 + 5.0 * (stratum + u) / 4.0)


def _trial_op(ms, P, key, amp, excused=()):

    def run():
        g = ms.signal_model.synthesize_random(P, 1.0, amp, key)
        gamma, y, M, settled = _fixpoint_trial(ms, g, P, LAMBDA)
        report = None
        if settled and 1 <= M <= 20:
            report = ms.recovery.fourier_prony_recover(y, P, M)
        return g, gamma, y, report

    def check(result):
        g, gamma, y, report = result
        failures = _failures(checks.check_samples(gamma.values, g.coeffs, gamma.grid.K),
                             checks.check_folded(y.values, gamma.values, LAMBDA))
        if report is not None:
            tol = checks.EXACT * checks.dynamic_range(gamma.values) ** 2
            failures += _failures(checks.check_recovery(
                "fourier_prony_recover", report.gamma_hat.values, gamma.values, tol))
        return failures

    return Op(f"P={P} trial {key}", 0, run, check, excused)


def trial_batch(ms, work, seed):
    """TRIALS_PER_ROUND draws of the criterion-1 family, then the crowded
    trial. Each P gets one amplitude from each quarter of [3, 8] lambda,
    so every round has the same mix of fold counts. A draw whose exact
    M+1-tap Toeplitz system is rank-deficient (about 1 in 1000) fails only
    on the seeds that draw one, so it is replaced by the next draw; the
    crowded trial stands for them all."""
    ops = []
    j = 0
    while len(ops) < TRIALS_PER_ROUND:
        n = len(ops)
        P, key, amp = 1 + n % 15, [seed, j], _trial_amplitude([seed, j], n // 15 % 4)
        j += 1
        g = ms.signal_model.synthesize_random(P, 1.0, amp, key)
        gamma, y, M, settled = _fixpoint_trial(ms, g, P, LAMBDA)
        if (settled and 1 <= M <= 20 and checks.annihilator_rank_deficient(
                gamma.values - y.values, P, M)):
            continue
        ops.append(_trial_op(ms, P, key, amp))
    ops.append(_trial_op(ms, *CROWDED_TRIAL, excused=("fourier_prony_recover",)))
    return ops, ops[:15]


# -- simulate_compare --------------------------------------------------------

# (K, P). All satisfy T*Omega*e < 1 (K > 17.1 P), so the baseline applies.
SIM_SLOTS = ((256, 2), (512, 4), (512, 6), (1024, 5), (2048, 8))
# The (K, P) whose fixed 8-bit capture the default estimator gets wrong:
# gamma_fd misses 100 q^2/12. The other 8-bit captures pass every check.
QUANTIZED_FAULTS = ((512, 6), (1024, 5), (2048, 8))
SIM_AMPLITUDE = 4.0
GRID = "0.55:1.45:0.01"
GRID_STEP = 0.01
BITS = 8


def _simulate_op(ms, work, i, K, P, sim_seed, bits, excused=()):
    d = work / f"sim{i}"
    sim = ["simulate", "--tau", 1, "--K", K, "--P", P, "--lambda", LAMBDA,
           "--amplitude", SIM_AMPLITUDE, "--seed", sim_seed, "--output-dir", d]
    if bits:
        sim += ["--bits", bits]
    rec = ["recover", "--input", d / "capture.csv", "--P", P, "--lambda", LAMBDA,
           "--method", "both", "--lambda-grid", GRID, "--p-inflation", 0,
           "--output-dir", d / "rec"]

    def run():
        code, lines = call_cli(ms, sim)
        if code != 0:
            return "simulate", code, lines
        return ("recover",) + call_cli(ms, rec)

    def check(result):
        step, code, lines = result
        if step == "simulate":
            return [_exit_failure(step, code, lines)]
        cols = checks.read_capture_csv(d / "capture.csv")
        truth = cols["truth"]
        failures = _failures(checks.check_bandlimited(truth, P),
                             checks.check_modulo_column(cols["modulo"], truth, LAMBDA, bits))
        if code != 0:
            return failures + [_exit_failure(step, code, lines)]
        recon = checks.read_reconstruction(d / "rec" / "reconstruction.csv")
        if bits:
            q = 2.0 * LAMBDA / 2**bits
            fp_tol, us_tol = 100 * q * q / 12, q * q / 4
        else:
            fp_tol = us_tol = checks.EXACT * checks.dynamic_range(truth) ** 2
        failures += _failures(
            checks.check_recovery("gamma_fd", recon["gamma_fd"], truth, fp_tol),
            checks.check_recovery("gamma_us", recon["gamma_us"], truth, us_tol))
        lam_opt = checks.read_metrics(d / "rec" / "metrics.txt").get("lambda_opt", "")
        if not lam_opt or abs(float(lam_opt) - LAMBDA) > GRID_STEP * (1 + 1e-9):
            failures.append(f"lambda_opt: {lam_opt or 'missing'}, "
                            f"not within {GRID_STEP} of {LAMBDA}")
        return failures

    kind = ("known fault " if excused else "") + (f"{bits}-bit" if bits else "noiseless")
    return Op(f"K={K} P={P} seed={sim_seed} {kind}", K, run, check, excused)


def simulate_compare(ms, work, seed):
    """Per (K, P): two noiseless captures with seed-drawn signals and one
    8-bit capture with a fixed signal."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i, (K, P) in enumerate(SIM_SLOTS):
        for _ in range(2):
            ops.append(_simulate_op(ms, work, len(ops), K, P, int(rng.integers(2**31)), None))
        excused = ("gamma_fd",) if (K, P) in QUANTIZED_FAULTS else ()
        ops.append(_simulate_op(ms, work, len(ops), K, P, FAULT_SEED + i, BITS, excused))
    return ops, ops[:1]


WORKLOADS = {
    "capture_recover": capture_recover,
    "trial_batch": trial_batch,
    "simulate_compare": simulate_compare,
}
