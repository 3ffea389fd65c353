"""Command-line interface: simulate / recover / sweep / bounds.

Exit codes: 0 success, 2 argument or config error, 3 recovery failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import folding, harness, recovery
from .exceptions import CaptureFormatError, ModsampleError


def _add_grid_args(p):
    p.add_argument("--tau", type=float, help="signal period in seconds")
    p.add_argument("--T", type=float, help="sampling step in seconds")
    p.add_argument("--K", type=int, help="sample count over one period")
    p.add_argument("--P", type=int, required=True, help="bandwidth index")


def _add_recovery_args(p):
    p.add_argument("--M", type=int, help="number of residue jumps (after differencing)")
    p.add_argument("--method", choices=["fp", "usf", "both"], default="fp")
    p.add_argument("--lambda-grid", type=str,
                   help="lo:hi:step grid for threshold optimization")


def _add_synthetic_args(p):
    p.add_argument("--amplitude", type=float, default=None,
                   help="target max |g(t)| (default 5*lambda)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", type=int, help="quantize modulo samples to this depth")
    p.add_argument("--delay-max", type=int, default=0,
                   help="max fold delay in samples (non-ideality)")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="relative fold-amplitude jitter (non-ideality)")
    p.add_argument("--spurious-rate", type=float, default=0.0,
                   help="expected spurious jumps per period (non-ideality)")
    p.add_argument("--spurious-amp", type=float, default=0.0,
                   help="max spurious jump amplitude in volts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modsample",
        description="Modulo-ADC simulation and Fourier-Prony unfolding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="emit a synthetic capture CSV")
    _add_grid_args(p_sim)
    p_sim.add_argument("--lambda", dest="threshold", type=float, required=True)
    _add_synthetic_args(p_sim)
    p_sim.add_argument("--output-dir", required=True)

    p_rec = sub.add_parser(
        "recover", help="reconstruct a capture file; its time column fixes T and K"
    )
    p_rec.add_argument("--input", required=True, help="capture CSV path")
    p_rec.add_argument("--P", type=int, required=True, help="bandwidth index")
    p_rec.add_argument("--lambda", dest="threshold", type=float, help="folding threshold")
    _add_recovery_args(p_rec)
    p_rec.add_argument("--p-inflation", type=float, default=0.2,
                       help="fractional bandwidth-index inflation for captures")
    p_rec.add_argument("--output-dir", required=True)

    p_sweep = sub.add_parser("sweep", help="sweep a config field over values")
    _add_grid_args(p_sweep)
    p_sweep.add_argument("--lambda", dest="threshold", type=float, required=True)
    _add_synthetic_args(p_sweep)
    _add_recovery_args(p_sweep)
    p_sweep.add_argument("--axis", required=True, help="numeric config field to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--output-dir", required=True)

    p_bounds = sub.add_parser("bounds", help="print T_FD / T_US / K_min")
    p_bounds.add_argument("--tau", type=float, required=True)
    p_bounds.add_argument("--P", type=int, required=True)
    p_bounds.add_argument("--M", type=int, required=True)
    p_bounds.add_argument("--omega", type=float, default=None,
                          help="bandwidth in rad/s (default 2*pi*P/tau)")
    return parser


def _resolve_grid(args) -> tuple[float, int]:
    """(tau, K) from any two of --tau, --T, --K, with tau = K*T."""
    tau, T, K = args.tau, args.T, args.K
    given = sum(v is not None for v in (tau, T, K))
    if given < 2:
        raise ValueError("need at least two of --tau, --T, --K")
    for flag, value in (("--tau", tau), ("--T", T), ("--K", K)):
        if value is not None and not value > 0:
            raise ValueError(f"{flag} must be positive, got {value!r}")
    if tau is None:
        tau = K * T
    elif T is None:
        T = tau / K
    elif K is None:
        K = int(round(tau / T))
    if abs(K * T - tau) > 1e-9 * tau:
        raise ValueError(f"inconsistent grid: K*T={K * T!r} but tau={tau!r}")
    return tau, K


def _parse_lambda_grid(text):
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--lambda-grid must be lo:hi:step")
    return tuple(float(v) for v in parts)


def _synthetic_source(args) -> harness.SyntheticSource:
    tau, K = _resolve_grid(args)
    nonideality = None
    if args.delay_max or args.jitter or args.spurious_rate:
        nonideality = folding.NonIdealityConfig(
            delay_max_samples=args.delay_max,
            threshold_jitter=args.jitter,
            spurious_rate=args.spurious_rate,
            spurious_amp_max=args.spurious_amp,
        )
    amplitude = args.amplitude if args.amplitude is not None else 5.0 * args.threshold
    return harness.SyntheticSource(
        P=args.P,
        tau=tau,
        K=K,
        amplitude=amplitude,
        seed=args.seed,
        threshold=args.threshold,
        nonideality=nonideality,
        bits=args.bits,
    )


def _cmd_simulate(args) -> int:
    src = _synthetic_source(args)
    grid = src.grid
    gamma, y, spec = harness.synthesize_measurement(src)
    folds = harness.realized_fold_count(spec, grid)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "capture.csv"
    harness.write_capture(
        path,
        grid.times,
        y.values,
        truth=gamma.values,
        metadata={
            "tau": src.tau,
            "P": src.P,
            "seed": src.seed,
            "lambda": src.threshold,
            "folds": folds,
        },
    )
    print(f"wrote {path} (K={src.K}, folds={folds})")
    return 0


def _cmd_recover(args) -> int:
    cfg = harness.ExperimentConfig(
        method=args.method,
        capture_path=args.input,
        P_used=args.P,
        p_inflation=args.p_inflation,
        M=args.M,
        threshold=args.threshold,
        lambda_grid=_parse_lambda_grid(args.lambda_grid),
        output_dir=args.output_dir,
    )
    metrics = harness.run_experiment(cfg)
    for key in ("MSE_FD", "MSE_US", "MSE_USopt", "lambda_opt", "DR_ratio"):
        if metrics.get(key) is not None:
            print(f"{key} = {metrics[key]}")
    print(f"outputs in {args.output_dir}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = harness.ExperimentConfig(
        method=args.method,
        source=_synthetic_source(args),
        M=args.M,
        threshold=args.threshold,
        lambda_grid=_parse_lambda_grid(args.lambda_grid),
    )
    values = [v for v in args.values.split(",") if v]
    rows = harness.sweep(cfg, args.axis, values, output_dir=args.output_dir)
    failures = sum(1 for row in rows if row["error"])
    print(f"swept {args.axis} over {len(rows)} values ({failures} failures); "
          f"results in {args.output_dir}/sweep.csv")
    return 0


def _cmd_bounds(args) -> int:
    T_fd, T_us, K_min = recovery.sampling_bounds(args.tau, args.P, args.M, Omega=args.omega)
    print(f"T_FD = {T_fd!r} s")
    print(f"T_US = {T_us!r} s")
    print(f"K_min = {K_min}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "recover": _cmd_recover,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CaptureFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except ModsampleError as exc:
        print(f"recovery error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
