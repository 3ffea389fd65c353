#!/usr/bin/env python3
"""Synthetic benchmark: Fourier-domain unfolding vs the finite-difference
baseline across a range of bandwidths and fold counts.

Prints one table row per configuration (sampling bounds, dynamic-range ratio
and the MSE of each method) and optionally writes the per-run artifacts.

Usage:
    python3 scripts/run_benchmark.py [--output-dir OUT] [--bits 8]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modsample.harness import ExperimentConfig, SyntheticSource, run_experiment

# (label, P, amplitude, K, seed) -- amplitudes tuned for a moderate fold count
CONFIGS = [
    ("wideband / few folds", 37, 1.6, 455, 0),
    ("narrowband / few folds", 15, 2.5, 249, 1),
    ("mid-band / many folds", 14, 6.0, 199, 2),
    ("low-band / many folds", 3, 8.0, 357, 3),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--bits", type=int, default=None,
                        help="quantize the modulo samples before recovery")
    args = parser.parse_args(argv)

    header = f"{'configuration':<24} {'P':>3} {'M':>4} {'K':>5} {'T_FD/T':>7} " \
             f"{'DR ratio':>9} {'MSE_FD':>10} {'MSE_US':>10}"
    print(header)
    print("-" * len(header))
    for label, P, amplitude, K, seed in CONFIGS:
        src = SyntheticSource(
            P=P, tau=1.0, amplitude=amplitude, seed=seed,
            threshold=1.0, bits=args.bits,
        )
        out = None
        if args.output_dir:
            out = str(Path(args.output_dir) / label.replace(" ", "_").replace("/", "-"))
        cfg = ExperimentConfig(
            T=1.0 / K, K=K, method="both", source=src,
            threshold=1.0, output_dir=out,
        )
        m = run_experiment(cfg)
        mse_us = "failed" if m.get("MSE_US") is None else f"{m['MSE_US']:.2e}"
        print(
            f"{label:<24} {m['P_used']:>3} {m['M']:>4} {m['K']:>5} "
            f"{m['T_FD'] / m['T']:>7.2f} {m['DR_ratio']:>9.2f} "
            f"{m['MSE_FD']:>10.2e} {mse_us:>10}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
