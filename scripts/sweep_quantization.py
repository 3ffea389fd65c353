#!/usr/bin/env python3
"""Quantization study: recovery error versus ADC bit depth.

Runs the same folded signal through a 6..14-bit mid-rise quantizer and
reports the calibrated reconstruction MSE, which should fall roughly 4x per
added bit pair until numerical precision takes over.

Usage:
    python3 scripts/sweep_quantization.py [--P 6] [--K 256]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modsample.harness import ExperimentConfig, SyntheticSource, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--P", type=int, default=6)
    parser.add_argument("--K", type=int, default=256)
    parser.add_argument("--amplitude", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(f"{'bits':>5} {'q':>10} {'MSE_FD':>12}")
    for bits in (6, 8, 10, 12, 14, None):
        src = SyntheticSource(
            P=args.P, tau=1.0, K=args.K, amplitude=args.amplitude,
            seed=args.seed, threshold=1.0, bits=bits,
        )
        cfg = ExperimentConfig(method="fp", source=src)
        metrics = run_experiment(cfg)
        q = 2.0 / 2**bits if bits is not None else 0.0
        label = str(bits) if bits is not None else "none"
        print(f"{label:>5} {q:>10.2e} {metrics['MSE_FD']:>12.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
