#!/usr/bin/env python3
"""Oversampling study: sweep the sample count K from below the recovery
bound upward and report where exact unfolding kicks in.

Usage:
    python3 scripts/sweep_oversampling.py [--P 4] [--amplitude 4.0]
        [--output-dir OUT]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modsample import UniformGrid, sampling_bounds
from modsample.harness import (
    ExperimentConfig,
    SyntheticSource,
    realized_fold_count,
    run_experiment,
    sweep,
    synthesize_measurement,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--P", type=int, default=4)
    parser.add_argument("--amplitude", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args(argv)

    src = SyntheticSource(
        P=args.P, tau=1.0, amplitude=args.amplitude,
        seed=args.seed, threshold=1.0,
    )
    # probe the fold count on a fine grid first so K_min is meaningful
    probe = UniformGrid(T=1.0 / 512, K=512)
    _, _, spec = synthesize_measurement(src, probe)
    M = realized_fold_count(spec, probe)
    _, _, K_min = sampling_bounds(1.0, args.P, M)
    values = sorted({int(round(f * K_min)) for f in np.linspace(0.6, 8.0, 20)})

    cfg = ExperimentConfig(T=1.0 / K_min, K=K_min, method="fp", source=src,
                           threshold=1.0)
    rows = sweep(cfg, "K", values, output_dir=args.output_dir)

    print(f"P={args.P}, realized folds M={M}, K_min={K_min}")
    print(f"{'K':>6} {'K/K_min':>8} {'MSE_FD':>12}")
    for row in rows:
        if row["error"]:
            print(f"{int(row['value']):>6} {row['value'] / K_min:>8.2f} "
                  f"{'error: ' + row['error'][:50]}")
        else:
            print(f"{int(row['value']):>6} {row['value'] / K_min:>8.2f} "
                  f"{row['MSE_FD']:>12.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
