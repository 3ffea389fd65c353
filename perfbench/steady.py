"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seed0 1]

Runs each workload `--runs` times, each run in a fresh process with its own
seed (seed0, seed0+1, ...) and the run length of BENCHMARK.json, and prints
for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4), the spread (Q3-Q1) as a share of the median,
and that spread over the metric's bound in BENCHMARK.json. A spread at or
above a third of the bound means the metric is not steady enough for that
bound. It also prints the share of failed operations of each run, which
must be the same in every run.
"""

import argparse
import json
import statistics

import run


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workload:
        results = [run.run_self(["--workload", workload, "--seed", args.seed0 + r,
                                 "--trace", 0])[1]
                   for r in range(args.runs)]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        ratios = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, failed/attempted {', '.join(shares)}"
              f" ({'one share' if len(ratios) == 1 else 'SHARES DIFFER'}),"
              f" correct={all(r['correct'] for r in results)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"  {name:14s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {spread:.3f}  spread/bound {spread / bound:.2f}"
                  f"  values {' '.join(f'{v:.4g}' for v in values)}", flush=True)


if __name__ == "__main__":
    main()
