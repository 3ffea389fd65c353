"""modsample benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports modsample from its
`src/`. One workload runs in this process; `--workload all` (the default)
runs each workload in a fresh process of its own. Timed rounds of
operations repeat while another round still fits in `--seconds` (by
default `run_seconds` of BENCHMARK.json), and until at least two rounds
and 40 operations have run.
With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it has the
per-layer metrics of a traced run instead. `--setup-only` sets up, prints
the set-up time and exits; the untraced run starts such processes to take
the median set-up time. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5  # processes whose set-up time is measured: this one and four fresh ones
TAIL_MIN_OPS = 40
# A capture_recover round takes about half the run length; at least two
# rounds keeps the operation count, and so the tail percentile, the same
# from run to run instead of flipping between one round and two.
MIN_ROUNDS = 2
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


def import_modsample():
    """Import modsample from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "modsample" / "__init__.py").is_file():
        sys.exit(f"no modsample sources under {src}")
    sys.path.insert(0, str(src))
    import modsample

    for module in tracer.MODULES:
        importlib.import_module(f"modsample.{module}")

    if Path(modsample.__file__).resolve().parent != (src / "modsample").resolve():
        sys.exit(f"imported modsample from {modsample.__file__}, not from {src}")
    return modsample


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None if unknown."""
    import ctypes
    import glob

    import numpy

    for lib in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                return getattr(ctypes.CDLL(lib), fn)()
            except (OSError, AttributeError):
                continue
    return None


def run_rounds(ops, seconds, records, spans=None, min_ops=1):
    """Run whole rounds of `ops` until `min_ops` operations have run and
    another round no longer fits in `seconds`; appends (op index, seconds,
    failed checks) to `records`."""
    start = time.perf_counter()
    first = len(records)
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            if spans is not None:
                spans.op = len(records)
            t = time.perf_counter()
            try:
                outcome, raised = op.run(), None
            except Exception as exc:  # an operation that raises is a failed one
                outcome, raised = None, f"raised {type(exc).__name__}: {exc}"[:200]
            elapsed = time.perf_counter() - t
            failures = [raised] if raised else op.check(outcome)
            records.append((i, elapsed, tuple(failures)))
        now = time.perf_counter()
        if len(records) - first >= min_ops and now - start + (now - round_start) > seconds:
            return


def tail(times):
    """(percentile, value) of the highest percentile with 10 samples beyond
    it; a run has at least TAIL_MIN_OPS samples, so it is a tail."""
    n = len(times)
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def report_failures(ops, records):
    """Each distinct failure once, with its count, inputs and failed checks;
    a failure no known fault explains is marked UNEXPECTED."""
    seen = collections.Counter((i, f) for i, _, f in records if f)
    for (i, failures), count in sorted(seen.items()):
        mark = " UNEXPECTED" if workloads.unexcused(ops[i], failures) else ""
        print(f"FAILED{mark} x{count} [{ops[i].label}] {'; '.join(failures)}")


def per_layer_values(names, summary, n_ops):
    """Per-operation value of each `<module>.<function>.<kind>` metric; a
    function the package no longer has, or that never ran, reads 0."""
    out = {}
    for name in names:
        func, _, kind = name.rpartition(".")
        out[name] = summary[func][kind] / n_ops if func in summary else 0.0
    return out


def per_k_table(ops, records, spans, first_op):
    """Traced cli.*, harness.* and spectral.* seconds per operation, by K,
    over the seed-drawn operations (the known faults have other M)."""
    by_k = {}
    for op_id, (i, _, _) in enumerate(records[first_op:], start=first_op):
        if not ops[i].excused:
            by_k.setdefault(ops[i].K, set()).add(op_id)
    rows = {K: tracer.summarize(spans, ids) for K, ids in sorted(by_k.items())}
    names = sorted({n for s in rows.values() for n in s
                    if n.startswith(("cli.", "harness.", "spectral."))})
    print("# traced seconds per operation by K: " + " | ".join(["K", "ops"] + names))
    for K, summary in rows.items():
        n = len(by_k[K])
        cells = [f"{summary[f]['time_s'] / n:.4g}" if f in summary else "-" for f in names]
        print("# " + " | ".join([str(K), str(n)] + cells))


def set_up(name, seed):
    """Import modsample, build the workload's inputs and warm up. Returns
    (package, work dir, operations, seconds since the first line of run.py)."""
    ms = import_modsample()
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops, warm = workloads.WORKLOADS[name](ms, work, seed % 2**64)
    for op in warm:
        op.check(op.run())
    return ms, work, ops, time.perf_counter() - _T0


def run_self(args):
    """Run this script with `args` in a fresh process from the checkout's
    root; returns its output lines and its last line's JSON object."""
    cmd = [sys.executable, str(Path(__file__).resolve())] + [str(a) for a in args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return lines, json.loads(lines[-1])


def run_setup_only(name, seed):
    _, work, _, setup_s = set_up(name, seed)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s}))


def run_workload(name, seed, seconds, traced, bench):
    ms, work, ops, own_setup_s = set_up(name, seed)
    try:
        print(f"# workload={name} seed={seed} ops_per_round={len(ops)} "
              f"blas_threads={blas_threads()} setup_s_this_process={own_setup_s:.4f}")
        records = []
        if not traced:
            run_rounds(ops, seconds, records, min_ops=max(TAIL_MIN_OPS, MIN_ROUNDS * len(ops)))
            times = [t for _, t, _ in records]
            pct, op_tail_s = tail(times)
            setups = [own_setup_s] + [
                run_self(["--workload", name, "--seed", seed, "--setup-only"])[1]["setup_s"]
                for _ in range(SETUP_RUNS - 1)]
            print(f"# setup_s of {SETUP_RUNS} processes: {[round(v, 4) for v in setups]}")
            print(f"# op_tail_s is p{pct:.2f} of {len(times)} operations")
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": sum(not f for _, _, f in records) / sum(times),
                "op_p50_s": statistics.median(times),
                "op_tail_s": op_tail_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            names = [m["name"] for m in bench["end_to_end"]]
        else:
            # one untraced round is the baseline for the tracing overhead
            run_rounds(ops, 0.0, records)
            first = len(records)
            spans = tracer.Tracer()
            with spans.installed(ms) as wrapped:
                run_rounds(ops, seconds - sum(t for _, t, _ in records), records, spans)
            names = [m["name"] for m in bench["per_layer"]]
            layer_names = [n for n in names if n != "trace.overhead_s"]
            metrics = per_layer_values(layer_names, tracer.summarize(spans.spans),
                                       len(records) - first)
            metrics["trace.overhead_s"] = (
                statistics.median(t for _, t, _ in records[first:])
                - statistics.median(t for _, t, _ in records[:first]))
            absent = sorted({n.rpartition(".")[0] for n in layer_names} - set(wrapped))
            print(f"# traced {len(wrapped)} functions; absent from the package: "
                  f"{', '.join(absent) or 'none'}")
            if any(op.K for op in ops):
                per_k_table(ops, records, spans.spans, first)
            spans.dump(ROOT / ".bench_work" / f"trace-{name}-{seed}.json",
                       [ops[i].label for i, _, _ in records])
        report_failures(ops, records)
        failed = sum(bool(f) for _, _, f in records)
        unexpected = sum(bool(workloads.unexcused(ops[i], f)) for i, _, f in records)
        print(f"# {name}: attempted={len(records)} failed={failed} "
              f"failed_outside_known_faults={unexpected}")
        units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
        for key in names:
            print(f"# {key} = {metrics[key]:.6g} {units[key]}")
        result = {
            "correct": unexpected == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args):
    """Each workload in a fresh process; a combined summary at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        lines, result = run_self(["--workload", name, "--seed", args.seed,
                                  "--seconds", args.seconds, "--trace", args.trace])
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    elif args.setup_only:
        run_setup_only(args.workload, args.seed)
    else:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace), bench)


if __name__ == "__main__":
    main()
