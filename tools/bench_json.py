#!/usr/bin/env python3
"""Run the micro_kernels benchmark binary and snapshot results as JSON.

Produces BENCH_kernels.json at the repo root (or --out): a trimmed,
stable-ordered subset of google-benchmark's JSON output plus build context,
suitable for committing as a performance baseline and diffing across PRs.
Every row's real_time_ns / cpu_time_ns is in nanoseconds, whatever unit the
benchmark reported in. The context records this project's CMAKE_BUILD_TYPE
(build_type) and global pool size (pool_threads) as the micro_* binaries
report them; libbenchmark_build_type is the installed libbenchmark's.
Top-level keys of an existing output file that this tool does not write
(pre_blocking_baseline) are carried over.

With --repetitions N (N > 1) each benchmark runs N times and its row is the
median of the N runs (google-benchmark's median aggregate), recorded under
the benchmark's own name; the context records N as `repetitions`.

Usage:
    python3 tools/bench_json.py --binary build/bench/micro_kernels
    python3 tools/bench_json.py --binary ... --min-time 0.01 --out /tmp/b.json
    python3 tools/bench_json.py --binary ... --repetitions 5
"""

import argparse
import json
import pathlib
import subprocess
import sys


def run_benchmark(binary: pathlib.Path, min_time: float,
                  benchmark_filter: str, repetitions: int = 1) -> dict:
    cmd = [
        str(binary),
        "--benchmark_format=json",
        # Old libbenchmark releases parse min_time with stod, so a plain
        # float string (no "s" suffix) works everywhere.
        f"--benchmark_min_time={min_time:g}",
    ]
    if repetitions > 1:
        cmd += [f"--benchmark_repetitions={repetitions}",
                "--benchmark_report_aggregates_only=true"]
    if benchmark_filter:
        cmd.append(f"--benchmark_filter={benchmark_filter}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


# Nanoseconds per google-benchmark time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def summarize(raw: dict) -> dict:
    """One row per benchmark: its single run, or the median aggregate of its
    repetitions under the benchmark's own name. Other aggregates (mean,
    stddev, cv) are dropped."""
    ctx = raw.get("context", {})
    rows = []
    repetitions = 1
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") != "median":
                continue
            name = b["run_name"]
            repetitions = max(repetitions, int(b.get("repetitions", 1)))
        else:
            name = b["name"]
        ns = NS_PER_UNIT[b.get("time_unit", "ns")]
        row = {
            "name": name,
            "real_time_ns": round(b["real_time"] * ns, 1),
            "cpu_time_ns": round(b["cpu_time"] * ns, 1),
        }
        if b.get("run_type") != "aggregate":
            row["iterations"] = b["iterations"]
        if "items_per_second" in b:
            # items == FLOPs for the GEMM benchmarks, so this is FLOP/s.
            row["items_per_second"] = round(b["items_per_second"], 1)
        if "bytes_per_second" in b:
            # Serialization benchmarks report input throughput in bytes/s.
            row["bytes_per_second"] = round(b["bytes_per_second"], 1)
        # Round-throughput counters (micro_rounds): device activations/s,
        # local solver updates/s, and heap allocations per round (every
        # operator new the timed runs make, counted by the linked
        # tests/testing/alloc_counter.cpp; not kernel-scratch growths).
        for key in ("devices_per_second", "updates_per_second",
                    "allocs_per_round"):
            if key in b:
                row[key] = round(b[key], 2)
        if b.get("label"):
            row["label"] = b["label"]
        rows.append(row)
    rows.sort(key=lambda r: r["name"])
    return {
        "context": {
            "host_name": ctx.get("host_name", ""),
            "num_cpus": ctx.get("num_cpus", 0),
            "mhz_per_cpu": ctx.get("mhz_per_cpu", 0),
            "build_type": ctx.get("fedvr_build_type", ""),
            "pool_threads": int(ctx.get("fedvr_pool_threads", 0)),
            "libbenchmark_build_type": ctx.get("library_build_type", ""),
            "repetitions": repetitions,
        },
        "benchmarks": rows,
    }


def carried_over(out: pathlib.Path) -> dict:
    """Top-level keys of an existing snapshot that summarize() does not
    write, such as BENCH_kernels.json's pre_blocking_baseline."""
    try:
        old = json.loads(out.read_text())
    except (OSError, ValueError):
        return {}
    return {k: v for k, v in old.items()
            if k not in ("context", "benchmarks")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True, type=pathlib.Path,
                        help="path to the built micro_kernels executable")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent
                        / "BENCH_kernels.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--min-time", type=float, default=0.1,
                        help="--benchmark_min_time per benchmark, seconds")
    parser.add_argument("--filter", default="",
                        help="optional --benchmark_filter regex")
    parser.add_argument("--repetitions", type=int, default=1,
                        help="runs per benchmark; above 1, each row is the "
                        "median of the runs")
    args = parser.parse_args()
    if args.repetitions < 1:
        parser.error("--repetitions must be at least 1")

    if not args.binary.exists():
        print(f"error: benchmark binary not found: {args.binary}",
              file=sys.stderr)
        return 1
    raw = run_benchmark(args.binary, args.min_time, args.filter,
                        args.repetitions)
    summary = summarize(raw)
    summary.update(carried_over(args.out))
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out} ({len(summary['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
