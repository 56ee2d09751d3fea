#!/usr/bin/env python3
"""Unit tests for tools/bench_json.py's summary: every row's *_ns keys in
nanoseconds whatever the benchmark's time_unit, this project's build type
and pool size in the context, and hand-curated keys of an existing snapshot
carried over."""

import importlib.util
import json
import pathlib
import tempfile
import unittest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", TOOL)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)

RAW = {
    "context": {"host_name": "h", "num_cpus": 4, "mhz_per_cpu": 2000,
                "library_build_type": "debug", "fedvr_build_type": "Release",
                "fedvr_pool_threads": "4"},
    "benchmarks": [
        {"name": "BM_Round", "run_type": "iteration", "iterations": 10,
         "real_time": 2.5, "cpu_time": 0.25, "time_unit": "ms"},
        {"name": "BM_Gemm", "run_type": "iteration", "iterations": 7,
         "real_time": 1500.0, "cpu_time": 1400.0, "time_unit": "ns",
         "items_per_second": 3e9},
        {"name": "BM_Gemm_mean", "run_type": "aggregate", "iterations": 7,
         "real_time": 1.0, "cpu_time": 1.0, "time_unit": "ns"},
    ],
}


# What --benchmark_repetitions=3 --benchmark_report_aggregates_only=true
# prints: aggregate rows only, named <run_name>_<aggregate>.
def aggregate(run_name, stat, real, cpu, **extra):
    return dict({"name": f"{run_name}_{stat}", "run_name": run_name,
                 "run_type": "aggregate", "aggregate_name": stat,
                 "repetitions": 3, "iterations": 3, "real_time": real,
                 "cpu_time": cpu, "time_unit": "us"}, **extra)


RAW_REPEATED = {
    "context": RAW["context"],
    "benchmarks": [
        aggregate("BM_Round", "mean", 2.0, 1.0, allocs_per_round=12.5),
        aggregate("BM_Round", "median", 1.5, 0.75, allocs_per_round=11.8),
        aggregate("BM_Round", "stddev", 0.5, 0.25, allocs_per_round=0.1),
        aggregate("BM_Round", "cv", 0.25, 0.25, allocs_per_round=0.01),
    ],
}


class SummarizeTest(unittest.TestCase):
    def test_times_are_nanoseconds(self):
        rows = {r["name"]: r for r in bench_json.summarize(RAW)["benchmarks"]}
        self.assertEqual(sorted(rows), ["BM_Gemm", "BM_Round"])
        self.assertEqual(rows["BM_Round"]["real_time_ns"], 2.5e6)
        self.assertEqual(rows["BM_Round"]["cpu_time_ns"], 2.5e5)
        self.assertNotIn("time_unit", rows["BM_Round"])
        self.assertEqual(rows["BM_Gemm"]["real_time_ns"], 1500.0)

    def test_context_names_both_builds(self):
        ctx = bench_json.summarize(RAW)["context"]
        self.assertEqual(ctx["build_type"], "Release")
        self.assertEqual(ctx["pool_threads"], 4)
        self.assertEqual(ctx["libbenchmark_build_type"], "debug")
        self.assertNotIn("library_build_type", ctx)

    def test_repetitions_keep_the_median_under_the_benchmark_name(self):
        summary = bench_json.summarize(RAW_REPEATED)
        self.assertEqual(summary["context"]["repetitions"], 3)
        self.assertEqual(summary["benchmarks"], [{
            "name": "BM_Round", "real_time_ns": 1500.0,
            "cpu_time_ns": 750.0, "allocs_per_round": 11.8}])
        self.assertEqual(bench_json.summarize(RAW)["context"]["repetitions"],
                         1)

    def test_carries_over_curated_keys(self):
        with tempfile.TemporaryDirectory() as d:
            out = pathlib.Path(d) / "b.json"
            self.assertEqual(bench_json.carried_over(out), {})
            out.write_text(json.dumps({"context": {}, "benchmarks": [],
                                       "pre_blocking_baseline": {"x": 1}}))
            self.assertEqual(bench_json.carried_over(out),
                             {"pre_blocking_baseline": {"x": 1}})


if __name__ == "__main__":
    unittest.main()
