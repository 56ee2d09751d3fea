#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. On first use it configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. It then runs the perfbench binary, which generates
every input from --seed, measures for --seconds, checks its outputs, and
prints one JSON result as its last line. This script checks that the metric
names and units in that result are exactly BENCHMARK.json's and prints the
result as its own last line. Diagnostics and build output go to stderr.

--selftest builds the binaries, runs the benchmark's own GoogleTest suite,
and checks that BENCHMARK.json and perfbench/layer_map.json name exactly the
metrics and workloads the binary emits.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out


def commit_id():
    """The checkout's commit, or 'unknown' when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def selftest(out, spec):
    problems = []
    tests = os.path.join(out, "perfbench_selftest")
    if not os.path.isfile(tests):
        problems.append("perfbench_selftest was not built (GoogleTest missing?)")
    elif subprocess.run([tests], stdout=sys.stderr).returncode:
        problems.append("perfbench_selftest failed")

    listed = json.loads(subprocess.run(
        [os.path.join(out, "perfbench"), "--list-metrics"],
        capture_output=True, text=True, check=True).stdout)
    if [w["name"] for w in spec["workloads"]] != listed["workloads"]:
        problems.append("BENCHMARK.json workloads differ from the binary's")
    for key in ("end_to_end", "per_layer"):
        ours = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        theirs = [(m["name"], m["unit"], m["better"]) for m in listed[key]]
        if ours != theirs:
            problems.append(f"BENCHMARK.json {key} differs from the binary's")
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    workloads = set(listed["workloads"])
    if set(layer_map["map"]) != per_layer:
        problems.append("layer_map.json does not name every per-layer metric")
    for name, edges in layer_map["map"].items():
        for edge in edges:
            if edge["end_to_end"] not in e2e or edge["workload"] not in workloads \
                    or edge["expect"] not in ("moves", "flat"):
                problems.append(f"layer_map.json: bad entry for {name}: {edge}")
    for workload, entries in layer_map["structural"].items():
        for entry in entries:
            if workload not in workloads or entry["metric"] not in per_layer:
                problems.append(f"layer_map.json: bad structural entry {entry}")
    for p in problems:
        print(f"perfbench selftest: {p}", file=sys.stderr)
    print("perfbench selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.selftest:
        sys.exit(selftest(build(), spec))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")

    out = build()
    done = subprocess.run(
        [os.path.join(out, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace), "--commit", commit_id()],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"perfbench exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")

    # The metric set must be exactly the one BENCHMARK.json declares.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
