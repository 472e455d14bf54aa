#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload discover-long --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, as a table

Run it from the repository root. The first run configures and builds
perfbench/ (the hyfd library from src/ plus the benchmark program) into the
directory named by CARGO_TARGET_DIR, or .bench_build; later runs only check
that the build is current. Each workload runs in its own process, so peak_rss_mb is
per workload. With --trace 0 the last stdout line holds every end-to-end
metric of BENCHMARK.json; with --trace 1 it holds every per-layer metric.
A per-layer metric of a layer the workload's path never calls reads 0.
Inputs and span dumps go to .bench_work/.

Seeds: 7 is the default (discover-long then gives the paper-reproduction
numbers of bench_fig9_threads: 686 FDs, 14,284,351 comparisons); 11 is kept
for held-out checks of later claims.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["discover-long", "discover-wide", "service-crud"]
DEFAULT_SEED = 7  # seed 11 is held out; see the docstring
# A run must end within 180 s; the build of a fresh checkout is exempt.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures once, then lets cmake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", "perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process and returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(ROOT, ".bench_work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    end_to_end, per_layer = load_spec()
    expected = per_layer if trace else end_to_end
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        fail(f"{workload} reported metrics BENCHMARK.json does not list: {unknown}")
    for name, metric in metrics.items():
        if metric["unit"] != expected[name]:
            fail(f"{workload}: {name} has unit {metric['unit']}, "
                 f"BENCHMARK.json says {expected[name]}")
    if not trace and set(metrics) != set(end_to_end):
        fail(f"{workload} is missing end-to-end metrics "
             f"{sorted(set(end_to_end) - set(metrics))}")
    # Layers this workload's path never calls read 0.
    ordered = {name: metrics.get(name, {"value": 0, "unit": unit})
               for name, unit in expected.items()}
    result["metrics"] = ordered
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.workload != "all":
        result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
        return

    for workload in WORKLOADS:
        result = run_workload(binary, workload, args.seed, args.seconds, args.trace)
        print(f"{workload}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:>16.4f} {metric['unit']}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
