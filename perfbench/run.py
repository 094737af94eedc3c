#!/usr/bin/env python3
"""Repository benchmark for IRACC.

Builds the harness (perfbench/) and the IRACC libraries from this
checkout's sources, sets the workload up from its seed, measures it for
the given time, checks every output, and prints as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set (setup_s, e2e_s,
peak_rss_mb, modeled_fpga_s); with --trace 1 the per-layer set.  See
perfbench/DESIGN.md for the workloads and metrics.

Run from the repository root:

    python3 perfbench/run.py --workload genome-stream --seed 1 \
        --seconds 10 --trace 0
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("genome-stream", "indel-dense", "server-tenants")

# Set-up runs per benchmark run; setup_s is their median.
SETUP_REPEATS = 3

# Wall-clock limits of one harness process, seconds.
SETUP_TIMEOUT = 60
RUN_TIMEOUT = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build the harness; return its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no IRACC source tree (src/) in this checkout")
        sys.exit(1)
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
             build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "iracc_perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "iracc_perfbench")


def harness(binary, args, timeout):
    """Run one harness process; return its stdout lines."""
    out = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                         text=True, timeout=timeout, check=True).stdout
    return out.strip().splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = ap.parse_args()

    root = os.getcwd()
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work = os.path.join(root, ".bench_work",
                        f"{opt.workload}-{opt.seed}-{os.getpid()}")
    common = ["--workload", opt.workload, "--seed", str(opt.seed),
              "--dir", work]
    try:
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        setups = []
        for _ in range(SETUP_REPEATS):
            line = harness(binary, ["setup"] + common, SETUP_TIMEOUT)[-1]
            setups.append(json.loads(line)["setup_s"])
        lines = harness(binary, ["run"] + common + [
            "--seconds", str(opt.seconds), "--trace", str(opt.trace)],
            RUN_TIMEOUT)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError, IndexError) as e:
        log(f"harness failed: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print("setup_runs_s " + json.dumps(setups))
    if not opt.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
