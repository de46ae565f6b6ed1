#!/usr/bin/env python3
"""Builds and runs the OASIS perfbench harness for one workload.

    python3 perfbench/run.py --workload motif_mmap --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds perfbench/ (which compiles the
library from ../src) with CMake under $CARGO_TARGET_DIR (default
.bench_build), runs one workload, stores the full result -- metrics,
fingerprint, layer shares and gate violations -- under
<build dir>/results/, and prints as its last stdout line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones (and a
spans file is written beside the result).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("motif_mmap", "motif_pool25", "reads_live")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds the harness; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError(f"no OASIS sources at {ROOT}/src; run from a checkout")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake is not on PATH")
    binary = os.path.join(out_dir, "oasis_perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "oasis_perfbench", "-j3"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return binary


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return []
    with open(spec_path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except RuntimeError as err:
        log(f"perfbench: {err}")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(out_dir, f"work-{os.getpid()}")]
    if args.trace:
        cmd += ["--spans", os.path.join(results, tag + ".spans.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S} s")
        return 3
    lines = done.stdout.strip().splitlines()
    try:
        full = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: harness printed no result (exit {done.returncode})")
        return 4

    with open(os.path.join(results, tag + ".json"), "w") as out:
        json.dump(full, out, indent=1, sort_keys=True)
    print("fingerprint " + json.dumps(full["fingerprint"], sort_keys=True))
    if full["layer_shares"]:
        print("layer_shares " + json.dumps(full["layer_shares"], sort_keys=True))
    metrics = full["per_layer"] if args.trace else full["end_to_end"]
    missing = [name for name in expected_metrics(args.trace) if name not in metrics]
    if missing:
        log("perfbench: missing metrics " + ", ".join(missing))
        full["correct"] = False
    print(json.dumps({
        "correct": full["correct"],
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": metrics,
    }))
    return 0 if done.returncode == 0 and full["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
