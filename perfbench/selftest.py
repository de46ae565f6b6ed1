#!/usr/bin/env python3
"""Smoke-size self-tests of the perfbench harness.

    python3 perfbench/selftest.py

Builds the harness the way run.py does, then checks on tiny inputs that:
  * BENCHMARK.json keeps to its format limits;
  * every workload emits all nine end-to-end metrics, finite, with units;
  * the same seed gives the same input digest and another seed another one;
  * traced mode emits every per-layer metric BENCHMARK.json names;
  * the open-loop generator reports lateness when it cannot keep up.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def harness(binary, workload, seed, trace, extra=()):
    workdir = os.path.join(run.build_dir(), f"selftest-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "2",
           "--trace", str(trace), "--workdir", workdir, "--smoke", *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-3000:])
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def metrics_ok(got, spec):
    """Names every spec metric missing, non-finite or with the wrong unit."""
    bad = []
    for m in spec:
        value = got.get(m["name"])
        if (value is None or not isinstance(value["value"], (int, float))
                or not math.isfinite(value["value"]) or value["unit"] != m["unit"]):
            bad.append(m["name"])
    return bad


def check_spec(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "BENCHMARK.json names are well-formed and unique")
    check(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]),
          "BENCHMARK.json units are well-formed")
    check(all(len(w["why"]) <= 200 for w in spec["workloads"]),
          "workload reasons fit in 200 characters")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(max(bounds.values()) <= 0.25 and bounds.get("setup_s") == max(bounds.values()),
          "bounds are at most 0.25 and setup_s has the largest")
    check(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS,
          "BENCHMARK.json names exactly the harness workloads")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    binary = run.build(run.build_dir())

    digests = {}
    for workload in run.WORKLOADS:
        result = harness(binary, workload, 1, 0)
        bad = metrics_ok(result["end_to_end"], spec["end_to_end"])
        check(result["correct"] and not bad,
              f"{workload}: all end-to-end metrics, finite, with units {bad or ''}")
        digests[workload] = result["fingerprint"]["input_digest"]

    for workload in ("motif_mmap", "reads_live"):
        again = harness(binary, workload, 1, 0)["fingerprint"]["input_digest"]
        other = harness(binary, workload, 2, 0)["fingerprint"]["input_digest"]
        check(again == digests[workload] and other != digests[workload],
              f"{workload}: same seed, same input digest; new seed, new digest")
    check(digests["motif_mmap"] == digests["motif_pool25"],
          "motif_mmap and motif_pool25 share their inputs")

    for workload in run.WORKLOADS:
        result = harness(binary, workload, 1, 1)
        bad = metrics_ok(result["per_layer"], spec["per_layer"])
        check(result["correct"] and not bad,
              f"{workload}: traced run emits every per-layer metric {bad or ''}")

    overloaded = harness(binary, "reads_live", 1, 1, ("--rate", "400"))
    lag = overloaded["per_layer"]["loadgen.lag_ms_p99"]["value"]
    check(lag > 1.0, f"open loop past capacity reports lateness (p99 {lag:.1f} ms)")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
