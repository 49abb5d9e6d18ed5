#!/usr/bin/env python3
"""Keystore benchmark entry point.

    python3 perfbench/run.py --workload ss512|mock_rw \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library sources of the
repository plus the keystore_bench program) into .bench_build/perfbench,
runs one workload, echoes its report, and prints as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. Exits non-zero, without a JSON line, if the build or the
run fails; exits non-zero after the JSON line if a correctness gate failed.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "keystore_bench")
STATE = os.path.join(ROOT, ".bench_build", "state")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then an incremental build (a no-op when up to date).
    Build output goes to stderr so stdout stays the report."""
    src = os.path.join(ROOT, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/CMakeLists.txt under %s: run from the repository root" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build step failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", STATE]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("workload run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def parse(out):
    """`metric <name> <value> <unit>` lines and the final `result` line."""
    metrics, result = {}, None
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts and parts[0] == "result":
            result = dict(p.split("=", 1) for p in parts[1:])
    return metrics, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    rc, out = run(args)
    sys.stdout.write(out)
    metrics, result = parse(out)
    if result is None:
        die("workload run ended without a result (exit code %d)" % rc)

    chosen = {}
    for m in declared_metrics(args.trace):
        if m["name"] not in metrics:
            die("metric %s was not reported" % m["name"])
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            die("metric %s reported in %s, declared in %s" % (m["name"], unit, m["unit"]))
        chosen[m["name"]] = {"value": value, "unit": unit}
    correct = result.get("correct") == "1" and rc == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": chosen}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
