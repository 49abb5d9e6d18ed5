#!/usr/bin/env python3
"""Smoke test of the keystore benchmark, on short mock_rw runs.

    python3 perfbench/smoke_test.py      # from the repository root, ~1 min

Checks that:
  1. run.py prints every metric BENCHMARK.json declares, with its unit, for
     --trace 0 and --trace 1, and the report names every end-to-end metric of
     README.md with its unit;
  2. a seeded transport::FaultPlan on the client connections shows up in
     fail_frac, the run still completes with a result, and its correctness
     gates hold (see README.md: a refresh whose retries all fail after the
     server committed leaves the client epoch behind until the key's next
     contact, and the epoch gate reports it);
  3. a forced wrong-plaintext comparison fails the run (non-zero exit);
  4. in a directory holding only BENCHMARK.json and perfbench/, run.py exits
     non-zero without printing a result.
Exits 0 when all pass.
"""
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build() and the paths of the build)

REPORTED = {"ops_per_s": "ops/s", "dec_p50_ms": "ms", "dec_p99_ms": "ms",
            "refresh_p50_ms": "ms", "refresh_p99_ms": "ms", "fail_frac": "ratio",
            "setup_s": "s", "rss_peak_mb": "MB"}
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_py(trace, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mock_rw",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def binary(*extra):
    return subprocess.run([run.BINARY, "--workload", "mock_rw", "--seed", "3",
                           "--seconds", "1", "--trace", "0",
                           "--state-dir", run.STATE] + list(extra),
                          capture_output=True, text=True, timeout=170)


def main():
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        p = run_py(trace)
        lines = p.stdout.strip().splitlines()
        check(p.returncode == 0 and lines, "run.py --trace %d exits 0" % trace)
        if not lines:
            continue
        res = json.loads(lines[-1])
        got = res.get("metrics", {})
        missing = [m["name"] for m in spec[key]
                   if got.get(m["name"], {}).get("unit") != m["unit"]]
        check(not missing, "--trace %d reports every %s metric with its unit %s"
              % (trace, key, missing or ""))
        check(res.get("correct") is True and res.get("failed") == 0,
              "--trace %d is correct with no failed ops" % trace)
        if trace == 0:
            printed, _ = run.parse(p.stdout)
            absent = [n for n, u in REPORTED.items() if printed.get(n, (0, ""))[1] != u]
            check(not absent, "report names every end-to-end metric with its unit %s"
                  % (absent or ""))

    # One retry, not zero: KsFleet drops a failed connection only before a
    # retry, so an op that exhausts its attempts leaves the dead connection
    # in its lane, and with zero retries every later op on that shard fails.
    p = binary("--faults", "0.05", "--max-retries", "1")
    metrics, result = run.parse(p.stdout)
    frac = metrics.get("fail_frac", (0.0, ""))[0]
    check(result is not None, "faulted run completes with a result (exit %d)" % p.returncode)
    check(frac > 0, "injected faults show up in fail_frac (%g)" % frac)
    gates = [l for l in p.stdout.splitlines() if "CORRECTNESS GATE FAILED" in l]
    check(p.returncode == 0 and result is not None and result.get("correct") == "1",
          "faulted run passes the correctness gates %s" % (gates or ""))

    p = binary("--force-wrong", "3")
    check(p.returncode != 0 and "CORRECTNESS GATE FAILED" in p.stdout,
          "forced wrong plaintext fails the run (exit %d)" % p.returncode)

    bare = os.path.join(run.ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run_py(0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(p.returncode != 0 and '"metrics"' not in p.stdout,
          "without the sources run.py fails without a result (exit %d)" % p.returncode)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
