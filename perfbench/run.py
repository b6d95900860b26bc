#!/usr/bin/env python3
"""Run one workload of the PlanetP end-to-end benchmark.

    python3 perfbench/run.py --workload search|publish|live_search \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the library
from src/) into .bench_build/, runs the untraced program (--trace 0: end-to-end
metrics) or the traced one (--trace 1: per-layer metrics), and prints two
lines: a record of the machine and source the result came from, then the
result itself as the last line of standard output:

    {"correct": true, "attempted": n, "failed": n, "metrics": {...}}

The record and result are also kept under .bench_build/results/, and the
traced run's spans under .bench_build/traces/. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("search", "publish", "live_search")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
REFERENCE = os.path.join(HERE, "reference", "search_seed1.txt")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr, so stdout stays the result."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(target, deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                  max(1, deadline - time.time()))
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_quiet(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
              max(1, deadline - time.time()))
    return os.path.join(BUILD, target)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler():
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        return cxx


def source_id():
    """The git commit when there is one, and always a digest of the sources."""
    record = {}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            record["git_commit"] = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    record["source_sha256"] = digest.hexdigest()
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = "perfbench_trace" if args.trace else "perfbench_e2e"
    binary = build(target, time.time() + BUILD_TIMEOUT_S)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".jsonl")]
    else:
        cmd += ["--reference", REFERENCE]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (target, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited with %d" % (target, proc.returncode))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("%s printed no result" % target)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
    }
    record.update(source_id())
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
