#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload world|replay|campaign|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. On first use it configures and builds
perfbench/ (the simulator libraries from src/ in Release, the benchmark
binary, and the self-test of its reporting helpers) into .bench_build/;
later runs only let the build check itself. Every run executes the self-test,
then one workload, and relays the binary's output. The last line of
standard output is the JSON result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. Per-run records and span files land in
.bench_build/results/. The exit status is 0 only when the build, the
self-test, every op and every output check passed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")
WORKLOADS = ("world", "replay", "campaign", "serve")
BUILD_TIMEOUT_S = 840
SELFTEST_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def run_child(cmd, timeout, **kwargs):
    """Runs |cmd| in its own process group; on timeout kills the whole group
    (compilers under cmake included) and waits for it before raising."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def build():
    """Configures (once) and builds the benchmark; returns an error or None."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "ab") as log:
        for step in steps:
            try:
                code, _, _ = run_child(step, BUILD_TIMEOUT_S, stdout=log,
                                       stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                return "build timed out: " + " ".join(step)
            if code != 0:
                return "build failed (see .bench_build/build.log): " + \
                    " ".join(step)
    return None


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the simulator sources, so every record names the code it measured."""
    try:
        code, out, _ = run_child(["git", "-C", ROOT, "rev-parse", "HEAD"], 10,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
        if code == 0:
            return "git:" + out.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this trace mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parses the binary's result line; returns (result, problems)."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, ["last output line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are not correct/attempted/failed/metrics")
        return None, problems
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (missing, extra))
    return result, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources under src/ next to perfbench/",
              file=sys.stderr)
        return 1
    error = build()
    if error is not None:
        print("perfbench: " + error, file=sys.stderr)
        return 1
    try:
        code, out, _ = run_child([os.path.join(BUILD, "perfbench_selftest")],
                                 SELFTEST_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        code, out = 1, b"self-test timed out\n"
    if code != 0:
        sys.stderr.write(out.decode(errors="replace"))
        print("perfbench: helper self-test failed", file=sys.stderr)
        return 1

    os.makedirs(RESULTS, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--manifest", os.path.join(HERE, "builtin_campaign.xml"),
           "--out", RESULTS, "--revision", revision()]
    try:
        code, out, _ = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    lines = out.decode(errors="replace").rstrip("\n").split("\n")
    result, problems = check_result(lines[-1], args.trace == 1)
    if result is None:
        sys.stdout.write("\n".join(lines) + "\n")
        for problem in problems:
            print("perfbench: " + problem, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    for problem in problems:
        print("  FAILED   " + problem)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
