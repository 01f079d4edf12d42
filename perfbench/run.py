#!/usr/bin/env python3
"""RoboShape benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a RoboShape checkout.  Builds the program with the
repository's own CMake (target `roboshape`, Release) into
.bench_build/perfbench/repo, builds the harness package in this directory
against it into .bench_build/perfbench/harness, then runs one workload.
The harness prints one JSON result object as the last line of stdout;
detail files land in .bench_build/perfbench/out.  See README.md.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-hot", "serve-cold", "fd-batch", "sweep-scale")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, log):
    """Runs a build step; its output goes to the build log, not stdout."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            with open(log) as text:
                sys.stderr.write(text.read()[-4000:])
            fail("build step failed: " + " ".join(cmd))


def build(root):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("run from the root of a RoboShape checkout "
             "(no CMakeLists.txt and src/ here)")
    base = os.path.join(root, ".bench_build", "perfbench")
    repo_build = os.path.join(base, "repo")
    harness_build = os.path.join(base, "harness")
    os.makedirs(base, exist_ok=True)
    log = os.path.join(base, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(base, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(repo_build, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", root, "-B", repo_build,
                       "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"], log)
        run_quiet(["cmake", "--build", repo_build, "--target", "roboshape",
                   "-j", jobs], log)
        if not os.path.isfile(os.path.join(harness_build, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", harness_build,
                       "-DCMAKE_BUILD_TYPE=Release",
                       "-DROBOSHAPE_SOURCE_DIR=" + root,
                       "-DROBOSHAPE_BUILD_DIR=" + repo_build], log)
        run_quiet(["cmake", "--build", harness_build, "-j", jobs], log)
    return repo_build, harness_build, os.path.join(base, "out")


def check_result(root, line, trace):
    """Fails unless @p line is the result object the manifest asks for: the
    keys correct, attempted, failed and metrics, and exactly the manifest's
    end-to-end (trace 0) or per-layer (trace 1) metrics, each a finite
    number in its unit."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        want = {m["name"]: m["unit"]
                for m in manifest["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the metrics of BENCHMARK.json: %s" % e)
    try:
        result = json.loads(line)
    except ValueError:
        fail("the harness's last line is not JSON")
    if not isinstance(result, dict) or \
            sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("the result line has the wrong keys")
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing or extra:
        fail("result metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    for name, unit in want.items():
        m = got[name]
        if m.get("unit") != unit or \
                not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            fail("metric %s is not a finite number in %s: %s"
                 % (name, unit, json.dumps(m)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the harness's own check tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    root = os.getcwd()
    repo_build, harness_build, out_dir = build(root)
    if args.self_test:
        sys.exit(subprocess.call(
            [os.path.join(harness_build, "perfbench_check_tests")],
            stdout=sys.stderr))
    cmd = [os.path.join(harness_build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(repo_build, "tools"),
           "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("harness timed out")
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("{"):
        fail("harness exited with status %d and no result" % proc.returncode)
    check_result(root, lines[-1], args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
