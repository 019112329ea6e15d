#!/usr/bin/env python3
"""Builds the jstream benchmark binary from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built once into .bench_build/ (Release) and reused by later
runs. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
run stamp and a readable metric table. Traced runs also write their spans
to .bench_build/spans/. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "jstream_perfbench")
WORKLOADS = (
    "ema-static-n1000",
    "campaign-baselines-n200",
    "ema-service-loaded",
    "abr-rtma-n1000",
)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds the binary; a no-op when it is up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "jstream_perfbench",
                       "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {step[:2]} failed: {err}")
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail(f"build step {' '.join(step[:2])} exited {done.returncode}")


def source_stamp():
    """git commit when the checkout is a repository, plus a digest of src/."""
    commit = "none"
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return f"{commit}+src:{digest.hexdigest()[:12]}"


def run(args):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--inject", args.inject, "--commit", source_stamp()]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans",
                    os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        fail(f"{args.workload} exited {proc.returncode} without a valid result")
    sys.stdout.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("none", "pass", "slow"), default="none",
                        help="scheduler decorator for the sensitivity self-check "
                             "(untraced ema-static-n1000 only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    build()
    run(args)


if __name__ == "__main__":
    main()
