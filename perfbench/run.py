#!/usr/bin/env python3
"""Build and run the analock repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: calibrate, spec_sweep, attack_screen, verify_src (see
perfbench/README.md). The script configures and builds the benchmark
binary from the checkout's sources into .bench_build/perfbench (Release,
incremental after the first run), then runs it on a one-worker thread pool
(ANALOCK_THREADS=1). The binary prints a human-readable report and, as the
last line of standard output, one JSON result object. With --trace 1 the
recorded spans are written to .bench_build/spans/.

Exit codes: 0 on a completed run (its JSON says whether the outputs were
correct), non-zero without a result when the sources are missing, the
build fails, the binary fails or the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPAN_DIR = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ("calibrate", "spec_sweep", "attack_screen", "verify_src")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
        timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def src_digest():
    """Content hash of the library sources: provenance without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log(f"no analock sources under {ROOT} (need CMakeLists.txt and src/)")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    if args.trace == 1:
        os.makedirs(SPAN_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, ANALOCK_THREADS="1")
    sys.stdout.flush()
    try:
        # The child inherits stdout, so its JSON line is our last line.
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4
    if proc.returncode != 0:
        log(f"benchmark binary exited with {proc.returncode}")
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
