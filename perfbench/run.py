#!/usr/bin/env python3
"""Builds and runs the native ADSALA end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench_native (Release) under .bench_build/perfbench; later runs only
re-check the build. The benchmark's last stdout line is the result object
(see perfbench/README.md); build output and progress go to stderr. Result
files, traced spans and install artefacts land in .bench_build/perfbench-out.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("gemm_small_fresh", "gemm_repeat", "level3_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
# Sources whose content identifies the measured code when no git metadata
# is available (the benchmark may run from a plain export of the tree).
DIGEST_ROOTS = ("CMakeLists.txt", "src", "bench/bench_util.h", "perfbench")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]", 2)
    return args


def run_step(cmd, timeout):
    """Runs one build step with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}", 1)
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(map(str, cmd))}", 1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no ADSALA sources under {ROOT} (CMakeLists.txt and src/ "
             "are required to build the benchmark)", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", str(BUILD_DIR), "--target",
              "perfbench_native", "-j", jobs], BUILD_TIMEOUT_S)
    return BUILD_DIR / "perfbench_native"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_sha256():
    digest = hashlib.sha256()
    files = []
    for name in DIGEST_ROOTS:
        path = ROOT / name
        if path.is_dir():
            files.extend(p for p in path.rglob("*") if p.is_file())
        elif path.is_file():
            files.append(path)
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    args = parse_args()
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR), "--git-sha", git_sha(),
           "--source-sha256", source_sha256()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    if done.returncode != 0:
        fail(f"perfbench_native exited with {done.returncode}", done.returncode)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("perfbench_native printed no result object", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
