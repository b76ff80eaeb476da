#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <wire_warm|cold_stream>
                             --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build; a relative
path is taken from the checkout root): a Release CMake build of
perfbench/CMakeLists.txt, which compiles the library from src/. The build
and output directories are named by a hash of the checkout's path and of
every source the benchmark compiles, so two checkouts, or two versions of
the code, never share a build, a snapshot or a stored answer digest. The
first run of a version builds; later runs re-run CMake's configure step and
only check that the build is current. The benchmark's own stdout passes
through, so its last line is the JSON result. Build failures and missing
sources exit non-zero without a result line.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("wire_warm", "cold_stream")
# A run measures for --seconds plus set-up and, traced, replays and probes;
# anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def source_key(root):
    """Hash of the checkout's path and of the sources the build compiles."""
    digest = hashlib.sha256(os.path.abspath(root).encode())
    files = [os.path.join(root, "bench", "bench_common.h"),
             os.path.join(root, "perfbench", "CMakeLists.txt")]
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            files.extend(os.path.join(dirpath, name) for name in sorted(filenames))
    for path in files:
        digest.update(b"\0" + os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources (src/) in this checkout")
    target_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    key = source_key(root)
    build_dir = os.path.join(target_dir, "perfbench-" + key)
    out_dir = os.path.join(target_dir, "perfbench-out-" + key)
    os.makedirs(out_dir, exist_ok=True)

    def quiet(cmd):
        # Build chatter goes to stderr; stdout carries only the run's output.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))

    quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    quiet(["cmake", "--build", build_dir, "--target", "km_perfbench", "-j", jobs])

    cmd = [os.path.join(build_dir, "km_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
