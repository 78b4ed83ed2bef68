#!/usr/bin/env python3
"""Builds and runs the QCF benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
QCF libraries plus the benchmark from source (CMake) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. The benchmark's output, whose last line is the JSON
result, is passed through unchanged, and so is its exit code. Scratch files
(disk code caches, span traces) go to .perfbench_work/ in the checkout.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "Server.h")):
        fail("QCF sources (src/) not found; run from the root of a checkout")
    cmake = shutil.which("cmake")
    if not cmake:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run([cmake, "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return build_dir


def main():
    args = sys.argv[1:]
    build_dir = build()
    work_dir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_dir, exist_ok=True)
    if args == ["--self-test"]:
        cmd = [os.path.join(build_dir, "qcf_perfbench_tests"), "--work-dir", work_dir,
               "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json")]
    else:
        cmd = [os.path.join(build_dir, "qcf_perfbench")] + args + ["--work-dir", work_dir]
    # The child writes only under work_dir; wait for it and pass its
    # verdict through.
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
