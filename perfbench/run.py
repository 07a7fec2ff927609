#!/usr/bin/env python3
"""Builds the SpecSync benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload table2|modes|rt --seed N \
        --seconds S --trace 0|1

The benchmark is built with CMake from perfbench/CMakeLists.txt (which
compiles the library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Reports and span files
go to the out/ directory beside the build. Every SPECSYNC_* environment
variable is removed before the benchmark program starts, so ambient
settings cannot change what is measured. The program's last stdout line is
the result JSON.

Exits nonzero without printing a result when the sources are missing, the
build fails, or the benchmark program fails or times out.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# The program runs its set-up rounds, the --seconds window, the traced
# probe and the correctness gate; this margin covers all but the window.
RUN_MARGIN_S = 140
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def work_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd, build_dir)
    run_build_step(["cmake", "--build", build_dir, "--target",
                    "perfbench", "-j", jobs], build_dir)
    return os.path.join(build_dir, "perfbench")


def run_build_step(cmd, build_dir):
    try:
        # Build chatter goes to stderr: stdout carries only the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    if r.returncode != 0:
        # A failed configure leaves a cache that would skip it next time.
        if "-S" in cmd:
            shutil.rmtree(build_dir, ignore_errors=True)
        fail(f"build step failed: {' '.join(cmd)}")


def source_id():
    """Git commit when the tree is a git checkout, plus a digest of src/."""
    h = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    ident = f"src:{h.hexdigest()[:16]}"
    try:
        sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            ident = f"git:{sha.stdout.strip()[:12]},{ident}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return ident


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["table2", "modes", "rt"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    # Test hook for the correctness gate, passed through to the program.
    p.add_argument("--corrupt-expected")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 0 < args.seconds <= 3600:
        fail("--seconds must be in (0, 3600]")

    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("SpecSync sources (src/) not found next to perfbench/")
    wdir = work_dir()
    out_dir = os.path.join(wdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    program = build(os.path.join(wdir, "build"))

    env = {k: v for k, v in os.environ.items() if not k.startswith("SPECSYNC_")}
    ignored = sorted(set(os.environ) - set(env))
    if ignored:
        print(f"perfbench: ignoring {', '.join(ignored)}", file=sys.stderr)

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir, "--source-id", source_id()]
    if args.corrupt_expected is not None:
        cmd += ["--corrupt-expected", args.corrupt_expected]
    timeout = args.seconds + RUN_MARGIN_S
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark program timed out after {timeout:g} s", 3)
    if rc != 0:
        fail(f"benchmark program exited with status {rc}", 3)


if __name__ == "__main__":
    main()
