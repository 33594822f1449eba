#!/usr/bin/env python3
"""Build and run the collector benchmark.

    python3 perfbench/run.py --workload ingest_flood --seed 1 --seconds 10 --trace 0

Run from the repository root. Configures and builds perfbench/ (the gill
libraries, gill-collectord and the perfbench program) with CMake into
$CARGO_TARGET_DIR (default .bench_build), then runs one workload. The
report goes to stdout; its last line is the JSON result. The exit code is
perfbench's: 0 only when every output check passed.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("ingest_flood", "serve_mixed", "refresh_window")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_fingerprint(root):
    """Commit when the checkout is a git repository, else a hash of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:12]


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            result = subprocess.run(step, cwd=root, stdout=log,
                                    stderr=subprocess.STDOUT)
            if result.returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "perfbench", "CMakeLists.txt")):
        fail("run from the repository root")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(root, build_dir)

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--bin-dir", os.path.join(build_dir, "gill", "tools"),
               "--data-dir", os.path.join(root, "perfbench"),
               "--commit", source_fingerprint(root)]
    # Own process group: a timeout takes gill-collectord children down too.
    child = subprocess.Popen(command, cwd=root, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # strays, if any
        except ProcessLookupError:
            pass
        if child.poll() is None:
            child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
