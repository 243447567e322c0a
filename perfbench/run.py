#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
ppml libraries from src/ together with the benchmark driver in
.bench_build/perfbench (CMake, RelWithDebInfo, 4 jobs); later calls only
rebuild what changed. The driver then replaces this process, so the last
line of stdout is its JSON result. Build output goes to
.bench_build/perfbench/build.log.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(SCRATCH, "perfbench")
JOBS = "4"


def die(reason):
    print(f"perfbench: {reason}", file=sys.stderr)
    sys.exit(2)


def cached_source_dir():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ next to perfbench/ (run from the root of a full checkout)")
    if shutil.which("cmake") is None:
        die("cmake not found on PATH")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        cached = cached_source_dir()
        if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
            shutil.rmtree(os.path.join(BUILD, "CMakeFiles"), ignore_errors=True)
            os.remove(os.path.join(BUILD, "CMakeCache.txt"))
            cached = None
        with open(log_path, "a") as log:
            status = 0
            if cached is None:
                status = run_logged(["cmake", "-S", HERE, "-B", BUILD,
                                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
            if status == 0:
                status = run_logged(["cmake", "--build", BUILD, "-j", JOBS,
                                     "--target", *targets], log)
        if status != 0:
            with open(log_path) as log:
                sys.stderr.write("".join(log.readlines()[-40:]))
            die(f"build failed (full log: {log_path})")


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        build(["checks_selftest"])
        binary = os.path.join(BUILD, "checks_selftest")
        os.execv(binary, [binary])
    build(["ppml_perfbench"])
    binary = os.path.join(BUILD, "ppml_perfbench")
    os.execv(binary, [binary, *args, "--scratch", SCRATCH])


if __name__ == "__main__":
    main()
