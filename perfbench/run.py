#!/usr/bin/env python3
"""Build the perfbench harness from source and run one measurement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The harness is configured as a Release
build under .bench_build/perfbench (build output goes to stderr); the
last line of stdout is the harness's JSON result. Exits non-zero, printing
no result, when the sources are missing or the build or the run fails.
"""
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("the uhd sources are not next to perfbench/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selftest"]:
        done = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S, check=False)
        sys.exit(done.returncode)
    # The harness forks a server process, which exits once the harness's end
    # of its command pipe closes: killing the harness stops both, and the
    # wait below (for the stdout both hold) reaps them before this exits.
    harness = subprocess.Popen([os.path.join(BUILD_DIR, "perfbench"), *args],
                               stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = harness.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        harness.kill()
        harness.communicate()
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    lines = stdout.splitlines()
    if harness.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("".join(line + "\n" for line in lines if not line.startswith("{")))
        fail(f"the harness exited {harness.returncode} without a result")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
