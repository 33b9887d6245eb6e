#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
solver libraries and the benchmark program in Release mode under
.bench_build/perfbench (about 40 s on 4 cores); later runs only let
the build tool confirm nothing changed.  Build output goes to stderr, so
the program's result stays the last line of stdout.  A traced run also
writes its spans to .bench_build/perfbench/traces/.
"""

import argparse
import fcntl
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM_TIMEOUT_S = 170


def build():
    """Configure once, then build the program; exits non-zero on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        commands = []
        if not (BUILD / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if _which("ninja") else []
            commands.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                             "-DCMAKE_BUILD_TYPE=Release", *generator])
        commands.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                         "--parallel", str(os.cpu_count() or 1)])
        for command in commands:
            done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"perfbench: build step failed: {' '.join(command)}")


def _which(program):
    return any((pathlib.Path(d) / program).is_file()
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def source_rev():
    """Short git commit of the checkout; outside a git checkout, "src-" and a
    digest of the solver sources, so results still name what was measured."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
        if done.stdout.strip():
            return done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--golden-dir", str(HERE / "golden"),
               "--git-rev", source_rev()]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: program exceeded {PROGRAM_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
