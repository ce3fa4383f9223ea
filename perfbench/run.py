#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and is incremental, so only the first run compiles. The last
line of stdout is the result object; build output goes to stderr.
--self-check plants a wrong digest pin in every workload and passes only if
each run then reports an incorrect result and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("brake_long", "short_campaigns", "fault_campaign")
# Not benchmarked: fails on some seeds until a known defect is fixed (README.md).
KNOWN_DEFECT = ("fault_campaign_stuck",)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs(), "--target", "dearbench"],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "dearbench")


def source_rev():
    """Git commit when run in a clone, else a digest of the sources built."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def run(binary, argv):
    """Runs the binary, forwards its stdout, returns (exit code, result)."""
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, parse_result(proc.stdout)


def self_check(binary, rev):
    ok = True
    for workload in WORKLOADS:
        code, result = run(binary, ["--workload", workload, "--seed", "1", "--seconds", "1",
                                    "--trace", "0", "--source-rev", rev, "--plant-wrong-pin"])
        caught = code != 0 and result is not None and result["correct"] is False
        print(f"self-check {workload}: planted wrong pin "
              f"{'caught' if caught else 'NOT caught'} (exit {code})", file=sys.stderr)
        ok = ok and caught
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + KNOWN_DEFECT + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: the library sources (src/) are missing; nothing to build",
              file=sys.stderr)
        return 2

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    rev = source_rev()
    if args.self_check:
        return self_check(binary, rev)
    code, result = run(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", args.trace,
                                "--source-rev", rev])
    if result is None:
        print("run.py: the benchmark printed no result line", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
