#!/usr/bin/env python3
"""Defended-window benchmark for DL2Fence.

Builds the benchmark program from source, prepares the trained model
snapshots and the held-out score set once per build (cached in
.bench_build/), then times one workload and prints, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 winbench/run.py --workload defend-8x8-burst --seed 1 --seconds 30 --trace 0
    python3 winbench/run.py            # every workload, untraced then traced

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer split.
See winbench/NOTES.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "winbench"
CACHE_DIR = BUILD / "prepared"
PROGRAM = CMAKE_DIR / "winbench"
WORKLOADS = ["defend-8x8-burst", "defend-16x16-uniform", "score-16x16-stp"]


def log(msg):
    print(f"[winbench] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step; its output goes to stderr so stdout stays clean."""
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        raise SystemExit(f"[winbench] step failed ({result.returncode}): {' '.join(map(str, cmd))}")


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    run_quiet(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(CMAKE_DIR), "--target", "winbench", "-j", jobs])


def cache_key():
    """Hash of the built dl2f library plus the preparation recipe."""
    libs = sorted(CMAKE_DIR.glob("**/libdl2f.a"))
    if len(libs) != 1:
        raise SystemExit(f"[winbench] expected one built libdl2f.a, found {len(libs)}")
    recipe = subprocess.run([str(PROGRAM), "recipe"], stdout=subprocess.PIPE, check=True).stdout
    h = hashlib.sha256()
    h.update(hashlib.sha256(libs[0].read_bytes()).digest())
    h.update(hashlib.sha256(recipe).digest())
    return h.hexdigest()


def prepare(key):
    manifest = CACHE_DIR / "manifest.txt"
    if manifest.exists() and manifest.read_text().startswith(f"key = {key}\n"):
        return
    threads = str(max(1, os.cpu_count() or 1))
    log(f"preparing inputs (training on {threads} threads; this happens once per build)")
    run_quiet([str(PROGRAM), "prepare", "--cache", str(CACHE_DIR), "--key", key,
               "--threads", threads])


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return result.stdout.strip() or "unknown"


def run_one(key, sha, workload, seed, seconds, trace, corrupt_window):
    cmd = [str(PROGRAM), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--cache", str(CACHE_DIR),
           "--key", key, "--git-sha", sha]
    if corrupt_window is not None:
        cmd += ["--corrupt-window", str(corrupt_window)]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        raise SystemExit(f"[winbench] benchmark program failed ({result.returncode}) on {workload}")
    return lines


def print_table(workload, trace, result):
    log(f"{workload} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        log(f"    {name:34s} {m['value']:.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--corrupt-window", type=int, default=None,
                        help="self-check test: alter this window's record in the first replay")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    key = cache_key()
    prepare(key)
    sha = git_sha()

    if args.workload != "all":
        trace = 0 if args.trace is None else args.trace
        lines = run_one(key, sha, args.workload, args.seed, args.seconds, trace,
                        args.corrupt_window)
        sys.stdout.write("\n".join(lines) + "\n")
        return 0

    # Every workload, untraced then traced; each result line is printed as
    # it arrives, with a readable table on stderr.
    traces = [0, 1] if args.trace is None else [args.trace]
    all_correct = True
    for workload in WORKLOADS:
        for trace in traces:
            lines = run_one(key, sha, workload, args.seed, args.seconds, trace,
                            args.corrupt_window)
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            print_table(workload, trace, result)
            sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
