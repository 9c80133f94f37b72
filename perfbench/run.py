#!/usr/bin/env python3
"""Runs one vodx benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload <sweep_paper|pop_flash|diag_faults>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds perfbench/ together with
the vodx libraries under src/ into .bench_build/perfbench; later runs only
rebuild what changed. The result object has the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (see perfbench/README.md).

Besides the checks the benchmark binary makes, every run compares the
per-session rows of the workload at the reference seed with
perfbench/reference/<workload>.jsonl: labels and counts exactly, reals
within 1e-6 relative. A mismatch marks the result incorrect and the exit
code is 1. `--record-reference` rewrites the reference from this run.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "vodx_perfbench")
REFERENCE = os.path.join(HERE, "reference")
WORKLOADS = ("sweep_paper", "pop_flash", "diag_faults")
# setup_s is the median over this many set-ups, each in a fresh process.
SETUP_SAMPLES = 9
REL_TOL = 1e-6
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("vodx sources (src/) not found next to perfbench/")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=2, cwd=ROOT).returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def reals_close(want, got):
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return abs(want - got) <= REL_TOL * max(abs(want), abs(got), 1e-9)


def compare_rows(want_rows, got_rows):
    """Returns one message per row of `got_rows` that does not match."""
    want = {row["key"]: row for row in want_rows}
    got = {row["key"]: row for row in got_rows}
    problems = []
    for key in sorted(want.keys() - got.keys()):
        problems.append(f"{key}: missing")
    for key in sorted(got.keys() - want.keys()):
        problems.append(f"{key}: not in the reference")
    for key in sorted(want.keys() & got.keys()):
        w, g = want[key], got[key]
        bad = []
        for kind in ("labels", "counts"):
            if w[kind] != g[kind]:
                bad.append(f"{kind} {w[kind]} != {g[kind]}")
        if w["reals"].keys() != g["reals"].keys():
            bad.append("real fields differ")
        else:
            bad += [f"{name} {w['reals'][name]!r} != {g['reals'][name]!r}"
                    for name in w["reals"]
                    if not reals_close(w["reals"][name], g["reals"][name])]
        if bad:
            problems.append(f"{key}: " + "; ".join(bad))
    return problems


def read_jsonl(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record-reference", action="store_true",
                        help="write this run's reference-seed rows to "
                             "perfbench/reference/")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            code, lines = run_binary(common + ["--setup-only"])
            if code != 0 or not lines:
                log("set-up failed")
                return 1
            setups.append(json.loads(lines[-1])["setup_s"])

    try:
        code, lines = run_binary(common + ["--seconds", str(args.seconds),
                                           "--trace", str(args.trace),
                                           "--out", OUT])
        result = json.loads(lines[-1]) if code in (0, 1) and lines else None
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log(f"benchmark binary failed: {e}")
        return 1
    if result is None:
        log(f"benchmark binary failed (exit {code})")
        return 1
    for line in lines[:-1]:
        print(line)

    check = os.path.join(OUT, f"{args.workload}-check.jsonl")
    reference = os.path.join(REFERENCE, f"{args.workload}.jsonl")
    if args.record_reference:
        os.makedirs(REFERENCE, exist_ok=True)
        shutil.copyfile(check, reference)
        log(f"recorded {reference}")
    problems = compare_rows(read_jsonl(reference), read_jsonl(check))
    if problems:
        log(f"OUTPUT CHECK FAILED: {len(problems)} row(s) differ from "
            f"{os.path.relpath(reference, ROOT)}")
        for problem in problems[:10]:
            log("  " + problem)
        result["correct"] = False
        result["failed"] += len(problems)

    metrics = result["metrics"]
    if args.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        metrics["ok_frac"]["value"] = (
            1 - result["failed"] / max(1, result["attempted"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
