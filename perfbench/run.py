#!/usr/bin/env python3
"""Repository benchmark for the SuDoku STTRAM reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload serve_z --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

It builds the library from ../src and the benchmark binary from
perfbench/src with CMake (Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, runs one workload, checks the outputs, and prints one
JSON object as the last line of stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end_to_end set of BENCHMARK.json; with --trace 1 they are
the per_layer set. The names and units emitted must equal the declared ones,
or the run fails. The exit status is 0 only when every check passed.

Workloads (see BENCHMARK.json for why each exists):
  serve_z      MemoryService, SuDoku-Z, 8 banks x 16384 lines, 3 closed-loop
               clients, 30% writes, 80% of accesses to the hottest 10% of
               lines, one BER 1e-5 fault batch per 2000 client-0 ops.
  serve_hiecc  the same traffic on the Hi-ECC backend (1 KB regions, BCH t=6),
               2 banks x 2048 lines, 1 client.
  mc_z_iid     exp::run_montecarlo_parallel, SuDoku-Z, 4096 lines, group 64,
               i.i.d. BER 3e-4, 3 threads, 3072-trial campaigns of
               64-trial shards.
  mc_z_mixed   the same under the builtin "mixed" fault scenario,
               6144-trial campaigns.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_z", "serve_hiecc", "mc_z_iid", "mc_z_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-release")


def build():
    """Configure once, then (re)build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/CMakeLists.txt) not found next to perfbench/")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "sudoku_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"build step timed out: {' '.join(cmd)}")
            sys.exit(2)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return os.path.join(out, "sudoku_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def check_result(result, trace):
    """Problems with a result object; empty when it matches the contract."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    declared = declared_metrics(trace)
    emitted = {name: m.get("unit") for name, m in result["metrics"].items()}
    if set(emitted) != set(declared):
        problems.append(f"missing metrics {sorted(set(declared) - set(emitted))}, "
                        f"undeclared metrics {sorted(set(emitted) - set(declared))}")
    for name, unit in emitted.items():
        if name in declared and unit != declared[name]:
            problems.append(f"metric {name} has unit {unit}, declared {declared[name]}")
        value = result["metrics"][name].get("value")
        if not isinstance(value, (int, float)):
            problems.append(f"metric {name} has no numeric value")
    return problems


def run(binary, workload, seed, seconds, trace):
    """Run one workload; relay report lines; return (result, ok)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None, False
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        log(f"{workload} printed no result (exit {proc.returncode})")
        return None, False
    problems = check_result(result, trace)
    for p in problems:
        log(p)
    if problems:
        result["correct"] = False
    return result, proc.returncode == 0 and not problems and result["correct"]


def selftest(binary):
    """The binary's metric-code self-test, then every workload and trace mode
    once, checking the emitted names and units against BENCHMARK.json."""
    ok = subprocess.run([binary, "--selftest"], timeout=RUN_TIMEOUT_S).returncode == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, passed = run(binary, workload, 1, 1, trace)
            log(f"selftest {workload} --trace {trace}: {'ok' if passed else 'FAILED'}")
            ok &= passed
    print(json.dumps({"selftest": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None or args.seed < 0
                              or args.seconds < 1):
        ap.error("--workload, --seed >= 0 and --seconds >= 1 are required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    result, ok = run(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
