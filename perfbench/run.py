#!/usr/bin/env python3
"""Builds and runs the fraudsim platform benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload doi_live --seed 1 --seconds 20 --trace 0

Workloads: doi_live, sms_pump_live, soc_detect, scale_sharded (see
perfbench/README.md). The first run configures and compiles the library and
the benchmark in Release mode under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only re-check the build. Build output
goes to stderr. Standard output carries the benchmark's report, and its last
line is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. A traced run also writes a Chrome trace-event file
(open it in Perfetto) under the build directory's traces/ folder.

Exits non-zero, without a result line, when the library sources are missing,
the build fails, or the benchmark crashes or overruns its time limit.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("doi_live", "sms_pump_live", "soc_detect", "scale_sharded")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Every run must end within 180 s; keep a margin for the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cores():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def ensure_built():
    """Configures (once) and builds the benchmark; returns the executable."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", str(min(4, cores()))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            die("build timed out")
        except FileNotFoundError:
            die("cmake not found")
        if proc.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")
    exe = bdir / "platform_bench"
    if not exe.is_file():
        die(f"build produced no {exe}")
    return exe


def source_id():
    """The commit when the checkout is a git work tree, plus a digest of the
    sources the benchmark builds (a checkout need not be a git
    repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = "none"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                commit = head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"commit-{commit}+tree-{digest.hexdigest()[:12]}"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Problems with the result line against BENCHMARK.json (empty = fine)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')}, declared {unit}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} has no finite value")
    for name in metrics:
        if name not in declared:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
    return problems


def run(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs one workload; returns (report lines, result dict, trace file or None)."""
    started = time.monotonic()
    exe = ensure_built()
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--source", source_id()]
    trace_file = None
    if trace:
        trace_file = build_dir() / "traces" / f"{workload}-seed{seed}.trace.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    if smoke:
        cmd.append("--smoke")
    budget = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(30.0, budget))
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within its time limit")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{workload} printed no result line")
    problems = check_result(result, trace)
    if problems:
        lines = lines[:-1] + [f"problem {p}" for p in problems] + [lines[-1]]
        result["correct"] = False
        result["failed"] = result.get("attempted", 1)
    if echo:
        for line in lines[:-1]:
            print(line)
    return lines[:-1], result, trace_file


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small input, one repetition (the self-test's size)")
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    _, result, _ = run(args.workload, args.seed, args.seconds, args.trace == 1, args.smoke)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
