#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The first call configures and builds perfbench/ (the gcnrl library plus
the benchmark program, Release) under .bench_build/perfbench; later calls
only re-check the build. The program's output is passed through: its last
stdout line is the JSON result. Before printing it, this script checks
that the metric names and units match BENCHMARK.json for the mode run.

--selfcheck runs every workload at tiny size in both modes (a few
seconds in all), then once with --perturb, which must make the bitwise
check against api::run_tasks fail.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["rl_two_tia", "gp_two_tia", "sim_ldo"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources (src/CMakeLists.txt) under the current "
             "directory; run from the root of a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("build failed", 3)
    return BUILD / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, args, trace):
    """Runs the program; returns (exit code, stdout lines, parsed result)."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 5)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = expected_metrics(trace)
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(k for k in set(got) & set(want)
                           if got[k] != want[k])
            fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
                 f"extra {extra}, unit mismatch {units}", 4)
    return proc.returncode, lines, result


def selfcheck(binary):
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            code, _, res = run(binary, [
                "--workload", w, "--seed", "7", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny"], trace)
            good = code == 0 and res is not None and res["correct"]
            print(f"selfcheck {w} trace={trace}: "
                  f"{'ok' if good else 'FAILED'}")
            ok = ok and good
    code, _, res = run(binary, [
        "--workload", "gp_two_tia", "--seed", "7", "--seconds", "0",
        "--trace", "1", "--size", "tiny", "--perturb"], 1)
    caught = code != 0 and res is not None and not res["correct"]
    print(f"selfcheck perturbed driver is caught: "
          f"{'ok' if caught else 'FAILED'}")
    return 0 if ok and caught else 1


def main():
    # A SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # build or benchmark process it is waiting on before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    a = ap.parse_args()
    if not a.selfcheck and a.workload is None:
        ap.error("--workload is required")
    binary = build()
    if a.selfcheck:
        return selfcheck(binary)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans = BUILD / "spans" / f"{a.workload}-seed{a.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans)]
    code, lines, _ = run(binary, args, a.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
