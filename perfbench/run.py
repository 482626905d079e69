#!/usr/bin/env python3
"""Publish->notify benchmark for GSAlert.

    python3 perfbench/run.py --workload storm|flood|churn --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Builds perfbench/ (a standalone CMake project over ../src) into
.bench_build/perfbench on first use, then runs the workload driver in a
fresh process per repetition -- so each repetition's peak RSS is its own --
until S seconds have passed (at least three untraced repetitions).
Repetitions of one invocation use the same seed, hence identical inputs;
wall-clock metrics are their medians, and the sim-time metrics must repeat
exactly across them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions (obs::Profiler on, benchmark
spans recorded) and reports the per-layer metrics, including
obs.trace_overhead_frac = traced / untraced measured-phase wall - 1. Traced
repetitions write their spans and profiler frames under .bench_build/traces.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; failed / attempted is the workload's failed_frac.
Exit status: 0 when every correctness check passed, 1 when one failed (the
JSON still printed), 2 when nothing could be measured (no JSON).

--self-check runs the negative case (a client sink that drops a single
notification must make the driver report failed > 0 and exit non-zero) on
storm and churn, and exits 0 only if both are caught.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
TRACES = ROOT / ".bench_build" / "traces"

WORKLOADS = ("storm", "flood", "churn")
MIN_UNTRACED = 3  # setup_s and the wall metrics are medians of >= 3
MIN_TRACED = 2
BUDGET_S = 150  # never start a repetition that could end past this
# Sim-time results repeat exactly for a fixed seed; a difference between
# repetitions is a determinism failure.
DETERMINISTIC = ("notify_p50_ms", "notify_p999_ms")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no GSAlert sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})")


def run_driver(workload, seed, traced, rep, extra, timeout):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if traced:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--trace-out",
                str(TRACES / f"{workload}-seed{seed}-rep{rep}.json")]
    cmd += extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} repetition {rep} exceeded {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"driver exited {proc.returncode} on {workload} without a result")
    return proc.returncode, json.loads(lines[-1])


def check_names(result, spec, key, group):
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: v["unit"] for name, v in result[group].items()}
    if key == "per_layer":
        got["obs.trace_overhead_frac"] = "ratio"
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"BENCHMARK.json {key} disagrees with the driver: "
             f"missing {missing}, extra {extra}, unit mismatch {units}")


def median_metrics(reps, group):
    names = list(reps[0][group])
    return {n: {"value": statistics.median(r[group][n]["value"] for r in reps),
                "unit": reps[0][group][n]["unit"]} for n in names}


def measure(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    start = time.monotonic()
    untraced, traced, notes = [], [], []
    correct = True
    attempted = failed = 0
    last_rep_s = 0.0
    rep = 0
    while True:
        want_trace = args.trace == 1 and len(untraced) > len(traced)
        extra = [] if rep == 0 else ["--no-brute"]  # brute force once per run
        rep_t0 = time.monotonic()
        code, result = run_driver(args.workload, args.seed, want_trace, rep,
                                  extra, timeout=170 - (rep_t0 - start))
        last_rep_s = time.monotonic() - rep_t0
        (traced if want_trace else untraced).append(result)
        attempted += result["attempted"]
        failed += result["failed"]
        notes += result["notes"]
        if code != 0 or result["failed"] != 0:
            correct = False
            break
        rep += 1
        # Stop once the minimum is met and the next repetition would end
        # past --seconds (or past the hard budget).
        elapsed = time.monotonic() - start
        enough = len(untraced) >= MIN_UNTRACED and (
            args.trace == 0 or len(traced) >= MIN_TRACED)
        if enough and elapsed + last_rep_s > min(args.seconds, BUDGET_S):
            break

    reps = untraced + traced
    check_names(untraced[0], spec, "end_to_end", "e2e")
    for name in DETERMINISTIC:
        values = {r["e2e"][name]["value"] for r in reps}
        if len(values) > 1:
            correct = False
            notes.append(f"{name} differs across repetitions: {sorted(values)}")
    if len({r["info"]["notifications"] for r in reps}) > 1:
        correct = False
        notes.append("notification count differs across repetitions")

    e2e = median_metrics(untraced, "e2e")
    info = untraced[0]["info"]
    print(f"# {args.workload} seed={args.seed}: {len(untraced)} untraced + "
          f"{len(traced)} traced repetitions in "
          f"{time.monotonic() - start:.1f}s; failed_frac = {failed}/{attempted}")
    for name, m in e2e.items():
        extra = ""
        if name.startswith("notify_p"):
            extra = f"  (n={int(info['notify_samples'])})"
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}{extra}")
    # Unbounded: proportional to notify_per_s on churn (same phase, counts
    # fixed per seed), and the load rate inside setup_s elsewhere.
    sub_ops = statistics.median(r["info"]["sub_ops_per_s"] for r in untraced)
    print(f"# sub_ops_per_s {sub_ops:.6g} 1/s (median; not a bounded metric)")
    if "subscribe_p999_ms" in info:  # churn's request->ack latency
        print(f"# subscribe_p999_ms {info['subscribe_p999_ms']:.6g} sim_ms "
              f"(n={int(info['subscribe_samples'])}; not a bounded metric)")
    metrics = e2e
    if args.trace == 1 and not traced:  # failed before a traced repetition
        metrics = {}
    elif args.trace == 1:
        check_names(traced[0], spec, "per_layer", "layers")
        metrics = median_metrics(traced, "layers")
        wall = statistics.median(r["info"]["measured_s"] for r in untraced)
        wall_traced = statistics.median(r["info"]["measured_s"] for r in traced)
        metrics["obs.trace_overhead_frac"] = {
            "value": wall_traced / wall - 1.0, "unit": "ratio"}
        for name, m in metrics.items():
            print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    for note in notes:
        print(f"# FAIL: {note}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def self_check():
    build()
    ok = True
    for workload in ("storm", "churn"):
        code, result = run_driver(workload, 1, False, 0,
                                  ["--drop-one", "--no-brute"], timeout=170)
        caught = code != 0 and result["failed"] > 0 and result["missing"] == 1
        ok &= caught
        print(f"{workload}: drop one notification -> exit {code}, "
              f"failed {result['failed']}/{result['attempted']} "
              f"({'caught' if caught else 'NOT CAUGHT'})")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
