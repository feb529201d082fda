#!/usr/bin/env python3
"""Serving benchmark: builds the stack from the repository's sources and
serves one zoo workload end to end (see servebench/README.md).

    python3 servebench/run.py --workload bert_mixed --seed 3 --seconds 10 --trace 0
    python3 servebench/run.py --quick     # every workload briefly, all checks on

Run from the repository root. Build output and run artifacts go under
$CARGO_TARGET_DIR (default .bench_build)/servebench. The last stdout line
is the result object; everything before it is the harness's host, ledger
and metric record.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mlp_wire", "bert_mixed", "resnet_conv")
# Serving pool size. The default (nproc = 4 threads on the README's host)
# is not steady there; see README "Pool size".
POOL_THREADS = "1"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build(bdir):
    """Configures once, then rebuilds incrementally. Build chatter goes to
    stderr so stdout stays the harness record."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("no repository sources next to servebench/ (need CMakeLists.txt and src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "servebench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "servebench")
    if not os.path.isfile(exe):
        fail("build produced no servebench binary")
    return exe


def run_harness(exe, workload, seed, seconds, trace, quick, out_dir):
    env = dict(os.environ)
    env["VSQ_THREADS"] = POOL_THREADS
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", out_dir]
    if quick:
        cmd.append("--quick")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n") if r.stdout else []
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout or "")
        fail(f"{workload}: harness exited with code {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(r.stdout)
        fail(f"{workload}: last line is not a result object")
    return lines[:-1], result


def bench_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def quick():
    """Every workload briefly, untraced and traced, with every check on.
    Exits non-zero on any failed check or missing metric."""
    e2e, per_layer = bench_metrics()
    bdir = build_dir()
    exe = build(bdir)
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    problems = []
    for w in WORKLOADS:
        t0 = time.time()
        # Quick runs are too short for 1000 open-loop samples, so p99 is
        # not expected there.
        for trace, want in ((False, [m for m in e2e if m != "open_p99_ms"]), (True, per_layer)):
            _, res = run_harness(exe, w, 1, 1.5, trace, True, out_dir)
            tag = f"{w} trace={int(trace)}"
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
            missing = [m for m in want if m not in res["metrics"]]
            if missing:
                problems.append(f"{tag}: missing metrics {missing}")
            extra = [m for m in res["metrics"] if m not in e2e + per_layer]
            if extra:
                problems.append(f"{tag}: metrics not in BENCHMARK.json {extra}")
        print(f"quick {w}: {time.time() - t0:.1f} s")
    for p in problems:
        print("quick FAIL " + p)
    print("quick " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if args.quick:
        return quick()
    if not args.workload:
        ap.error("--workload is required (or --quick)")
    bdir = build_dir()
    exe = build(bdir)
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    record, result = run_harness(exe, args.workload, args.seed, args.seconds, args.trace == 1,
                                 False, out_dir)
    for line in record:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
