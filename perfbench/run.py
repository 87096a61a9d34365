#!/usr/bin/env python3
"""Builds and runs the otpdb end-to-end benchmark (see perfbench/README.md).

One measurement, from the root of a checkout:

    python3 perfbench/run.py --workload tpcc-lan --seed 1 --seconds 20 --trace 0

builds perfbench/ (and through it the library) into .bench_build/, runs the
workload for --seconds wall seconds in its own process and prints, as the
last line of stdout, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. The exit code is non-zero when the build
fails, the run fails or any correctness check fails.

Steadiness self-check (two interleaved sets of runs of the same code):

    python3 perfbench/run.py --steadiness --runs 10 [--workload NAME ...]

prints, per workload and end-to-end metric, each set's median and quartiles
over --runs seeds, the spread (quartile distance over median) and the gap
between the two medians, against the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "run")
BINARY = os.path.join(BUILD, "otpdb_perfbench")
RUN_TIMEOUT_S = 170


def environment():
    """Child environment whose temporary files (compiler, library) stay in the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, env=environment())
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr, env=environment())


def run_once(workload, seed, seconds, trace, echo):
    """Runs one measurement; returns (exit code, parsed result or None)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", WORK]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                          env=environment())
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return proc.returncode or 1, None
    return proc.returncode, result


def check_shape(result, expected):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are not exactly correct, attempted, failed, metrics"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(want))
    if result["attempted"] < 1:
        return "nothing attempted"
    return None


def measure(args):
    spec = load_spec()
    build()
    code, result = run_once(args.workload[0], args.seed, args.seconds, args.trace, echo=True)
    if result is None:
        print("benchmark run failed (exit code %d)" % code, file=sys.stderr)
        return code or 1
    problem = check_shape(result, spec["per_layer" if args.trace else "end_to_end"])
    if problem:
        print(problem, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steadiness(args):
    spec = load_spec()
    build()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in workloads:
        sets = ([], [])
        for i in range(args.runs):
            seed = args.seed + i
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                code, result = run_once(workload, seed, seconds, 0, echo=False)
                if result is None or not result["correct"] or code != 0:
                    print("%s seed %d: run failed" % (workload, seed))
                    return 1
                sets[s].append(result["metrics"])
        print("\n%s: %d runs per set, seeds %d..%d, %g s each" %
              (workload, args.runs, args.seed, args.seed + args.runs - 1, seconds))
        print("  %-22s %6s | %-34s | %-34s | %7s  %s" %
              ("metric", "bound", "set A median [q1, q3] spread", "set B median [q1, q3] spread",
               "gap", "verdict"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for runs in sets:
                stats.append(spread([r[name]["value"] for r in runs]))
            (a1, a2, a3, sa), (b1, b2, b3, sb) = stats
            worse = (b2 - a2) / a2 if metric["better"] == "lower" else (a2 - b2) / a2
            spread_ok = name == "setup_s" or max(sa, sb) <= bound
            steady = name == "setup_s" or max(sa, sb) <= bound / 3
            verdict = "ok" if spread_ok and worse <= bound else "FAIL"
            if verdict == "ok" and not steady:
                verdict = "ok (spread above a third of the bound)"
            ok &= verdict != "FAIL"
            print("  %-22s %6.3f | %10.5g [%.5g, %.5g] %5.1f%% | %10.5g [%.5g, %.5g] %5.1f%% | %+6.1f%%  %s"
                  % (name, bound, a2, a1, a3, 100 * sa, b2, b1, b3, 100 * sb, 100 * worse, verdict))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="workload name (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two interleaved sets per workload and compare them")
    parser.add_argument("--runs", type=int, default=10, help="runs per set (--steadiness)")
    args = parser.parse_args()
    try:
        if args.steadiness:
            return steadiness(args)
        if not args.workload or len(args.workload) != 1 or not args.seconds:
            parser.error("a measurement needs one --workload and --seconds")
        return measure(args)
    except (OSError, subprocess.SubprocessError) as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
