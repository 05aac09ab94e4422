#!/usr/bin/env python3
"""Build the benchmark, confine it to one CPU and run it.

One run (the last line of standard output is the result object):

    python3 perfbench/run.py --workload mem-deep --seed 1 --seconds 45 --trace 0

Steadiness record: every workload BENCHMARK.json lists (or the one named)
over N seeds, twice, with each end-to-end metric's median and quartile
spread against its bound:

    python3 perfbench/run.py --steadiness 10 [--workload W] [--seconds S]

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default .bench_build); the paged workload writes its
list files under .bench_build as well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["mem-deep", "paged-evict", "cluster-session", "standing-stream"]
# One run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release", "perfbench")


def confine():
    """The lowest CPU this process may use; the run is pinned to it."""
    cpu = min(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


def run(binary, workload, seed, seconds, trace):
    """One confined run; returns (exit code, standard output)."""
    work = os.path.join(ROOT, ".bench_build", "perfbench-work")
    os.makedirs(work, exist_ok=True)
    argv = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", work]
    try:
        done = subprocess.run(argv, cwd=ROOT, preexec_fn=confine(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} ran longer than {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def steadiness(binary, runs, workload, seconds):
    """Prints the steadiness table of one workload, or of every workload
    BENCHMARK.json lists; true when the two sets agree within bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [workload] if workload else [w["name"] for w in spec["workloads"]]
    seconds = seconds or spec["run_seconds"]
    print(f"{runs} seeds per set (set 1: seeds 1..{runs}, set 2: seeds {runs + 1}..{2 * runs}), "
          f"{seconds} s per run. Spread is (q3 - q1) / median over the set. 'Within bound': "
          "both spreads (except setup_s) and set 2's worsening are within the bound. "
          "'Steady': both spreads are below a third of the bound.\n")
    print("| workload | metric | bound | set 1 median (q1..q3) | spread | set 2 median | spread "
          "| set 2 worse by | within bound | steady |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    all_ok = True
    for workload in workloads:
        sets = []
        for first_seed in (1, 1 + runs):
            values = {}
            for seed in range(first_seed, first_seed + runs):
                code, out = run(binary, workload, seed, seconds, 0)
                if code != 0:
                    fail(f"{workload} seed {seed} failed")
                for name, m in json.loads(out.splitlines()[-1])["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med1, q1, q3, spread1 = quartile_spread(sets[0][name])
            med2, _, _, spread2 = quartile_spread(sets[1][name])
            worse = (med2 - med1) / med1 * (1 if m["better"] == "lower" else -1)
            spread = max(spread1, spread2)
            ok = worse <= bound and (name == "setup_s" or spread <= bound)
            all_ok &= ok
            print(f"| {workload} | {name} | {bound} | {med1:.6g} ({q1:.6g}..{q3:.6g}) "
                  f"| {spread1:.3f} | {med2:.6g} | {spread2:.3f} | {worse:+.3f} "
                  f"| {'yes' if ok else 'NO'} | {'yes' if spread < bound / 3 else 'no'} |",
                  flush=True)
    return all_ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="record the spread of every end-to-end metric over RUNS seeds")
    args = parser.parse_args()
    if args.steadiness is None and (args.workload is None or args.seed is None
                                    or args.seconds is None):
        parser.error("a run needs --workload, --seed and --seconds")

    binary = build()
    if args.steadiness is not None:
        sys.exit(0 if steadiness(binary, args.steadiness, args.workload, args.seconds) else 1)
    code, out = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
