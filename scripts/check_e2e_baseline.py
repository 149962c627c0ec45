#!/usr/bin/env python3
"""Checks fresh end-to-end benchmark runs against the committed BENCH_e2e.json.

    python3 scripts/check_e2e_baseline.py [--baseline BENCH_e2e.json]
        [--repo DIR] [--seconds S] [--out-dir DIR]

Runs DIR/benchmarks/e2e/run.py (DIR defaults to this repository; the first
run builds the benchmark) and compares two kinds of field:

  structural  the simulator's deterministic outputs, from the baseline's
              short sim-mf-adaptive run (`--seconds 0.1` runs the fixed
              minimum number of repeats, so the values repeat exactly).
              Each must equal the committed value exactly: one more
              simulator event per push, or any change to what the
              simulator trains, fails.
  wall-clock  every BENCHMARK.json end-to-end metric of each workload, from
              one `--trace 0` run of S seconds at seed 1. Each is gated in
              its bad direction only, against the committed median, by the
              metric's committed tolerance (a relative change, widened for a
              shared CI runner as scripts/bench_compare.py's are);
              improvements never fail.

Every run must also report `correct` and no failed operations. Prints one
line per check and exits 1 on any failure, 2 when a run produces no result.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(repo, workload, seed, seconds, trace, out_dir):
    """The JSON result of one run.py run, with its stdout kept in out_dir."""
    command = [sys.executable, os.path.join(repo, "benchmarks", "e2e", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if out_dir:
        name = f"{workload}.{seed}.trace{trace}.out"
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(done.stdout)
    if done.returncode != 0 or not lines:
        print(f"FAIL {workload} seed {seed} trace {trace}: no result "
              f"(exit {done.returncode})")
        sys.exit(2)
    return json.loads(lines[-1])


def run_ok(result, label):
    """True when the run reports correct and no failed operations."""
    if result["correct"] and result["failed"] == 0:
        return True
    print(f"FAIL {label}: correct={result['correct']} "
          f"failed={result['failed']}")
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=os.path.join(ROOT, "BENCH_e2e.json"))
    parser.add_argument("--repo", default=ROOT,
                        help="checkout whose benchmark runs (default: this one)")
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="length of each wall-clock run (default 3)")
    parser.add_argument("--out-dir", default="",
                        help="keep each run's output here")
    args = parser.parse_args()
    with open(args.baseline) as f:
        baseline = json.load(f)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    ok = True
    structural = baseline["structural"]
    by_trace = {}
    for check in structural["exact"]:
        trace = check["trace"]
        if trace not in by_trace:
            by_trace[trace] = run(args.repo, structural["workload"],
                                  structural["seed"], structural["seconds"],
                                  trace, args.out_dir)
            ok &= run_ok(by_trace[trace],
                         f"{structural['workload']} trace {trace}")
        got = by_trace[trace]["metrics"][check["metric"]]["value"]
        same = got == check["value"]
        ok &= same
        print(f"{'ok  ' if same else 'FAIL'} {structural['workload']} "
              f"{check['metric']}: {got!r}, committed {check['value']!r} "
              f"(exact)")

    for workload, metrics in sorted(baseline["wall_clock"]["workloads"].items()):
        result = run(args.repo, workload, 1, args.seconds, 0, args.out_dir)
        ok &= run_ok(result, workload)
        for name, committed in sorted(metrics.items()):
            got = result["metrics"][name]["value"]
            median, tolerance = committed["median"], committed["tolerance"]
            if committed["better"] == "higher":
                passed = got >= median * (1.0 - tolerance)
            else:
                passed = got <= median * (1.0 + tolerance)
            ok &= passed
            change = (got - median) / abs(median) if median else float("inf")
            print(f"{'ok  ' if passed else 'FAIL'} {workload} {name}: "
                  f"{got:.6g}, committed median {median:.6g} "
                  f"({change:+.1%}; {committed['better']} is better, "
                  f"tolerance {tolerance:.0%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
