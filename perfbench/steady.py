#!/usr/bin/env python3
"""Steadiness report: runs one workload in two interleaved sets and checks
that the sets agree within the bounds in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload serve-light --runs 10 [--first-seed 1]

Run i (0-based) goes to set A when i is even and to set B when it is odd,
and every run gets its own seed, `first-seed + i`, so set B's seeds are
unseen by set A. For every end-to-end metric the report prints each set's
median and quartiles (`statistics.quantiles(values, n=4)`), the same over all runs, the spread
(quartile distance over median) against the metric's bound, and the change
of set B's median against set A's in the metric's worse direction.

It also flags runs where the open-loop generator, not the server, set the
tail: the generator's p99 lateness was at least half the paced tail latency
(the highest percentile the run printed).
Per-run output is kept in `.perfbench_out/steady-<workload>.jsonl`.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run with seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    late = re.search(r", p[0-9.]+ ([0-9.]+) us over .*generator late p99 ([0-9.]+) us", proc.stdout)
    result["generator_bound"] = bool(late) and float(late.group(2)) >= 0.5 * float(late.group(1))
    result["seed"] = seed
    return result


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(".perfbench_out", exist_ok=True)
    log_path = os.path.join(".perfbench_out", f"steady-{args.workload}.jsonl")
    sets = {"A": [], "B": []}
    with open(log_path, "w") as log:
        for i in range(2 * args.runs):
            name = "AB"[i % 2]
            r = run_once(bench["command"], args.workload, args.first_seed + i, bench["run_seconds"])
            r["set"] = name
            log.write(json.dumps(r) + "\n")
            log.flush()
            sets[name].append(r)
            flag = "  GENERATOR-BOUND" if r["generator_bound"] else ""
            print(f"run {i + 1:2d} set {name} seed {r['seed']}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}{flag}", flush=True)

    ok = all(r["correct"] for s in sets.values() for r in s)
    print(f"\nworkload {args.workload}: {args.runs} runs per set, seeds "
          f"{args.first_seed}..{args.first_seed + 2 * args.runs - 1}")
    print(f"{'metric':18} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
          f"{'bound':>6} {'B vs A':>7}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        rows = {}
        for s in "AB":
            rows[s] = describe([r["metrics"][name]["value"] for r in sets[s]])
        rows["all"] = describe([r["metrics"][name]["value"] for s in "AB" for r in sets[s]])
        a, b = rows["A"][0], rows["B"][0]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        spread_ok = name == "setup_s" or all(rows[s][3] <= bound for s in rows)
        verdict = "ok" if spread_ok and worse <= bound else "OUT OF BOUND"
        ok &= verdict == "ok"
        for s in rows:
            med, q1, q3, spread = rows[s]
            tail = f"{worse:+7.3f}  {verdict}" if s == "all" else ""
            print(f"{name:18} {s:3} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} {bound:6.2f} {tail}")
    flagged = [r["seed"] for s in sets.values() for r in s if r["generator_bound"]]
    print(f"generator-bound runs (seeds): {flagged or 'none'}")
    print("STEADY" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
