#!/usr/bin/env python3
"""Run each workload k times and print every end-to-end metric's median,
interquartile range (IQR), spread (IQR / median) and min/max — the
figures the bounds in BENCHMARK.json are set from.

    python3 perfbench/steady.py                   # 10 seeds per workload
    python3 perfbench/steady.py --runs 5 --workloads sim_cli,serve_miss
    python3 perfbench/steady.py --same-seed       # repeat one seed: the
        # report digests of serve_miss and sim_cli must not change

Run from the repository root. Quartiles are Python's
statistics.quantiles(values, n=4); a spread above a third of the metric's
bound is flagged "noisy", above the bound "UNSTEADY".
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((m.group(1) for l in lines
                   if (m := re.search(r"report_digest: (\w+)", l))), None)
    return result, digest


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--same-seed", action="store_true",
                    help="use --first-seed for every run")
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in opts.workloads.split(","):
        values, digests, failed = {}, set(), 0
        for i in range(opts.runs):
            seed = opts.first_seed + (0 if opts.same_seed else i)
            result, digest = run_once(bench["command"], workload, seed,
                                      opts.seconds, 0)
            failed += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if digest:
                digests.add(digest)
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        print(f"{workload}: {opts.runs} runs, {failed} failures"
              + (f", report digests {sorted(digests)}" if digests else ""))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = ("UNSTEADY" if spread > bound else
                    "noisy" if spread > bound / 3 else "ok")
            worst = max(worst, spread / bound)
            print(f"  {name:<16} median {med:<12.5g} IQR {q3 - q1:<10.4g} "
                  f"spread {spread:6.2%} (bound {bound:.0%}, {flag})  "
                  f"min {min(vals):.5g} max {max(vals):.5g}")
        if opts.same_seed and len(digests) > 1:
            print(f"  DIGEST CHANGED across runs of seed {opts.first_seed}")
            worst = float("inf")
    print(f"worst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
