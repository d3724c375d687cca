#!/usr/bin/env python3
"""Steadiness check: runs each workload in repeated sets and prints every
end-to-end metric's spread against its bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--seconds S]
                                [--workload NAME ...] [--seed0 N]

Run from the repository root. Each run gets its own seed. For every
workload and metric it prints, per set, the median and the quartile spread
(Q3 - Q1) / median, and flags a spread above a third of the bound (the
steadiness target) or above the bound itself (what a regression gate would
reject). With two or more sets it also prints how far each later set's
median moved in the worse direction against the first. Failed-operation
shares must be identical across all runs. Raw results go to
.bench_out/steady-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    os.makedirs(".bench_out", exist_ok=True)
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed0 + s * args.runs + i
                r = run_once(w, seed, seconds)
                if not r["correct"]:
                    print(f"{w} seed {seed}: incorrect result", flush=True)
                    ok = False
                runs.append(r)
            sets.append(runs)
        with open(os.path.join(".bench_out", f"steady-{w}.json"), "w") as f:
            json.dump(sets, f, indent=1)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1:
            print(f"{w}: failed share differs between runs: {shares}")
            ok = False
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            meds, line = [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                sp = spread(vals)
                meds.append(statistics.median(vals))
                flag = ""
                if sp > bound:
                    flag, ok = " OVER-BOUND", False
                elif sp > bound / 3:
                    flag = " over-target"
                line.append(f"med {meds[-1]:.6g} spread {sp:.3f}{flag}")
            for med in meds[1:]:
                worse = (med - meds[0]) / meds[0] * (1 if lower else -1)
                tag = " DRIFT" if worse > bound else ""
                if tag:
                    ok = False
                line.append(f"worse-by {worse:+.3f}{tag}")
            print(f"{w:10s} {name:20s} bound {bound:.2f} | " +
                  " | ".join(line), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
