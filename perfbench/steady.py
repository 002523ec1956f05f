#!/usr/bin/env python3
"""Steadiness check for perfbench.

Runs every workload of BENCHMARK.json in two interleaved sets of runs
(set A takes seeds 1..N, set B seeds 101..100+N; runs alternate A, B, A, B
so drift on the host hits both sets alike), prints each end-to-end metric's
median and quartiles per set, and says whether the sets agree within the
bounds BENCHMARK.json fixes:

  * each set's spread (Q3 - Q1, as a share of the median) is within the
    metric's bound;
  * the two sets' medians differ, in either direction, by no more than
    the bound, as a share of set A's median;
  * the share of failed operations is the same in both sets, and every
    run is correct.

Run it from the root of a checkout:

  python3 perfbench/steady.py [--runs 10]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {p.returncode}")
    r = json.loads(p.stdout.strip().splitlines()[-1])
    if not r["correct"]:
        sys.stderr.write(f"{workload} seed {seed}:\n")
        sys.stderr.writelines(l + "\n" for l in p.stderr.splitlines() if l.startswith("CHECK FAILED"))
    return r


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for w in names:
        sets = {"A": [], "B": []}
        for i in range(opts.runs):
            for label, base in (("A", 1), ("B", 101)):
                r = run_once(bench["command"], w, base + i, bench["run_seconds"])
                sets[label].append(r)
                print(f"{w} set {label} seed {base + i}: correct={r['correct']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items())),
                      flush=True)
        print(f"\n== {w}: {opts.runs} runs per set")
        print(f"{'metric':24} {'set':3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            med = {}
            for label in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in sets[label]]
                md, q1, q3, sp = spread(vals)
                med[label] = md
                flag = ""
                if sp > bound:
                    flag, ok = "SPREAD>BOUND", False
                print(f"{name:24} {label:3} {md:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.4f} {bound:6.2f} {flag}")
            a, b = med["A"], med["B"]
            diff = (b - a) / a if a else 0.0
            worse = diff if lower else -diff
            verdict = "agree" if abs(diff) <= bound else "DISAGREE"
            if abs(diff) > bound:
                ok = False
            print(f"{name:24} B vs A: {diff:+.4f} ({worse:+.4f} worse; bound {bound:.2f}) {verdict}")
        fa = [sum(r["failed"] for r in sets[l]) / sum(r["attempted"] for r in sets[l]) for l in ("A", "B")]
        correct = all(r["correct"] for l in ("A", "B") for r in sets[l])
        if fa[0] != fa[1] or not correct:
            ok = False
        print(f"failed share A={fa[0]} B={fa[1]}; all runs correct: {correct}\n")
    print("VERDICT:", "sets agree within bounds" if ok else "sets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
