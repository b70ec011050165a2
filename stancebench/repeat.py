#!/usr/bin/env python3
"""Run benchmark workloads several times and summarise each metric.

Run from the root of the repository:

    python3 stancebench/repeat.py --runs 10 [--sets 2] [--workloads steady,wire]

Every run measures for run_seconds from BENCHMARK.json; run i of a set
uses seed i (1..runs). With --sets 2 the two sets are interleaved
(seed 1 of set A, seed 1 of set B, seed 2 of set A, ...), so that a
change in the machine's load lands in both sets rather than between
them. For every end-to-end metric each set's table shows the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and
the spread (Q3 - Q1) / median next to the bound from BENCHMARK.json;
a last table gives how much each later set's median is worse than the
first's. --trace 1 summarises the per-layer metrics instead (no
bounds). --raw FILE also writes every result line as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3


def summarise(title, results, metrics, trace):
    failed = [r["failed"] / r["attempted"] for r in results]
    print(f"\n#### {title}\n\n*{len(results)} runs, attempted "
          f"{sum(r['attempted'] for r in results)}, failed share "
          f"{min(failed):.4f}..{max(failed):.4f}, correct "
          f"{all(r['correct'] for r in results)}*\n")
    if trace:
        print("| metric | unit | median | Q1 | Q3 |")
        print("|---|---|---|---|---|")
    else:
        print("| metric | unit | median | Q1 | Q3 | spread | bound | spread < bound/3 |")
        print("|---|---|---|---|---|---|---|---|")
    for m in metrics:
        med, q1, q3 = stats([r["metrics"][m["name"]]["value"] for r in results])
        row = f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} |"
        if not trace:
            spread = (q3 - q1) / med if med else float("inf")
            ok = "yes" if spread < m["bound"] / 3 else "NO"
            row += f" {spread:.4f} | {m['bound']} | {ok} |"
        print(row)


def compare(workload, sets, metrics):
    """How much each later set's median is worse than the first set's."""
    names = [chr(ord("A") + i) for i in range(len(sets))]
    print(f"\n| {workload} metric | " + " | ".join(f"median {n}" for n in names) +
          " | " + " | ".join(f"{n} worse than A by" for n in names[1:]) + " |")
    print("|---" * (2 * len(sets)) + "|")
    for m in metrics:
        meds = [stats([r["metrics"][m["name"]]["value"] for r in s])[0] for s in sets]
        sign = 1 if m["better"] == "lower" else -1
        worse = [sign * (x - meds[0]) / meds[0] for x in meds[1:]]
        print(f"| {m['name']} | " + " | ".join(f"{x:.6g}" for x in meds) + " | " +
              " | ".join(f"{w:+.4f} (bound {m['bound']})" for w in worse) + " |")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--raw", default="")
    args = ap.parse_args()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    raw = {}
    for w in names:
        sets = [[] for _ in range(args.sets)]
        for seed in range(1, args.runs + 1):
            for i, results in enumerate(sets):
                results.append(run_once(w, seed, args.trace))
                print(f"{w} set {i} seed {seed}: {json.dumps(results[-1])}", file=sys.stderr)
        raw[w] = sets
        for i, results in enumerate(sets):
            title = w if args.sets == 1 else f"{w}, set {chr(ord('A') + i)}"
            summarise(title, results, metrics, args.trace)
        if args.sets > 1 and not args.trace:
            compare(w, sets, metrics)
        sys.stdout.flush()
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(raw, f, indent=1)


with open("BENCHMARK.json") as f:
    bench = json.load(f)

if __name__ == "__main__":
    main()
