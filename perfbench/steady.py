#!/usr/bin/env python3
"""Steadiness mode: run the benchmark in K interleaved sets and compare them.

Usage (from the repository root):

    python3 perfbench/steady.py [--sets K] [--seeds 1-10]

For every seed, every set runs every workload of BENCHMARK.json once, for
its run_seconds and with `--trace 0`, so the sets interleave in time and
host drift hits them alike. For each workload and end-to-end metric it
prints, per set, the median and quartiles over the
seeds and the spread (q3 - q1) / median; then the drift of each set's median
from set 1's, in the metric's worse direction, next to the bound from
BENCHMARK.json. A metric whose spread exceeds its bound is marked
"unresolved"; a drift beyond the bound is marked "DRIFT". It also checks
that every run passed its correctness gate and that each seed's export
digest and deterministic results agree across sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Metrics that are outputs of the simulation, identical for a seed.
DETERMINISTIC = {"victim_p99_ms", "victim_slo_miss_frac"}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next((l.split()[-1] for l in lines if l.startswith(f"digest {workload} all ")), None)
    return result, digest


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)

    # runs[workload][set] = list of (seed, result, digest)
    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    ok = True
    for seed in seeds:
        for k in range(args.sets):
            for w in workloads:
                result, digest = run_once(command, w, seed, seconds)
                runs[w][k].append((seed, result, digest))
                if not result["correct"] or result["failed"] != 0:
                    ok = False
                    print(f"FAILED: {w} set {k + 1} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} failed")
                print(f"  {w} set {k + 1} seed {seed} done", file=sys.stderr)

    for w in workloads:
        print(f"\n== {w}  ({len(seeds)} seeds x {args.sets} sets, {seconds} s per run)")
        for seed_idx, seed in enumerate(seeds):
            digests = {runs[w][k][seed_idx][2] for k in range(args.sets)}
            if len(digests) != 1:
                ok = False
                print(f"DIGEST MISMATCH: seed {seed}: {sorted(d or '-' for d in digests)}")
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            medians = []
            cells = []
            for k in range(args.sets):
                values = [r["metrics"][name]["value"] for _, r, _ in runs[w][k]]
                q1, med, q3 = quartiles(values)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                flag = " unresolved" if spread > bound else ""
                cells.append(f"set{k + 1} med {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.4f}{flag}")
            drifts = []
            for k in range(1, args.sets):
                d = (medians[k] - medians[0]) / medians[0]
                worse = d if better == "lower" else -d
                drifts.append(f"set{k + 1} {d:+.4f}{' DRIFT' if worse > bound else ''}")
            if name in DETERMINISTIC:
                for seed_idx, seed in enumerate(seeds):
                    vals = {runs[w][k][seed_idx][1]["metrics"][name]["value"] for k in range(args.sets)}
                    if len(vals) != 1:
                        ok = False
                        print(f"NONDETERMINISTIC {name}: seed {seed}: {sorted(vals)}")
            print(f"  {name:14} bound {bound:.2f} | " + " | ".join(cells)
                  + " | drift vs set1: " + (", ".join(drifts) or "-"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
