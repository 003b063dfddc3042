#!/usr/bin/env python3
"""Steadiness report for the e2ebench benchmark.

Runs the benchmark command from BENCHMARK.json once per (workload, seed),
then prints, for every metric of every workload, the median, the first
and third quartiles, the quartile spread as a share of the median (next
to the metric's bound), and the max/min ratio. Deterministic counts are
compared between runs that should repeat them exactly: runs of the same
seed, and, for the tuning and synthesis workloads, whose timed inputs do
not depend on the seed, runs of every seed. A difference is printed as
nondeterminism, as is any drift a run flagged between its own passes.
When both tuning workloads ran, the simulated-time fidelity line compares
their virtual tuning times with the paper's Fig. 8.

Usage, from the repository root:

    python3 e2ebench/steady.py [--workloads a,b] [--seeds 1,2,3,4,5]
                               [--repeat N] [--trace 0|1]
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SEED_FREE = {"tune-exhaustive", "tune-task", "synth"}


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
    result = json.loads(lines[-1])
    counts = {}
    drift = []
    virtual = None
    # Figures the run prints by name but keeps out of the JSON result
    # (error_rate; serve's latency percentiles and lookup rate).
    extras = {}
    named = re.compile(re.escape(workload) + r": (\S+) = ([-0-9.e+]+) (\S+)")
    for line in lines:
        m = named.match(line)
        if m and m.group(1) not in result["metrics"]:
            extras[m.group(1)] = float(m.group(2))
        if line.startswith("COUNTS "):
            counts = json.loads(line[len("COUNTS "):])
        elif line.startswith("DRIFT "):
            drift = json.loads(line[len("DRIFT "):])
        m = re.search(r"virtual tuning time ([0-9.e+-]+) s", line)
        if m:
            virtual = float(m.group(1))
    return result, counts, drift, virtual, extras


def main():
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    metric_list = bench["end_to_end"] if a.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metric_list}
    ok = True
    summary = {}
    for w in a.workloads.split(","):
        values = {}
        by_seed = {}
        virtual = []
        for seed in seeds:
            for _ in range(a.repeat):
                result, counts, drift, virt, extras = run_once(
                    bench["command"], w, seed, a.seconds, a.trace)
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"{w} seed {seed}: INCORRECT {result['failed']}/{result['attempted']} failed")
                for d in drift:
                    print(f"{w} seed {seed}: NONDETERMINISM within run: {d}")
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                for name, x in extras.items():
                    values.setdefault(name, []).append(x)
                key = "all" if w in SEED_FREE else seed
                by_seed.setdefault(key, []).append(counts)
                if virt is not None:
                    virtual.append(virt)
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        print(f"\n{w}: {len(seeds) * a.repeat} runs")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} {'max/min':>8}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            lo = min(vs)
            ratio = max(vs) / lo if lo else 1.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and not spread <= bound / 3:
                flag = "  <- above a third of its bound"
            print(f"  {name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6} {ratio:8.4f}{flag}")
        for key, runs in by_seed.items():
            for name in sorted({n for c in runs for n in c}):
                seen = sorted({c.get(name) for c in runs}, key=str)
                if len(seen) > 1:
                    print(f"  NONDETERMINISM: count {name} (seed {key}) took values {seen}")
        summary[w] = (values, virtual)
    if "tune-exhaustive" in summary and "tune-task" in summary:
        ex_v, ex_virtual = summary["tune-exhaustive"]
        tk_v, tk_virtual = summary["tune-task"]
        if ex_virtual and tk_virtual and "wall_s" in ex_v and "wall_s" in tk_v:
            r = tk_virtual[0] / ex_virtual[0]
            h = statistics.median(tk_v["wall_s"]) / statistics.median(ex_v["wall_s"])
            print(f"\nfidelity: virtual tuning time exhaustive {ex_virtual[0]:.6f} s, "
                  f"task-based {tk_virtual[0]:.6f} s, task/exhaustive = {r:.4f} "
                  f"({100 * (1 - r):.1f}% cut; paper Fig. 8: 77% cut, 96% with heuristics); "
                  f"host wall_s task/exhaustive = {h:.4f}. The simulator is not validated "
                  f"against hardware, so no error figure is given.")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
