#!/usr/bin/env python3
"""Steadiness report: runs each workload once per seed and set, and prints,
per metric and set, the median and the quartile spread (Q3 - Q1) / median,
next to the bound BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10 --sets 2
    python3 perfbench/steady.py --seeds 11-15 --workloads noisy_h2
    python3 perfbench/steady.py --seeds 1-2 --trace 1

Each run is the benchmark command of BENCHMARK.json with its run_seconds,
so the numbers are the ones a gate would see. With several sets, the sets
are interleaved per seed (seed 1 of set 1, seed 1 of set 2, seed 2 of set
1, ...), so a slow drift of the host falls on every set alike, and the
report compares each pair of set medians both ways.

The exit status is 1 when a run fails or is not correct, when a spread
exceeds its bound (setup_s included), or when one set's median is worse
than another's by more than the bound. Besides the JSON metrics it reports
the host probes and the free process and cache counters the untraced runs
print as `info` lines, so host drift can be told apart from program drift.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "info":
            try:
                values.setdefault(parts[1], float(parts[2]))
            except ValueError:
                pass
    return result, values, wall


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seeds, e.g. 1-10 or 3,5,8")
    parser.add_argument("--sets", type=int, default=1,
                        help="runs per seed, interleaved; their medians are compared")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    gated = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(args.sets)]
        for seed in seeds:
            for index, runs in enumerate(sets):
                result, values, wall = run_once(bench["command"], workload, seed,
                                                bench["run_seconds"], args.trace)
                runs.append(values)
                ok &= result["correct"] and result["failed"] == 0
                shown = " ".join(f"{k}={v:.4g}" for k, v in values.items()
                                 if k in gated or k.startswith("host.probe"))
                print(f"{workload} set={index + 1} seed={seed} wall={wall:.1f}s "
                      f"correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']} {shown}", flush=True)
        medians = []
        for index, runs in enumerate(sets):
            print(f"\n{workload} set {index + 1}: {len(runs)} runs, seeds {seeds}")
            print(f"  {'metric':32} {'median':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
            medians.append({})
            for name in runs[0]:
                med, sp = spread([r[name] for r in runs if name in r])
                medians[-1][name] = med
                metric = gated.get(name)
                if metric is None:
                    print(f"  {name:32} {med:12.5g} {sp:8.3f}")
                    continue
                bound = metric["bound"]
                flag = "" if sp <= bound / 3 else ("  over a third" if sp <= bound else "  OVER BOUND")
                ok &= sp <= bound
                print(f"  {name:32} {med:12.5g} {sp:8.3f} {bound:6.2f} {sp / bound:12.2f}{flag}")
        if len(sets) > 1:
            print(f"\n{workload}: set against set, how much worse the later set reads"
                  " (and the earlier, had the order been reversed)")
            for a in range(len(sets)):
                for b in range(a + 1, len(sets)):
                    for name, metric in gated.items():
                        if name not in medians[a]:
                            continue
                        ahead = worse_by(medians[a][name], medians[b][name], metric["better"])
                        back = worse_by(medians[b][name], medians[a][name], metric["better"])
                        flag = "" if max(ahead, back) <= metric["bound"] else "  OVER BOUND"
                        ok &= max(ahead, back) <= metric["bound"]
                        print(f"  sets {a + 1}->{b + 1} {name:24} {ahead:+8.3f} "
                              f"{back:+8.3f} bound {metric['bound']:.2f}{flag}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
