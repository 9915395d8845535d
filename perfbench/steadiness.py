#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread, the evidence its bounds rest on.

Runs the command in BENCHMARK.json on every workload, once per seed, and
reports for each end-to-end metric the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --first-seed 1000 --tag a
    python3 perfbench/steadiness.py --compare .bench_out/steadiness-a.json .bench_out/steadiness-b.json

The first form writes .bench_out/steadiness-<tag>.json; the second checks
that no metric's median in the second set is worse than in the first by
more than the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

OUT = ".bench_out"


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    t = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probe = next((float(l.split()[1]) for l in lines if l.startswith("host_probe_ms ")), None)
    steal = next((float(l.split()[1]) for l in lines if l.startswith("host_steal_share ")), None)
    # Wall-clock figures the run prints but does not gate on.
    for l in lines:
        if l.startswith("report-only "):
            _, name, value, unit = l.split()
            result["metrics"][name] = {"value": float(value), "unit": unit, "report_only": True}
    return result, probe, steal, wall


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else float("nan")


def measure(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for w in workloads:
        per_metric, probes, steals, walls, bad = {}, [], [], [], 0
        for i in range(args.runs):
            result, probe, steal, wall = run_once(spec, w, args.first_seed + i, args.trace)
            bad += int(not result["correct"] or result["failed"] > 0)
            probes.append(probe)
            steals.append(steal)
            walls.append(wall)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        entry = {"runs": args.runs, "incorrect_runs": bad, "host_probe_ms": probes,
                 "host_steal_share": steals, "wall_s": walls, "metrics": {}}
        print(f"== {w}: {args.runs} runs, {bad} incorrect, {statistics.mean(walls):.1f} s per run, "
              f"host probe {min(probes):.2f}-{max(probes):.2f} ms, "
              f"steal {min(steals):.3f}-{max(steals):.3f}")
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
        for name, values in per_metric.items():
            med, sp = spread(values)
            bound = bounds.get(name)
            entry["metrics"][name] = {"values": values, "median": med, "spread": sp}
            verdict = "report only" if name not in bounds and args.trace == 0 else ""
            if bound is not None and args.trace == 0:
                verdict = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "OVER BOUND")
            print(f"  {name:38s} median {med:12.6g}  spread {sp * 100:6.1f}%  {verdict}")
        report["workloads"][w] = entry
        sys.stdout.flush()
    os.makedirs(OUT, exist_ok=True)
    path = f"{OUT}/steadiness-{args.tag}.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"wrote {path}")


def compare(first_path, second_path):
    spec = load_spec()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    failed = 0
    for w, entry in second["workloads"].items():
        for name, m in entry["metrics"].items():
            if name not in bounds or w not in first["workloads"]:
                continue
            bound, better = bounds[name]
            a = first["workloads"][w]["metrics"][name]["median"]
            b = m["median"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = "WORSE THAN BOUND" if worse > bound else "ok"
            failed += flag != "ok"
            print(f"{w:12s} {name:20s} {a:12.6g} -> {b:12.6g}  worse by {worse * 100:6.1f}% "
                  f"(bound {bound * 100:.0f}%)  {flag}")
    return failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tag", default="latest")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    if args.compare:
        sys.exit(1 if compare(*args.compare) else 0)
    measure(args)


if __name__ == "__main__":
    main()
