#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/sweep.py --seeds 0-9                 # every workload, end-to-end metrics
    python3 perfbench/sweep.py --workloads correlate32 --seeds 3,5 --trace 1

Runs perfbench/run.py once per workload and seed, one after another, with
the run length from BENCHMARK.json. For every metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound, and it exits non-zero if any
run is incorrect or any end-to-end spread exceeds its bound. Raw results
are appended to .perfbench/sweep.jsonl as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOG = os.path.join(ROOT, ".perfbench", "sweep.jsonl")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names), help="comma-separated (default: all)")
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"), help="e.g. 0-9 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    os.makedirs(os.path.dirname(LOG), exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            record, result = run_one(workload, seed, spec["run_seconds"], args.trace)
            with open(LOG, "a") as fh:
                fh.write(json.dumps({"record": record, "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}"
                      f"/{result['attempted']} {record['problems'][:3]}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if not args.trace or n in ("cli.self_s", "trace.overhead_ratio")), flush=True)
        print(f"\n{workload}: {len(args.seeds)} runs")
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f} " + ("ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER")
                ok &= spread <= bound
            print(f"  {name:42s} {unit:8s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f} {flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
