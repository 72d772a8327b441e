#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each named workload
(untraced), and prints for every end-to-end metric its median, its
quartile spread (Q3 - Q1, as statistics.quantiles(n=4) gives them) as a
share of the median, and that share over the metric's bound.

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--out FILE]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for w in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            walls.append(time.time() - t0)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            env = json.loads(lines[-2])["env"]
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: {walls[-1]:.1f} s wall, "
                  f"op_p50_s {result['metrics']['op_p50_s']['value']:.4f}, "
                  f"{env['ops_timed']} ops, steal {env['steal_share']:.3f}", flush=True)
        summary[w] = {"wall_s": walls, "metrics": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            summary[w]["metrics"][name] = {
                "median": med, "spread": share, "of_bound": share / bounds[name], "values": vals}
            print(f"  {name:18s} median {med:.6g}  spread {share:.4f}  "
                  f"({share / bounds[name]:.2f} of bound {bounds[name]})")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
