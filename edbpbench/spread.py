#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 edbpbench/spread.py --workload NAME [--seeds 1,2,...] [--seconds S]

For each end-to-end metric it prints the median and the distance between
the first and third quartiles as a share of the median (what BENCHMARK.json's
bounds are checked against), and flags spreads above a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, "edbpbench/run.py", "--workload", args.workload, "--seed", seed,
               "--seconds", str(seconds), "--trace", "0"]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        took = time.monotonic() - start
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        values_now = " ".join(f"{k}={m['value']:.4g}" for k, m in result.get("metrics", {}).items())
        steal = [line.rsplit(" ", 1)[-1] for line in proc.stdout.splitlines() if "steal during run" in line]
        print(f"seed {seed}: exit {proc.returncode} in {took:.0f}s correct={result.get('correct')} steal={steal} "
              f"{values_now}",
              flush=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = " <-- above bound/3" if bound and spread > bound / 3 else ""
        print(f"{name:40s} n={len(vs):2d} median={med:.6g} spread={spread:.4f} bound={bound}{flag}")


if __name__ == "__main__":
    main()
