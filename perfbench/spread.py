#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py --workload wire_overload --runs 10 [--first-seed 1]

Runs the benchmark command `--runs` times with consecutive seeds (untraced,
`run_seconds` each) and prints, per end-to-end metric, the median and the
interquartile range as a share of the median (statistics.quantiles, n=4),
next to the metric's bound.  A metric whose spread is at or above a third
of its bound is flagged; setup_s is shown but exempt, as the bound applies
to its median only.  Exits 1 when a run fails or a non-exempt spread
reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        final = json.loads(lines[-1]) if lines else {"correct": False}
        if out.returncode != 0 or not final["correct"]:
            print(f"seed {seed}: run failed ({out.returncode})")
            return 1
        for name in values:
            values[name].append(final["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={final['metrics'][n]['value']:.6g}" for n in values),
            flush=True)

    worst = 0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        exempt = m["name"] == "setup_s"
        flag = "" if exempt or spread < m["bound"] / 3 else "  <-- >= bound/3"
        if not exempt and spread >= m["bound"]:
            worst = 1
        print(f"{m['name']:>18}  median {med:12.6g}  spread {spread:7.4f}"
              f"  bound {m['bound']:.3f}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
