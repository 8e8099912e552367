#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

Runs every workload once per seed (a different seed each run), then for
each end-to-end metric reports the median of the values and their spread:
the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Run from the root of a checkout:

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b]

Prints a Markdown table; --json FILE also saves the raw values.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import parse_seeds

HERE = Path(__file__).resolve().parent


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--json", type=Path)
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for workload in opts.workloads.split(","):
        for seed in parse_seeds(opts.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=900, check=True)
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if not doc["correct"] or doc["failed"]:
                sys.exit(f"{workload} seed {seed}: not correct")
            for name, m in doc["metrics"].items():
                values.setdefault(workload, {}).setdefault(
                    name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()),
                file=sys.stderr, flush=True)
    if opts.json:
        opts.json.write_text(json.dumps(values, indent=1) + "\n")

    print("| workload | metric | runs | median | IQR/median | bound |")
    print("|---|---|---|---|---|---|")
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            spread = "n/a"
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / med:.2%}"
            print(f"| {workload} | {name} | {len(vals)} | {med:.4g} | "
                  f"{spread} | {bounds[name]:.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
