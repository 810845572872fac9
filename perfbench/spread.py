#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload rl-n3 --seeds 1-10
    python3 perfbench/spread.py --workload rl-n3 --seeds 1-10 \\
        --out perfbench/baseline.json

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  ``--out`` merges the figures into a
JSON file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="inclusive range")
    parser.add_argument("--seconds", type=int, default=run.NOMINAL_SECONDS)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split("-"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, failures = {}, 0
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += not result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']}", flush=True)

    last = run.RUNS / f"{args.workload}-seed{hi}-trace0" / "result.json"
    summary = {"seeds": [lo, hi], "seconds": args.seconds,
               "incorrect_runs": failures,
               "environment": json.loads(last.read_text())["environment"],
               "metrics": {}}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bounds[name], "values": vals}
        print(f"  {name:<18} median {med:<12.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} spread {spread:.4f} "
              f"({spread / bounds[name]:.2f} of bound {bounds[name]})")
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[args.workload] = summary
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
