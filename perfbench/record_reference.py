#!/usr/bin/env python3
"""Record the RMS trajectories that run.py's correctness gate compares against.

Run from the repository root, on the commit that is to be the reference:

    python3 perfbench/record_reference.py --seeds 0-99

For every exact-mode workload and seed it trains trial 0 of the timed run
and stores the epoch RMS at every tenth epoch and the last one in
perfbench/reference.json, next to the commit it came from.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-99",
                        help="inclusive range, e.g. 0-99")
    args = parser.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split("-"))
    doc = (json.loads(run.REFERENCE.read_text())
           if run.REFERENCE.exists() else {})
    for name, w in run.WORKLOADS.items():
        if not w.exact:
            continue
        rundir = run.RUNS / f"reference-{name}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        deadline = run.Deadline(24 * 3600.0)
        _, base, failed = run.base_schedule(name, rundir, deadline, 1)
        if failed:
            sys.exit(f"{name}: setup run failed")
        epochs = sorted({*range(0, w.epochs, 10), w.epochs - 1})
        entry = doc.setdefault(name, {})
        if entry.get("epochs") != epochs:
            entry.update(epochs=epochs, seeds={})
        entry["commit"] = run.environment(rundir, deadline)["commit"]
        for seed in range(lo, hi + 1):
            sched, shot_seed = run.make_trials(
                name, seed, run.NOMINAL_SECONDS, base)[0]
            cfg = run.write_json(rundir / "config.json", run.trial_config(
                name, run.write_json(rundir / "initial.json", sched),
                shot_seed, w.epochs, full_length=True))
            res = run.cli(["train", "--config", str(cfg),
                           "--out", str(rundir / "out")],
                          rundir / "train", deadline)
            if res.code != 0:
                sys.exit(f"{name} seed {seed}: {res.stderr.strip()}")
            rms, _ = run.read_epochs(rundir / "out" / "epochs.csv")
            entry["seeds"][str(seed)] = [rms[e] for e in epochs]
            run.write_json(run.REFERENCE, doc)
            reach = next((i for i, r in enumerate(rms) if r <= w.target), None)
            print(f"{name} seed {seed}: RMS <= {w.target} at epoch {reach}, "
                  f"final {rms[-1]:.6f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
