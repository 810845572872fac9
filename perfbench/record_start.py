#!/usr/bin/env python3
"""Record the committed start schedule of the circuit-shots workload.

Run from the repository root, on the commit whose training is to define it:

    python3 perfbench/record_start.py

Training in circuit mode from the default schedule first sits on a plateau
at RMS 0.46 and leaves it after a random wait (about 40 to 200 epochs over
the seeds tried), which no run of the benchmark can average out.  So
circuit-shots starts where that plateau has been left: this script trains
the workload's config from the unjittered default schedule with shot seed 0
until the epoch RMS first reaches START_RMS, and writes the schedule it ends
on to the workload's ``start`` file.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

NAME = "circuit-shots"
START_RMS = 0.4


def main():
    w = run.WORKLOADS[NAME]
    rundir = run.RUNS / "record-start"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    deadline = run.Deadline(600.0)
    _, base, failed = run.base_schedule(NAME, rundir, deadline, 1)
    if failed:
        sys.exit(f"{NAME}: setup run failed")
    cfg = run.write_json(rundir / "config.json", dict(
        w.config, epochs=w.epochs, seed=0, rms_target=START_RMS,
        initial_schedule=str(rundir / "setup0" / "schedule.json")))
    res = run.cli(["train", "--config", str(cfg), "--out", str(rundir)],
                  rundir / "train", deadline)
    if res.code != 0:
        sys.exit(f"{NAME}: {res.stderr.strip()}")
    rms, _ = run.read_epochs(rundir / "epochs.csv")
    if rms[-1] > START_RMS:
        sys.exit(f"{NAME}: RMS {rms[-1]:.4f} never reached {START_RMS}")
    start = json.loads((rundir / "schedule.json").read_text())
    run.write_json(run.BENCH / w.start, start)
    print(f"{NAME}: RMS {rms[-1]:.6f} at epoch {len(rms) - 1}; wrote "
          f"{run.BENCH / w.start}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
