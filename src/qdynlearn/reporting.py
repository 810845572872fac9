"""CSV logs and run manifests: the data behind the RMS and parameter plots."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class EpochRecord:
    epoch: int
    rms: float
    wall_seconds: float


@dataclass
class EpochLog:
    """Per-epoch RMS error history with wall-clock timestamps."""

    records: list = field(default_factory=list)
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    def append(self, epoch, rms):
        self.records.append(
            EpochRecord(epoch, float(rms), time.perf_counter() - self._t0)
        )

    @property
    def rms(self):
        return np.array([r.rms for r in self.records])

    @property
    def epochs(self):
        return np.array([r.epoch for r in self.records])

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "rms", "wall_seconds"])
            for r in self.records:
                w.writerow([r.epoch, repr(r.rms), f"{r.wall_seconds:.3f}"])


def trace_header(schedule):
    cols = ["epoch", "t_ns"]
    cols += [f"K_{i}" for i in range(schedule.num_qubits)]
    cols += [f"eps_{i}" for i in range(schedule.num_qubits)]
    cols += [f"zeta_{i}_{j}" for i, j in schedule.pairs]
    return cols


class TraceWriter:
    """Accumulates parameter-vs-time snapshots (one block per logged epoch)."""

    def __init__(self, schedule, times):
        self.times = np.asarray(times, dtype=float)
        self.header = trace_header(schedule)
        self.rows = []

    def snapshot(self, epoch, schedule):
        k, e, z = schedule.eval_many(self.times)
        for m, t in enumerate(self.times):
            self.rows.append([epoch, repr(float(t))]
                             + [repr(v) for v in k[m]]
                             + [repr(v) for v in e[m]]
                             + [repr(v) for v in z[m]])

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.header)
            w.writerows(self.rows)


def write_manifest(path, resolved_config, extra=None):
    """Full resolved configuration plus provenance for reproducing the run."""
    doc = {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": resolved_config,
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def write_report_csv(path, labels, oracle, outputs):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "oracle", "witness_output"])
        for lbl, o, out in zip(labels, oracle, outputs):
            w.writerow([lbl, repr(float(o)), repr(float(out))])
