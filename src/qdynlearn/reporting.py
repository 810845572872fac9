"""CSV logs and run manifests: the data behind the RMS and parameter plots."""

from __future__ import annotations

import csv
import json
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .qcore import pair_indices

# The environment variables that set the BLAS thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


class TraceWriter:
    """Accumulates parameter-vs-time snapshots (one block per logged epoch).

    A row holds every site's value: a tied column repeats over its kind's sites.
    """

    def __init__(self, schedule, times):
        self.times = np.asarray(times, dtype=float)
        n = schedule.num_qubits
        self.sites = [[f"K_{i}" for i in range(n)], [f"eps_{i}" for i in range(n)],
                      [f"zeta_{i}_{j}" for i, j in pair_indices(n)]]
        self.header = ["epoch", "t_ns", *sum(self.sites, [])]
        self.rows = []

    def snapshot(self, epoch, schedule):
        values = schedule.eval_many(self.times)
        if schedule.tied:
            values = np.repeat(values, [len(s) for s in self.sites], axis=1)
        for t, row in zip(self.times.tolist(), values.tolist()):
            self.rows.append([epoch, repr(t)] + [repr(v) for v in row])

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.header)
            w.writerows(self.rows)


def environment():
    """The package, Python, numpy and BLAS versions, the core count and the
    BLAS thread variables; None (null in JSON) where a value is missing."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {"qdynlearn": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "cpu_count": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def write_manifest(path, resolved_config, extra=None):
    """Full resolved configuration, the environment and provenance for
    reproducing the run."""
    doc = {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": resolved_config,
        "environment": environment(),
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
