"""Outside-in spans around qdynlearn's layers for the benchmark's traced run.

Every hook replaces one public module or class attribute of the program from
here; nothing in ``src/`` knows it is being traced.  A hook whose name no
longer resolves is listed as missing and its metrics are reported as ``None``,
never as zero.

Tracing is switched on for every other epoch of one training run, so the
untraced epochs in between measure the tracing overhead under the same
machine conditions.

Run as a script, this file is the traced child process of ``run.py``:

    PYTHONPATH=src python3 perfbench/tracing.py <config.json> <out dir>

It runs ``qdynlearn train`` in-process and writes ``spans.csv`` and
``summary.json`` into the output directory.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import statistics
import sys
import time
from pathlib import Path


def _stack_size(a, *_, **__):
    return math.prod(getattr(a, "shape", ())[:-2])


def _time_samples(tunneling, *_, **__):
    return len(tunneling)


def _shots(circuit, rho0, backend, *_, **__):
    return backend.shots or 0


# (metric prefix, module, attribute path, work metric, work per call).
# Each hook yields <prefix>.calls and <prefix>.ms (self time); a work
# function adds the named work metric as well.
HOOKS = (
    ("qcore.eigh", "numpy.linalg", "eigh", "qcore.eigh.matrices", _stack_size),
    ("qcore.assemble", "qdynlearn.qcore", "assemble_hamiltonians",
     "qcore.assemble.matrices", _time_samples),
    ("qcore.expm", "qdynlearn.qcore", "expm_hermitian", None, None),
    ("qcore.propagate", "qdynlearn.qcore", "total_propagator", None, None),
    ("qcore.evolve", "qdynlearn.qcore", "evolve", None, None),
    ("schedules.eval", "qdynlearn.schedules", "_Schedule.eval_many",
     None, None),
    ("backprop.adjoint", "qdynlearn.backprop", "adjoint_evolve_backward",
     None, None),
    ("backprop.gradients", "qdynlearn.backprop", "all_gradients", None, None),
    ("rl.evals", "qdynlearn.rl", "pair_error", None, None),
    ("circuit.compile", "qdynlearn.circuit", "compile_segments", None, None),
    ("circuit.measure", "qdynlearn.circuit", "run_shots", "circuit.shots",
     _shots),
    ("circuit.estimate", "qdynlearn.circuit", "estimate_output", None, None),
)
# Epoch boundaries: one call per finished epoch, in every training mode.
EPOCH_HOOK = ("qdynlearn.reporting", "EpochLog.append")
# The program's own logical-solve counter.
SOLVE_COUNTER = ("qdynlearn.qcore", "solve_count")


def resolve(module, path):
    """(owner, attribute) for ``module`` + dotted ``path``, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if hasattr(owner, name) else None


def missing_hooks():
    """Dotted names of every hook, epoch boundary or counter that is gone."""
    names = [(m, p) for _, m, p, _, _ in HOOKS] + [EPOCH_HOOK, SOLVE_COUNTER]
    return [f"{m}.{p}" for m, p in names if resolve(m, p) is None]


class _Patches:
    """Attribute replacements that are undone on exit."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            setattr(*self._saved.pop())


class EpochClock(_Patches):
    """Records (perf_counter, solve_count, traced) at the end of every epoch.

    With a tracer, tracing is switched on for epochs 0, 2, 4, ... and off
    for the odd ones.
    """

    def __init__(self, tracer=None):
        super().__init__()
        self.tracer = tracer
        self.stamps = []
        self.rms = []

    def __enter__(self):
        target = resolve(*EPOCH_HOOK)
        if target is None:
            return self
        counter = resolve(*SOLVE_COUNTER)
        append = getattr(*target)
        stamps, rms, tracer = self.stamps, self.rms, self.tracer

        def stamped(log, epoch, value, *args, **kwargs):
            result = append(log, epoch, value, *args, **kwargs)
            traced = tracer is not None and tracer.active
            stamps.append((time.perf_counter(),
                           getattr(*counter) if counter else None, traced))
            rms.append(float(value))
            if tracer is not None:
                tracer.active = not traced
            return result

        self.replace(*target, stamped)
        return self

    def epochs(self):
        """(start, end, solves, traced) of epochs 1.. (epoch 0 warms up)."""
        return [(a[0], b[0], None if a[1] is None else b[1] - a[1], b[2])
                for a, b in zip(self.stamps, self.stamps[1:])]


class Tracer(_Patches):
    """Spans (name, start, end, parent index, work) kept in memory."""

    def __init__(self, hooks=HOOKS):
        super().__init__()
        self.hooks = hooks
        self.active = True
        self.spans = []
        self.missing = []
        self._stack = []

    def __enter__(self):
        for prefix, module, path, _, work in self.hooks:
            target = resolve(module, path)
            if target is None:
                self.missing.append(prefix)
            else:
                self.replace(*target, self._wrap(prefix, getattr(*target),
                                                 work))
        return self

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                work(*args, **kwargs) if work else 1)

        return traced

    def write_csv(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start_s", "end_s", "parent", "work"])
            for name, start, end, parent, work in self.spans:
                w.writerow([name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                            parent, work])


def layer_names(hooks=HOOKS):
    """Names of the per-epoch metrics that `layer_metrics` reports."""
    names = []
    for prefix, _, _, work_name, _ in hooks:
        names += [f"{prefix}.calls", f"{prefix}.ms"]
        if work_name:
            names.append(work_name)
    return names + ["qcore.solves", "train.other.ms"]


def layer_metrics(tracer: Tracer, clock: EpochClock):
    """Per-epoch calls, self time and work of every hook.

    Averages over the traced epochs after epoch 0, so warm-up is left out.
    A missing hook, a missing solve counter or a missing epoch boundary
    gives ``None``.  ``trace.overhead`` is the median traced epoch time over
    the median untraced one.
    """
    metrics = dict.fromkeys([*layer_names(tracer.hooks), "trace.overhead"])
    traced = [e for e in clock.epochs() if e[3]]
    plain = [e[1] - e[0] for e in clock.epochs() if not e[3]]
    if not traced or not plain:
        return metrics
    epochs = len(traced)
    t0, t1 = clock.stamps[0][0], clock.stamps[-1][0]

    child_s = [0.0] * len(tracer.spans)
    for _, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_s[parent] += end - start
    sums = {}
    covered = 0.0
    for i, (name, start, end, parent, work) in enumerate(tracer.spans):
        if start < t0 or end > t1:
            continue
        calls, self_s, total_work = sums.get(name, (0, 0.0, 0))
        sums[name] = (calls + 1, self_s + end - start - child_s[i],
                      total_work + work)
        if parent < 0:
            covered += end - start

    for prefix, _, _, work_name, _ in tracer.hooks:
        if prefix in tracer.missing:
            continue
        calls, self_s, total_work = sums.get(prefix, (0, 0.0, 0))
        metrics[f"{prefix}.calls"] = calls / epochs
        metrics[f"{prefix}.ms"] = 1000.0 * self_s / epochs
        if work_name:
            metrics[work_name] = total_work / epochs
    if traced[0][2] is not None:
        metrics["qcore.solves"] = sum(e[2] for e in traced) / epochs
    busy = [e[1] - e[0] for e in traced]
    metrics["train.other.ms"] = 1000.0 * (sum(busy) - covered) / epochs
    metrics["trace.overhead"] = statistics.median(busy) / statistics.median(
        plain)
    return metrics


def run_cli(args):
    """Exit code of ``qdynlearn <args>`` run in this process."""
    import click
    from qdynlearn.cli import main

    try:
        main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        print(exc.format_message(), file=sys.stderr)
        return exc.exit_code
    return 0


def traced_train(config, out_dir):
    """Train on `config`, tracing every other epoch.

    Returns (summary dict, tracer).
    """
    with Tracer() as tracer, EpochClock(tracer) as clock:
        code = run_cli(["train", "--config", str(config),
                        "--out", str(out_dir)])
    summary = {
        "exit_code": code,
        "missing": missing_hooks(),
        "epochs": len(clock.stamps),
        "rms": clock.rms,
        "metrics": layer_metrics(tracer, clock),
    }
    return summary, tracer


def main(config, out_dir):
    out_dir = Path(out_dir)
    summary, tracer = traced_train(config, out_dir)
    tracer.write_csv(out_dir / "spans.csv")
    (out_dir / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
