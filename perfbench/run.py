#!/usr/bin/env python3
"""Benchmark for qdynlearn: timed ``qdynlearn train`` workloads and a trace.

Run from the repository root (see perfbench/README.md):

    python3 perfbench/run.py --workload rl-n3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The program is driven only through its command line, in child processes
with BLAS pinned to one thread.  From ``--seed`` the benchmark draws a small
jitter of the default initial schedule (and, in circuit mode, the shot
seed); the program sees only the generated config and schedule files.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import layer_names

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
RUNS = BENCH / "runs"
REFERENCE = BENCH / "reference.json"
# The run length the trial counts below are sized for.
NOMINAL_SECONDS = 30
DEADLINE_S = 170.0
SETUP_REPEATS = 3
# Relative spread of the multiplicative jitter on every initial coefficient.
JITTER = 0.005
# RMS trajectory tolerance against the seed-commit reference: round-off
# changes (another eigensolver, another product order) stay far below it.
REF_RTOL = 1e-6
# Band around the range of recorded seeds, for a seed with no record.
ENVELOPE_RTOL = 0.02
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# Criterion 6's coupling-dominant rates (multi-qubit RL and backprop).
COUPLING_RATES = {"tunneling": 2e-8, "bias": 0.0, "coupling": 4e-6}


@dataclass(frozen=True)
class Workload:
    config: dict            # fields given to `qdynlearn train`; rest default
    epochs: int             # epochs of a full-length trial (>= 101 for p90)
    target: float           # epoch RMS for time_to_target_s
    trials: int             # trials per NOMINAL_SECONDS of --seconds
    trace_epochs: int       # epochs of the traced run (every other traced)
    expected_solves: int | None = None  # logical solves per epoch
    plateau: tuple | None = None        # allowed rms_final band
    exact: bool = True      # deterministic RMS trajectory
    start: str | None = None  # committed start schedule, else the default


WORKLOADS = {
    # Criterion 6's loop: finite-difference RL on d = 8 matrices.
    # 4 pairs x (1 + 14 coefficients) = 60 solves per epoch.
    "rl-n3": Workload(
        config={"mode": "rl", "num_qubits": 3,
                "learning_rates": COUPLING_RATES},
        epochs=110, target=0.2, trials=1, trace_epochs=41,
        expected_solves=60),
    # Adjoint training on d = 16: 2 solves per pair, 8 per epoch.
    "backprop-n4": Workload(
        config={"mode": "backprop", "num_qubits": 4,
                "learning_rates": COUPLING_RATES},
        epochs=110, target=0.5, trials=1, trace_epochs=61,
        expected_solves=8),
    # Criterion 5, second half: 20 untied weights, 1% readout error.  It
    # starts past the default schedule's plateau (record_start.py), whose
    # escape is a random wait of 40-200 epochs.  With 2^17 shots instead of
    # criterion 5's 8192 the descent to the target takes 63-67 epochs over
    # seeds; sampling costs the same for any shot count.
    "circuit-shots": Workload(
        config={"mode": "circuit", "num_qubits": 2, "shots": 131072,
                "p_ro": 0.01},
        epochs=200, target=0.1, trials=7, trace_epochs=121,
        plateau=(0.01, 0.10), exact=False,
        start="circuit_start.json"),
}

END_TO_END = (
    ("setup_s", "s"),
    ("epochs_per_s", "1/s"),
    ("epoch_ms.p50", "ms"),
    ("epoch_ms.p90", "ms"),
    ("time_to_target_s", "s"),
    ("rms_final", "rms"),
    ("witness_spearman", "rho"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (*layer_names(), "setup.import_s", "trace.overhead")


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(1.0, self.end - time.monotonic())


def child_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(args, log_stem: Path, deadline: Deadline) -> Child:
    """Run ``python3 <args>``; return exit code, wall time and peak RSS."""
    out_path = log_stem.with_suffix(".out")
    err_path = log_stem.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(deadline.left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(), err_path.read_text())


def cli(args, log_stem, deadline):
    return run_child(["-m", "qdynlearn.cli", *args], log_stem, deadline)


def write_json(path: Path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return path


# -- inputs -------------------------------------------------------------------

def make_trials(name, seed, seconds, base_schedule):
    """Per-trial (initial schedule, shot seed), drawn from the seed only."""
    w = WORKLOADS[name]
    count = max(1, round(w.trials * seconds / NOMINAL_SECONDS))
    rng = random.Random(f"{name}:{seed}")
    trials = []
    for _ in range(count):
        sched = json.loads(json.dumps(base_schedule))
        for kind, rows in sched["coefficients"].items():
            sched["coefficients"][kind] = [
                [c * (1.0 + JITTER * rng.gauss(0.0, 1.0)) for c in row]
                for row in rows]
        trials.append((sched, rng.randrange(2**31)))
    return trials


def trial_config(name, schedule_path, shot_seed, epochs, full_length):
    """Config for one trial; extra trials stop once they reach the target."""
    w = WORKLOADS[name]
    cfg = dict(w.config, epochs=epochs,
               initial_schedule=str(schedule_path))
    if not w.exact:
        cfg["seed"] = shot_seed
    if not full_length:
        cfg["rms_target"] = w.target
    return cfg


# -- reading results ----------------------------------------------------------

def read_epochs(path):
    """(rms list, cumulative wall seconds list) from an epochs.csv."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return ([float(r["rms"]) for r in rows],
            [float(r["wall_seconds"]) for r in rows])


def grouped_quantile(values_ms, q):
    """Quantile of durations measured in whole milliseconds.

    epochs.csv stamps have 1 ms resolution, so durations fall into 1 ms
    classes; interpolating inside the class (the grouped-data quantile)
    keeps sub-millisecond shifts visible.
    """
    counts = {}
    for v in values_ms:
        k = round(v)
        counts[k] = counts.get(k, 0) + 1
    rank = q * len(values_ms)
    below = 0
    for k in sorted(counts):
        if below + counts[k] >= rank:
            return k - 0.5 + (rank - below) / counts[k]
        below += counts[k]
    return float(max(counts))


def first_reach(rms, wall, target):
    for r, t in zip(rms, wall):
        if r <= target:
            return t
    return None


def reference_check(name, seed, trial, rms):
    """None if the RMS trajectory agrees with the seed-commit reference.

    Trial 0 of a recorded seed must match its record within REF_RTOL; any
    other trial must stay inside the recorded seeds' range, widened by
    ENVELOPE_RTOL.
    """
    if not REFERENCE.exists() or not WORKLOADS[name].exact:
        return None
    ref = json.loads(REFERENCE.read_text()).get(name)
    if ref is None:
        return None
    exact = ref["seeds"].get(str(seed)) if trial == 0 else None
    for i, epoch in enumerate(ref["epochs"]):
        if epoch >= len(rms):
            break
        if exact is not None:
            lo = hi = exact[i]
            tol = REF_RTOL
        else:
            column = [v[i] for v in ref["seeds"].values()]
            lo, hi = min(column), max(column)
            tol = ENVELOPE_RTOL
        if not lo * (1 - tol) <= rms[epoch] <= hi * (1 + tol):
            return (f"epoch {epoch} RMS {rms[epoch]!r} outside "
                    f"[{lo!r}, {hi!r}] +- {tol:g}")
    return None


# -- environment --------------------------------------------------------------

ENV_PROBE = """
import importlib.metadata as md, json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": md.version("scipy"),
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def environment(rundir, deadline):
    probe = run_child(["-c", ENV_PROBE], rundir / "env", deadline)
    env = json.loads(probe.stdout) if probe.code == 0 else {}
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    env.update(nproc=os.cpu_count(), commit=commit,
               blas_threads={v: "1" for v in BLAS_THREAD_VARS})
    return env


# -- the two kinds of run -----------------------------------------------------

def base_schedule(name, rundir, deadline, repeats):
    """Time `repeats` fresh `epochs: 0` runs: (times, schedule, failures)."""
    cfg = write_json(rundir / "setup.json",
                     dict(WORKLOADS[name].config, epochs=0))
    times, failures = [], 0
    for i in range(repeats):
        out = rundir / f"setup{i}"
        res = cli(["train", "--config", str(cfg), "--out", str(out)],
                  rundir / f"setup{i}", deadline)
        if res.code != 0:
            failures += 1
        times.append(res.wall_s)
    sched_path = rundir / "setup0" / "schedule.json"
    sched = json.loads(sched_path.read_text()) if sched_path.exists() else None
    return times, sched, failures


def start_schedule(name, default):
    """The schedule a workload's trials jitter: its start file or `default`."""
    start = WORKLOADS[name].start
    return json.loads((BENCH / start).read_text()) if start else default


def timed_run(name, seed, seconds, rundir, deadline):
    w = WORKLOADS[name]
    problems = []
    setup_times, sched, failed = base_schedule(name, rundir, deadline,
                                               SETUP_REPEATS)
    attempted = SETUP_REPEATS
    if failed:
        problems.append(f"{failed} of {SETUP_REPEATS} setup runs failed")
    if sched is None:
        return attempted, failed, {}, problems, {}

    durations, windows, reach, finals, rss = [], [], [], [], []
    details = []
    for i, (sched_i, shot_seed) in enumerate(
            make_trials(name, seed, seconds, start_schedule(name, sched))):
        tdir = rundir / f"trial{i}"
        tdir.mkdir()
        cfg = write_json(tdir / "config.json", trial_config(
            name, write_json(tdir / "initial_schedule.json", sched_i),
            shot_seed, w.epochs, full_length=(i == 0)))
        res = cli(["train", "--config", str(cfg), "--out", str(tdir)],
                  tdir / "train", deadline)
        attempted += 1
        rss.append(res.maxrss_mb)
        why = None
        if res.code != 0:
            why = f"exit code {res.code}: {res.stderr.strip()[-300:]}"
        else:
            rms, wall = read_epochs(tdir / "epochs.csv")
            durations += [1000.0 * (b - a) for a, b in zip(wall, wall[1:])]
            windows.append((len(wall) - 1, wall[-1] - wall[0]))
            t_hit = first_reach(rms, wall, w.target)
            if t_hit is None:
                why = f"RMS {min(rms):.4f} never reached {w.target}"
            else:
                reach.append(t_hit)
            why = why or reference_check(name, seed, i, rms)
            if i == 0:
                tail = rms[-max(1, len(rms) // 10):]
                finals.append(statistics.median(tail))
                if w.plateau and not (w.plateau[0] <= finals[-1]
                                      <= w.plateau[1]):
                    why = why or (f"plateau {finals[-1]:.4f} outside "
                                  f"{list(w.plateau)}")
        details.append({"trial": i, "shot_seed": shot_seed,
                        "wall_s": res.wall_s, "problem": why})
        if why:
            failed += 1
            problems.append(f"trial {i}: {why}")

    spearman = None
    if (rundir / "trial0" / "schedule.json").exists():
        ev = cli(["eval", "--schedule", str(rundir / "trial0/schedule.json"),
                  "--out", str(rundir / "report.csv")], rundir / "eval",
                 deadline)
        attempted += 1
        match = re.search(r"Spearman = (-?[0-9.]+|nan)", ev.stdout)
        if ev.code == 0 and match and match.group(1) != "nan":
            spearman = float(match.group(1))
        else:
            failed += 1
            problems.append(f"eval failed: {ev.stderr.strip()[-300:]}")

    epochs_run = sum(n for n, _ in windows)
    busy = sum(s for _, s in windows)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "epochs_per_s": epochs_run / busy if busy > 0 else None,
        "epoch_ms.p50": (grouped_quantile(durations, 0.5)
                         if durations else None),
        "epoch_ms.p90": (grouped_quantile(durations, 0.9)
                         if durations else None),
        "time_to_target_s": statistics.median(reach) if reach else None,
        "rms_final": statistics.median(finals) if finals else None,
        "witness_spearman": spearman,
        "peak_rss_mb": max(rss) if rss else None,
    }
    info = {"setup_s": setup_times, "trials": details,
            "epoch_samples": len(durations), "time_to_target": reach}
    return attempted, failed, metrics, problems, info


def traced_run(name, seed, seconds, rundir, deadline):
    w = WORKLOADS[name]
    imports = [run_child(["-c", "import qdynlearn.cli"],
                         rundir / f"import{i}", deadline)
               for i in range(SETUP_REPEATS)]
    _, sched, _ = base_schedule(name, rundir, deadline, 1)
    if sched is None or any(r.code for r in imports):
        return 1, 1, {}, ["setup or import failed"], {}
    sched_0, shot_seed = make_trials(name, seed, seconds,
                                     start_schedule(name, sched))[0]
    cfg = write_json(rundir / "config.json", trial_config(
        name, write_json(rundir / "initial_schedule.json", sched_0),
        shot_seed, w.trace_epochs, full_length=True))
    res = run_child([str(BENCH / "tracing.py"), str(cfg), str(rundir)],
                    rundir / "tracing", deadline)
    summary_path = rundir / "summary.json"
    if res.code != 0 or not summary_path.exists():
        return 1, 1, {}, [f"traced child failed: {res.stderr[-300:]}"], {}
    summary = json.loads(summary_path.read_text())
    metrics = dict(summary["metrics"])
    metrics["setup.import_s"] = statistics.median(r.wall_s for r in imports)

    problems = []
    if summary["exit_code"]:
        problems.append("qdynlearn train failed in the traced child")
    if summary["missing"]:
        problems.append(f"hooks missing: {summary['missing']}")
    solves = metrics.get("qcore.solves")
    if w.expected_solves is not None and solves != w.expected_solves:
        problems.append(f"qcore.solves {solves} per epoch, expected "
                        f"{w.expected_solves}")
    why = reference_check(name, seed, 0, summary["rms"])
    if why:
        problems.append(why)
    info = {"missing": summary["missing"], "epochs": summary["epochs"]}
    return 1, int(bool(problems)), metrics, problems, info


# -- entry point --------------------------------------------------------------

def per_layer_units(name):
    if name.endswith(".ms"):
        return "ms/epoch"
    if name == "setup.import_s":
        return "s"
    if name == "trace.overhead":
        return "ratio"
    return "count/epoch"


def run_workload(name, seed, seconds, trace, deadline):
    rundir = RUNS / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = environment(rundir, deadline)
    run = traced_run if trace else timed_run
    attempted, failed, values, problems, info = run(
        name, seed, seconds, rundir, deadline)
    if trace:
        metrics = {k: {"value": values.get(k), "unit": per_layer_units(k)}
                   for k in PER_LAYER}
    else:
        metrics = {k: {"value": values.get(k), "unit": u}
                   for k, u in END_TO_END}
    for key, m in metrics.items():
        if m["value"] is None:
            m["missing"] = True
            problems.append(f"{key} not measured")
    ok = not problems
    result = {"correct": ok, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    write_json(rundir / "result.json", dict(
        result, workload=name, seed=seed, seconds=seconds, trace=trace,
        environment=env, problems=problems, details=info))

    print(f"{name}  seed={seed}  trace={trace}  correct={ok}  "
          f"attempted={attempted}  failed={failed}")
    for key, m in metrics.items():
        shown = "MISSING" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {key:<26} {shown:>14} {m['unit']}")
    for p in problems:
        print(f"  problem: {p}")
    print(f"  environment: {json.dumps(env)}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdynlearn" / "cli.py").is_file():
        print(f"no qdynlearn sources under {ROOT / 'src'}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = Deadline(DEADLINE_S * len(names))
    results = {n: run_workload(n, args.seed, args.seconds, args.trace,
                               deadline) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
