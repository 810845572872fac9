"""Command-line driver: train, stage, eval, oracle, export.

Exit codes: 0 success, 1 runtime failure (divergence, I/O), 2 usage or
configuration error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import circuit as circuit_mod
from . import qcore, reporting, rl as rl_mod, staging, witness
from .backprop import train_backprop
from .config import DEFAULT_STEPS, RunConfig, default_config
from .qcore import OUTPUT_MAPS, DensityMatrix
from .schedules import load_schedule, save_schedule
from .train import TrainingDiverged


@click.group()
def main():
    """Train, stage and evaluate learned entanglement witnesses."""


# Preset states by name, each built only when asked for.
PRESETS = {
    "bell": lambda n: witness.ghz_family_state(2, 1.0, 1.0),
    "ghz": lambda n: witness.ghz_family_state(n, 1.0, 1.0),
    "zeros": lambda n: witness.ghz_family_state(n, 1.0, 0.0),
    "partial": lambda n: witness.ghz_family_state(n, 0.6, 0.8),
}


def _state(spec, num_qubits, label="state"):
    """(label, DensityMatrix) of `num_qubits` qubits from one state spec.

    The spec is a preset name, a list of amplitudes (each a number or a
    [re, im] pair), or an {"amplitudes": [...], "label": ...} object.
    """
    try:
        if isinstance(spec, str):
            if spec not in PRESETS:
                raise ValueError("unknown preset")
            label, rho = spec, PRESETS[spec](num_qubits)
        else:
            if isinstance(spec, dict):
                label = spec.get("label", label)
                spec = spec["amplitudes"]
            rho = DensityMatrix.from_state_vector(
                [complex(*a) if isinstance(a, list) and len(a) == 2
                 else complex(a) for a in spec])
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad state {spec!r}: {exc}")
    if rho.num_qubits != num_qubits:
        raise click.UsageError(f"state {label!r} has {rho.num_qubits} qubits, "
                               f"expected {num_qubits}")
    return label, rho


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _load_schedule(path):
    try:
        return load_schedule(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad schedule file {path}: {exc}")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="JSON run configuration.")
@click.option("--out", "out_dir", required=True, type=click.Path(),
              help="Output directory for schedule/epochs/traces/manifest.")
@click.option("--seed", type=int, default=None, help="Override config seed.")
@click.option("--epochs", type=int, default=None, help="Override epoch count.")
@click.option("--mode", type=click.Choice(["backprop", "rl", "circuit"]),
              default=None, help="Override training mode.")
def train(config_path, out_dir, seed, epochs, mode):
    """Run one training experiment and write its artifacts."""
    if not Path(config_path).exists():
        raise click.UsageError(f"config not found: {config_path}")
    # Everything that can fail here comes from the config or a file it names.
    try:
        cfg = RunConfig.from_file(config_path, seed=seed, epochs=epochs,
                                  mode=mode)
        grid = cfg.grid()
        schedule = cfg.build_schedule()
        loop = cfg.train_config()
        backend = cfg.backend()
    except (ValueError, TypeError, KeyError, OSError) as exc:
        raise click.UsageError(str(exc))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    output_map = OUTPUT_MAPS[cfg.output_map]
    pairs = witness.build_training_set(cfg.num_qubits, output_map)

    tracer = reporting.TraceWriter(schedule, grid.times)
    tracer.snapshot(0, schedule)

    def callback(epoch, rms, sched):
        if cfg.trace_every and (epoch + 1) % cfg.trace_every == 0:
            tracer.snapshot(epoch + 1, sched)

    loop.epoch_callback = callback
    log = reporting.EpochLog()
    try:
        if cfg.epochs > 0:
            if cfg.mode == "backprop":
                schedule, log = train_backprop(pairs, schedule, loop,
                                               output_map, grid)
            elif cfg.mode == "rl":
                schedule, log = rl_mod.train_rl(pairs, schedule, loop,
                                                output_map, grid)
            else:
                schedule, log = circuit_mod.train_circuit_rl(
                    pairs, schedule, loop, backend, output_map)
    except TrainingDiverged as exc:
        if exc.log is not None:
            exc.log.write_csv(out / "epochs.csv")
        click.echo(f"training diverged: {exc}", err=True)
        sys.exit(1)

    tracer.snapshot(len(log.records), schedule)
    save_schedule(schedule, out / "schedule.json")
    log.write_csv(out / "epochs.csv")
    tracer.write_csv(out / "traces.csv")
    reporting.write_manifest(out / "manifest.json", cfg.resolved(),
                             extra={"epochs_run": len(log.records),
                                    "final_rms": (float(log.rms[-1])
                                                  if log.records else None)})
    if log.records:
        click.echo(f"trained {len(log.records)} epochs, "
                   f"final RMS {log.rms[-1]:.4f}")
    else:
        click.echo("epochs = 0: wrote initial-state artifacts only")


@main.command()
@click.argument("in_schedule", type=click.Path())
@click.argument("out_schedule", type=click.Path())
@click.option("--to", "target", type=int, default=None,
              help="Target qubit count (default: one more than the input).")
def stage(in_schedule, out_schedule, target):
    """Initialize a larger-system schedule from a trained smaller one."""
    trained = _load_schedule(in_schedule)
    n = trained.num_qubits
    if target is None:
        target = n + 1
    if target <= n:
        raise click.UsageError(
            f"target qubit count {target} must exceed the input's {n}")
    staged = trained
    while staged.num_qubits < target:
        staged = staging.stage_up(staged)
    save_schedule(staged, out_schedule)
    click.echo(f"staged {n} -> {staged.num_qubits} qubits")


@main.command("eval")
@click.option("--schedule", "schedule_path", required=True, type=click.Path())
@click.option("--states", "states_path", type=click.Path(), default=None,
              help="JSON list of states; default is the 21-point theta sweep.")
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Report CSV (label, oracle, witness output).")
@click.option("--steps", type=click.IntRange(min=1), default=DEFAULT_STEPS)
@click.option("--output-map", type=click.Choice(list(OUTPUT_MAPS)),
              default="square")
def eval_cmd(schedule_path, states_path, out_path, steps, output_map):
    """Evaluate a trained witness and report outputs vs the oracle."""
    schedule = _load_schedule(schedule_path)
    n = schedule.num_qubits
    grid = qcore.TimeGrid(schedule.T, steps)
    fmap = OUTPUT_MAPS[output_map]

    if states_path is not None:
        entries = _read_json(states_path)
        if not isinstance(entries, list):
            raise click.UsageError("--states must hold a JSON list of states")
        states = [_state(e, n, f"state_{i}") for i, e in enumerate(entries)]
    else:
        thetas, sweep = witness.theta_sweep_states(n)
        states = [(f"theta_{th:.4f}", st) for th, st in zip(thetas, sweep)]

    report = witness.evaluate_witness(schedule, states, fmap, grid)
    reporting.write_report_csv(out_path, report.labels, report.oracle,
                               report.outputs)
    click.echo(f"wrote {len(report.labels)} rows; "
               f"theta-sweep Spearman = {report.spearman:.4f}")


@main.command()
@click.argument("state")
def oracle(state):
    """Print the concurrence of a two-qubit state.

    STATE is a preset (bell, ghz, zeros, partial), inline JSON amplitudes,
    or a JSON file path.
    """
    spec = state
    if state not in PRESETS:
        try:
            spec = (_read_json(state) if Path(state).exists()
                    else json.loads(state))
        except json.JSONDecodeError:
            raise click.UsageError(f"state {state!r} is not a preset, "
                                   "a file, or JSON amplitudes")
    _, rho = _state(spec, 2)
    click.echo(f"{witness.concurrence(rho):.12f}")


@main.command()
@click.option("--schedule", "schedule_path", type=click.Path(), default=None,
              help="Schedule to export as a parameter-vs-time trace CSV.")
@click.option("--config-template", "template_mode",
              type=click.Choice(["rl", "backprop", "circuit"]), default=None,
              help="Write a default config for the given mode instead.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--steps", type=click.IntRange(min=1), default=DEFAULT_STEPS)
def export(schedule_path, template_mode, out_path, steps):
    """Export plottable data: schedule traces or a default config."""
    if (schedule_path is None) == (template_mode is None):
        raise click.UsageError(
            "pass exactly one of --schedule or --config-template")
    if template_mode is not None:
        with open(out_path, "w") as fh:
            json.dump(default_config(template_mode).resolved(), fh, indent=2)
        click.echo(f"wrote default {template_mode} config to {out_path}")
        return
    schedule = _load_schedule(schedule_path)
    times = qcore.TimeGrid(schedule.T, steps).times
    tracer = reporting.TraceWriter(schedule, times)
    tracer.snapshot(0, schedule)
    tracer.write_csv(out_path)
    click.echo(f"wrote trace with {len(times)} samples to {out_path}")


if __name__ == "__main__":
    main()
