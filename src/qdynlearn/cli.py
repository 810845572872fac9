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


def _named_state(name, num_qubits=2):
    presets = {
        "bell": witness.ghz_family_state(2, 1.0, 1.0),
        "ghz": witness.ghz_family_state(num_qubits, 1.0, 1.0),
        "zeros": DensityMatrix.from_state_vector(
            [1.0] + [0.0] * (2**num_qubits - 1)),
        "partial": witness.ghz_family_state(num_qubits, 0.6, 0.8),
    }
    return presets.get(name)


def _parse_state(spec):
    """State from a preset name, inline JSON amplitudes, or a JSON file."""
    preset = _named_state(spec)
    if preset is not None:
        return spec, preset
    if Path(spec).exists():
        with open(spec) as fh:
            data = json.load(fh)
    else:
        try:
            data = json.loads(spec)
        except json.JSONDecodeError:
            raise click.UsageError(
                f"state {spec!r} is not a preset, a file, or JSON amplitudes")
    return "state", DensityMatrix.from_state_vector(_amplitudes(data))


def _amplitudes(data):
    if isinstance(data, dict):
        data = data["amplitudes"]
    return [complex(a[0], a[1]) if isinstance(a, (list, tuple)) else complex(a)
            for a in data]


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
    observable = qcore.zz_observable(cfg.num_qubits)
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
                                               observable, output_map, grid)
            elif cfg.mode == "rl":
                schedule, log = rl_mod.train_rl(pairs, schedule, loop,
                                                observable, output_map, grid)
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
    if not Path(in_schedule).exists():
        raise click.UsageError(f"schedule not found: {in_schedule}")
    try:
        trained = load_schedule(in_schedule)
    except (KeyError, ValueError) as exc:
        raise click.UsageError(f"bad schedule file: {exc}")
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
@click.option("--steps", type=int, default=DEFAULT_STEPS)
@click.option("--output-map", type=click.Choice(list(OUTPUT_MAPS)),
              default="square")
def eval_cmd(schedule_path, states_path, out_path, steps, output_map):
    """Evaluate a trained witness and report outputs vs the oracle."""
    if not Path(schedule_path).exists():
        raise click.UsageError(f"schedule not found: {schedule_path}")
    schedule = load_schedule(schedule_path)
    grid = qcore.TimeGrid(schedule.T, steps)
    obs = qcore.zz_observable(schedule.num_qubits)
    fmap = OUTPUT_MAPS[output_map]

    if states_path is not None:
        with open(states_path) as fh:
            entries = json.load(fh)
        states = []
        for i, entry in enumerate(entries):
            if isinstance(entry, str):
                st = _named_state(entry, schedule.num_qubits)
                if st is None:
                    raise click.UsageError(f"unknown preset {entry!r}")
                states.append((entry, st))
            else:
                states.append((entry.get("label", f"state_{i}"),
                               DensityMatrix.from_state_vector(
                                   _amplitudes(entry))))
    else:
        thetas, sweep = witness.theta_sweep_states(schedule.num_qubits)
        states = [(f"theta_{th:.4f}", st) for th, st in zip(thetas, sweep)]

    report = witness.evaluate_witness(schedule, states, obs, fmap, grid)
    reporting.write_report_csv(out_path, report.labels, report.oracle,
                               report.outputs)
    click.echo(f"wrote {len(report.labels)} rows; "
               f"theta-sweep Spearman = {report.spearman:.4f}")


@main.command()
@click.argument("state")
def oracle(state):
    """Print the concurrence of a two-qubit state.

    STATE is a preset (bell, zeros, partial), inline JSON amplitudes, or a
    JSON file path.
    """
    _, rho = _parse_state(state)
    click.echo(f"{witness.concurrence(rho):.12f}")


@main.command()
@click.option("--schedule", "schedule_path", type=click.Path(), default=None,
              help="Schedule to export as a parameter-vs-time trace CSV.")
@click.option("--config-template", "template_mode",
              type=click.Choice(["rl", "backprop", "circuit"]), default=None,
              help="Write a default config for the given mode instead.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--steps", type=int, default=DEFAULT_STEPS)
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
    if not Path(schedule_path).exists():
        raise click.UsageError(f"schedule not found: {schedule_path}")
    schedule = load_schedule(schedule_path)
    times = qcore.TimeGrid(schedule.T, steps).times
    tracer = reporting.TraceWriter(schedule, times)
    tracer.snapshot(0, schedule)
    tracer.write_csv(out_path)
    click.echo(f"wrote trace with {len(times)} samples to {out_path}")


if __name__ == "__main__":
    main()
