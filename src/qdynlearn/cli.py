"""Command-line driver: train, stage, eval, oracle, export.

Exit codes: 0 success, 1 runtime failure (divergence, an output that cannot
be written), 2 usage or configuration error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import circuit as circuit_mod
from . import qcore, reporting, rl as rl_mod, staging, witness
from .backprop import train_backprop
from .config import DEFAULT_STEPS, RunConfig
from .qcore import DensityMatrix, is_real
from .schedules import check_keys, read_json, save_schedule, schedule_from_dict
from .train import TrainingDiverged


class _Main(click.Group):
    """The commands raise a bad input as a usage error (exit 2), so an
    OSError that reaches here is an output that cannot be written: it ends
    in one `Error:` line with exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OSError as exc:
            raise click.ClickException(f"cannot write output: {exc}") from exc


@click.group(cls=_Main)
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
    if isinstance(spec, str) and spec in PRESETS:
        label, rho = spec, PRESETS[spec](num_qubits)
    else:
        if isinstance(spec, dict):
            check_keys(spec, ("label", "amplitudes"), ("amplitudes",),
                       ValueError, f"{label}.", "state")
            if not isinstance(name := spec.get("label", label), str):
                raise ValueError(f"{label}.label must be a string, "
                                 f"got {name!r}")
            label, spec = name, spec["amplitudes"]
        if not (isinstance(spec, list) and all(
                is_real(a) or isinstance(a, list) and len(a) == 2
                and all(map(is_real, a)) for a in spec)):
            raise ValueError(f"bad state {spec!r}: not a preset name or a list "
                             "of amplitudes, each a number or a [re, im] pair")
        rho = DensityMatrix.from_state_vector(
            [complex(*a) if isinstance(a, list) else a for a in spec])
    if rho.num_qubits != num_qubits:
        raise ValueError(f"state {label!r} has {rho.num_qubits} qubits, "
                         f"expected {num_qubits}")
    return label, rho


def _states(entries, num_qubits):
    """The (label, DensityMatrix) list of a --states file's JSON value."""
    if not isinstance(entries, list):
        raise ValueError("--states must hold a JSON list of states")
    return [_state(e, num_qubits, f"state_{i}") for i, e in enumerate(entries)]


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
    cfg = read_json(config_path, click.UsageError, lambda data: RunConfig.from_dict(
        data, seed=seed, epochs=epochs, mode=mode))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pairs = witness.build_training_set(cfg.num_qubits)

    tracer = reporting.TraceWriter(cfg.schedule, cfg.grid.times)
    tracer.snapshot(0, cfg.schedule)

    def callback(epoch, rms, sched):
        if cfg.trace_every and (epoch + 1) % cfg.trace_every == 0:
            tracer.snapshot(epoch + 1, sched)

    cfg.loop.epoch_callback = callback
    try:
        if cfg.mode == "circuit":
            schedule, log = circuit_mod.train_circuit_rl(
                pairs, cfg.schedule, cfg.loop, cfg.backend)
        else:
            fit = train_backprop if cfg.mode == "backprop" else rl_mod.train_rl
            schedule, log = fit(pairs, cfg.schedule, cfg.loop, cfg.grid)
    except TrainingDiverged as exc:
        if exc.log is not None:
            exc.log.write_csv(out / "epochs.csv")
        click.echo(f"training diverged: {exc}", err=True)
        sys.exit(1)

    if tracer.rows[-1][0] != len(log.records):  # unless the callback wrote it
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
    trained = read_json(in_schedule, click.UsageError, schedule_from_dict)
    n = trained.num_qubits
    if target is None:
        target = n + 1
    if target <= n:
        raise click.UsageError(
            f"target qubit count {target} must exceed the input's {n}")
    qcore.check_num_qubits(target, "target qubit count", click.UsageError)
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
def eval_cmd(schedule_path, states_path, out_path, steps):
    """Evaluate a trained witness and report outputs vs the oracle."""
    schedule = read_json(schedule_path, click.UsageError, schedule_from_dict)
    n = schedule.num_qubits
    qcore.check_num_qubits(n, "schedule num_qubits", click.UsageError)
    # A segmented schedule runs whole segments per step, as its circuit does:
    # the step count is rounded up to a multiple of the segment count.
    unit = schedule.size if schedule.SEGMENTED else 1
    grid = qcore.TimeGrid(schedule.T, -(-steps // unit) * unit)

    if states_path is not None:
        states = read_json(states_path, click.UsageError, lambda v: _states(v, n))
    else:
        thetas, sweep = witness.theta_sweep_states(n)
        states = [(f"theta_{th:.4f}", st) for th, st in zip(thetas, sweep)]

    report = witness.evaluate_witness(schedule, states, grid)
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
    if state not in PRESETS and Path(state).exists():
        _, rho = read_json(state, click.UsageError, lambda s: _state(s, 2))
    else:
        try:
            _, rho = _state(state if state in PRESETS else json.loads(state), 2)
        except ValueError as exc:  # a JSONDecodeError too
            raise click.UsageError(f"state {state!r} is not a preset, a file "
                                   f"or JSON amplitudes: {exc}") from exc
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
            json.dump(RunConfig(mode=template_mode).resolved(), fh, indent=2)
        click.echo(f"wrote default {template_mode} config to {out_path}")
        return
    schedule = read_json(schedule_path, click.UsageError, schedule_from_dict)
    times = qcore.TimeGrid(schedule.T, steps).times
    tracer = reporting.TraceWriter(schedule, times)
    tracer.snapshot(0, schedule)
    tracer.write_csv(out_path)
    click.echo(f"wrote trace with {len(times)} samples to {out_path}")


if __name__ == "__main__":
    main()
