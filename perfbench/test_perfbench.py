"""Checks of the benchmark's own machinery against the current sources.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def test_every_hook_resolves():
    assert tracing.missing_hooks() == []


def test_missing_hook_is_reported_as_missing_not_zero():
    gone = ("gone.layer", "qdynlearn.qcore", "no_such_function", None, None)
    clock = tracing.EpochClock()
    clock.stamps = [(0.0, 0, True), (1.0, 0, False), (2.0, 0, True)]
    with tracing.Tracer(tracing.HOOKS + (gone,)) as tracer:
        pass
    metrics = tracing.layer_metrics(tracer, clock)
    assert tracer.missing == ["gone.layer"]
    assert metrics["gone.layer.calls"] is None
    assert metrics["gone.layer.ms"] is None
    assert metrics["qcore.eigh.calls"] == 0


def _traced_epochs(name, tmp_path, epochs=4):
    """Per-layer metrics of a short traced run of workload `name`."""
    setup = run.write_json(tmp_path / "setup.json",
                           dict(run.WORKLOADS[name].config, epochs=0))
    assert tracing.run_cli(["train", "--config", str(setup),
                            "--out", str(tmp_path / "init")]) == 0
    base = run.start_schedule(name, json.loads(
        (tmp_path / "init" / "schedule.json").read_text()))
    sched, shot_seed = run.make_trials(name, 0, run.NOMINAL_SECONDS, base)[0]
    cfg = run.write_json(tmp_path / "config.json", run.trial_config(
        name, run.write_json(tmp_path / "initial.json", sched), shot_seed,
        epochs, full_length=True))
    summary, tracer = tracing.traced_train(cfg, tmp_path / "out")
    assert summary["exit_code"] == 0
    assert summary["missing"] == []
    assert tracer.spans
    return summary["metrics"]


@pytest.mark.parametrize("name, span_calls", [
    ("rl-n3", ["rl.evals.calls"]),
    ("backprop-n4", ["qcore.evolve.calls", "backprop.adjoint.calls"]),
])
def test_span_counts_agree_with_solve_count(name, span_calls, tmp_path):
    m = _traced_epochs(name, tmp_path)
    assert m["qcore.solves"] == run.WORKLOADS[name].expected_solves
    assert sum(m[k] for k in span_calls) == m["qcore.solves"]


def test_circuit_epoch_compiles_once_per_error_evaluation(tmp_path):
    m = _traced_epochs("circuit-shots", tmp_path)
    # 20 weights x (nominal + perturbed) + the logged evaluation
    assert m["circuit.compile.calls"] == 41
    assert m["circuit.measure.calls"] == 4 * 41
    shots = run.WORKLOADS["circuit-shots"].config["shots"]
    assert m["circuit.shots"] == 4 * 41 * shots
    assert m["qcore.solves"] == 0


def test_inputs_depend_on_the_seed_only():
    base = {"coefficients": {"tunneling": [[2.5e-3, 0.0]],
                             "coupling": [[1e-4, 0.0]]}}
    a = run.make_trials("circuit-shots", 7, 30, base)
    assert a == run.make_trials("circuit-shots", 7, 30, base)
    assert a != run.make_trials("circuit-shots", 8, 30, base)
    assert len(a) == run.WORKLOADS["circuit-shots"].trials
    assert a[0][0]["coefficients"]["tunneling"][0][1] == 0.0


def test_grouped_quantile_interpolates_inside_the_millisecond():
    assert run.grouped_quantile([10.0] * 4 + [11.0] * 4, 0.5) == 10.5
    assert run.grouped_quantile([30.0] * 9 + [31.0], 0.5) == pytest.approx(
        29.5 + 5 / 9)
