"""End-to-end CLI: artifacts, exit codes, reproducibility."""

import csv
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qdynlearn
from qdynlearn import qcore, reporting, witness
from qdynlearn.circuit import ShotBackend, compile_segments
from qdynlearn.cli import main
from qdynlearn.config import ConfigError, RunConfig
from qdynlearn.train import TrainConfig
from qdynlearn.schedules import (
    KIND_ORDER,
    FourierSchedule,
    PiecewiseSchedule,
    load_schedule,
    save_schedule,
)


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, **overrides):
    cfg = {"mode": "rl", "num_qubits": 2, "T_ns": 250.0, "steps": 50,
           "epochs": 3, "seed": 0}
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# -- train -------------------------------------------------------------------


def test_train_missing_config_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["train", "--config", str(tmp_path / "no.json"),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config not found" in result.output


def test_train_invalid_config_exits_2(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mode": "quantum-annealing"}))
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2


def test_train_unknown_field_exits_2(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    for fields, name in [
        ({"learning_rate_k": 1.0}, "learning_rate_k"),
        ({"init": {"tunnelling": 5.0}}, "init.tunnelling"),
        ({"learning_rates": {"couplng": 1.0}}, "learning_rates.couplng"),
        ({"delta_abs": {"tunneling": 1e-6, "bias": 1e-6, "coupling": 1e-6,
                        "biass": 1e-6}}, "delta_abs.biass"),
        ({"update_mode": "sequential"}, "update_mode"),
        ({"output_map": "square"}, "output_map"),
    ]:
        cfg.write_text(json.dumps({"mode": "rl", **fields}))
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, fields
        assert "unknown config fields" in result.output
        assert name in result.output


@pytest.mark.parametrize("text", [
    '{"mode": "rl", "learning_rates": {"coupling": NaN}}',
    '{"mode": "rl", "T_ns": Infinity}',
    '{"mode": "rl", "delta_rel": NaN}',
    '{"mode": "rl", "T_ns": 1e400}',
])
def test_train_non_finite_number_exits_2(runner, tmp_path, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "non-finite number" in result.output


@pytest.mark.parametrize("fields,name", [
    ({"num_qubits": 2.5}, "num_qubits"),
    ({"num_qubits": True}, "num_qubits"),
    ({"num_qubits": 7}, "num_qubits"),
    ({"num_qubits": 1}, "num_qubits"),
    ({"epochs": 2.5}, "epochs"),
    ({"steps": 2.5}, "steps"),
    ({"rms_target": "x"}, "rms_target"),
    ({"shots": 1.5}, "shots"),
    ({"shots": True}, "shots"),
    ({"n_max": 1.5}, "n_max"),
    ({"mode": "circuit", "segments": 2.5}, "segments"),
    ({"tied": "no"}, "tied"),
    ({"init": {"bias": "x"}}, "init.bias"),
    ({"initial_schedule": 0}, "initial_schedule"),
    ({"trace_every": -1}, "trace_every"),
    ({"rms_target": -0.5}, "rms_target"),
    # Every structure field is checked in every mode, used there or not.
    ({"seed": -1}, "seed"),
    ({"segments": 0}, "segments"),
    ({"mode": "circuit", "n_max": -1}, "n_max"),
    # The merged loop fields are checked in every mode, backprop too.
    ({"mode": "backprop", "delta_abs": {"tunneling": -1.0}}, "delta_abs"),
    # A shot count past the sampler's integer range is refused up front.
    ({"mode": "circuit", "shots": 10**19}, "shots"),
])
def test_train_wrong_type_or_range_exits_2(runner, tmp_path, fields, name):
    # Nothing is coerced: each of these would otherwise train something
    # other than what manifest.json records, or end in a traceback.
    cfg = write_config(tmp_path / "bad.json", **fields)
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert name in result.output


def test_train_mismatched_initial_schedule_exits_2(runner, tmp_path):
    for name, fields in (("init", {}), ("short", {"T_ns": 2.0}),
                         ("circuit", {"mode": "circuit", "T_ns": 2.0})):
        runner.invoke(main, ["train", "--config",
                             str(write_config(tmp_path / f"{name}.json",
                                              epochs=0, **fields)),
                             "--out", str(tmp_path / name)])
    for start, fields, message in (
            ("init", {"num_qubits": 3}, "initial schedule has 2 qubits"),
            # a Fourier start file for the piecewise circuit mode
            ("init", {"mode": "circuit"}, "mode fourier"),
            # a start file on [0, 2 ns] for a 250 ns run
            ("short", {}, "T_ns 2.0"),
            # a start file with another basis size, or untied weights
            ("init", {"n_max": 5}, "structure {'n_max': 3}"),
            ("init", {"tied": False}, "tied True"),
            ("circuit", {"mode": "circuit", "T_ns": 2.0, "segments": 8},
             "structure {'segments': 4}")):
        cfg = write_config(tmp_path / "b.json",
                           initial_schedule=str(tmp_path / start / "schedule.json"),
                           **fields)
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert message in result.output


def test_train_missing_initial_schedule_exits_2(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       initial_schedule=str(tmp_path / "no.json"))
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output


def test_train_writes_all_artifacts(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    for name in ("schedule.json", "epochs.csv", "traces.csv", "manifest.json"):
        assert (out / name).exists()
    rows = read_csv(out / "epochs.csv")
    assert rows[0] == ["epoch", "rms", "wall_seconds"]
    assert len(rows) == 1 + 3  # header + one row per epoch
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "rl"
    assert manifest["epochs_run"] == 3
    assert manifest["final_rms"] == float(rows[-1][1])
    sched = load_schedule(out / "schedule.json")
    assert sched.num_qubits == 2


@pytest.mark.parametrize("mode,fields", [("rl", {}),
                                         ("circuit", {"T_ns": 2.0})])
def test_traces_csv_is_numeric_and_matches_the_schedule(runner, tmp_path,
                                                        mode, fields):
    # Every cell is a plain number, and the final block holds the trained
    # schedule's value for every site: a tied row (rl) drives all sites of
    # its kind, an untied one (circuit) its own site.
    cfg = write_config(tmp_path / "cfg.json", mode=mode, num_qubits=3,
                       epochs=2, trace_every=1, **fields)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    header, *rows = read_csv(out / "traces.csv")
    assert header == ["epoch", "t_ns", "K_0", "K_1", "K_2", "eps_0", "eps_1",
                      "eps_2", "zeta_0_1", "zeta_0_2", "zeta_1_2"]
    values = np.array([[float(cell) for cell in row] for row in rows])
    sched = load_schedule(out / "schedule.json")
    steps = 50
    assert len(values) == 3 * (steps + 1)  # the start, epoch 1 and epoch 2
    last = values[-(steps + 1):]
    assert (last[:, 0] == 2).all()
    basis = sched.basis_row(last[:, 1])
    columns = [(kind, site) for kind in KIND_ORDER
               for site in range(sched.n_sites(kind))]
    for col, (kind, site) in enumerate(columns, start=2):
        row = sched.coeffs[kind][0 if sched.tied else site]
        assert np.allclose(last[:, col], basis @ row, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("fields,blocks", [
    ({"epochs": 0, "trace_every": 200}, [0]),
    ({"epochs": 3, "trace_every": 1}, [0, 1, 2, 3]),
    ({"epochs": 3, "trace_every": 2}, [0, 2, 3]),
    ({"epochs": 4, "trace_every": 2}, [0, 2, 4]),
    ({"epochs": 2, "trace_every": 0}, [0, 2]),
    ({"epochs": 5, "trace_every": 1, "rms_target": 1.0}, [0, 1]),
], ids=["no-epochs", "every-epoch", "odd-end", "even-end", "no-interval",
        "early-stop"])
def test_traces_csv_holds_one_block_per_logged_epoch(runner, tmp_path, fields,
                                                      blocks):
    # The start, every trace_every-th epoch and the last epoch run, each once,
    # whether or not the last falls on a multiple of trace_every.
    cfg = write_config(tmp_path / "cfg.json", mode="backprop", steps=10,
                       **fields)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    _, *rows = read_csv(out / "traces.csv")
    epochs = [int(row[0]) for row in rows]
    assert epochs == [e for e in blocks for _ in range(11)]
    assert len(read_csv(out / "epochs.csv")) == 1 + blocks[-1]


def test_train_zero_epochs_writes_initial_artifacts(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", epochs=0)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0
    assert len(read_csv(out / "epochs.csv")) == 1  # header only
    assert (out / "schedule.json").exists()
    assert "epochs = 0" in result.output


@pytest.mark.parametrize("mode", ["rl", "backprop", "circuit"])
def test_train_zero_epochs_at_the_largest_time_is_finite(runner, tmp_path,
                                                         mode):
    # T_ns = 1e308 is accepted; the initial trace must not overflow.
    cfg = write_config(tmp_path / "cfg.json", mode=mode, epochs=0, T_ns=1e308)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    _, *rows = read_csv(out / "traces.csv")
    values = np.array([[float(cell) for cell in row] for row in rows])
    assert len(values) == 51  # the start, which is also the untrained end
    assert np.isfinite(values).all()


def test_train_diverging_inside_an_epoch_exits_1_with_epochs_csv(runner,
                                                                 tmp_path):
    # At T = 1e12 ns the first descent steps of epoch 0 drive the
    # coefficients to about 1e190, and the next solve overflows, before any
    # epoch RMS is logged.  The run stops as divergence rather than with a
    # traceback, and emits no RuntimeWarning.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "backprop", "epochs": 3,
                               "T_ns": 1e12}))
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "training diverged: epoch 0: overflow" in result.output
    assert read_csv(out / "epochs.csv") == [["epoch", "rms", "wall_seconds"]]


def test_train_overrides_take_effect(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", epochs=5, seed=0)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(out), "--epochs", "2",
                                  "--seed", "9"])
    assert result.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["epochs_run"] == 2
    assert manifest["config"]["seed"] == 9


def test_mode_override_means_the_same_as_the_field(runner, tmp_path):
    # The override must resolve the mode's own defaults (T_ns, tied,
    # perturbations, learning rates), as if the file had said "circuit".
    configs = {}
    for name, text, extra in (
            ("override", {"mode": "rl", "epochs": 0}, ["--mode", "circuit"]),
            ("field", {"mode": "circuit", "epochs": 0}, [])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(text))
        result = runner.invoke(main, ["train", "--config", str(path),
                                      "--out", str(tmp_path / name), *extra])
        assert result.exit_code == 0, result.output
        configs[name] = json.loads(
            (tmp_path / name / "manifest.json").read_text())["config"]
    assert configs["override"] == configs["field"]
    assert configs["override"]["T_ns"] == 2.0
    assert configs["override"]["tied"] is False


def test_train_reproducible(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    for d in ("a", "b"):
        assert runner.invoke(main, ["train", "--config", str(cfg),
                                    "--out", str(tmp_path / d)]).exit_code == 0
    for name in ("schedule.json", "epochs.csv"):
        a = (tmp_path / "a" / name).read_text()
        b = (tmp_path / "b" / name).read_text()
        if name == "epochs.csv":  # strip wall-clock column
            a = [r[:2] for r in csv.reader(a.splitlines())]
            b = [r[:2] for r in csv.reader(b.splitlines())]
        assert a == b


def test_train_circuit_mode(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", mode="circuit", epochs=2,
                       T_ns=2.0, shots=512, p_ro=0.01)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    sched = load_schedule(out / "schedule.json")
    assert sched.mode == "piecewise"
    assert sched.segments == 4


@pytest.mark.parametrize("mode, num_qubits",
                         [("rl", 3), ("backprop", 4), ("circuit", 2)])
def test_one_epoch_never_calls_eigh(runner, tmp_path, monkeypatch, mode,
                                    num_qubits):
    # The training states are pure, so each factor is its state vector and
    # building the training set calls no eigensolver; every solve
    # exponentiates by Taylor polynomials, and the backprop gradient pulls
    # back through them.  No train process diagonalises.
    calls = []
    for name in ("eigh", "eigvalsh", "eigvals"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, name=name, real=real, **k:
                            calls.append((name, a[0].shape)) or real(*a, **k))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": mode, "num_qubits": num_qubits,
                               "epochs": 1}))
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert [row[0] for row in read_csv(out / "epochs.csv")] == ["epoch", "0"]
    assert calls == []


# -- stage -------------------------------------------------------------------


def test_stage_roundtrip(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", epochs=1)
    out = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(cfg),
                                "--out", str(out)]).exit_code == 0
    staged = tmp_path / "staged.json"
    result = runner.invoke(main, ["stage", str(out / "schedule.json"),
                                  str(staged)])
    assert result.exit_code == 0
    assert load_schedule(staged).num_qubits == 3


def test_stage_to_target(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", epochs=0)
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    staged = tmp_path / "staged.json"
    result = runner.invoke(main, ["stage", str(out / "schedule.json"),
                                  str(staged), "--to", "5"])
    assert result.exit_code == 0
    assert load_schedule(staged).num_qubits == 5


def test_stage_rejects_non_growing_target(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", epochs=0)
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    result = runner.invoke(main, ["stage", str(out / "schedule.json"),
                                  str(tmp_path / "s.json"), "--to", "2"])
    assert result.exit_code == 2


def test_stage_rejects_more_than_six_qubits(runner, tmp_path):
    # Rejected before staging: nothing of 2^7 is ever built.
    two, six = tmp_path / "two.json", tmp_path / "six.json"
    save_schedule(FourierSchedule.initialized(2, 250.0), two)
    save_schedule(FourierSchedule.initialized(6, 250.0), six)
    for args in ([str(two), "--to", "7"], [str(six)]):
        out = tmp_path / "s.json"
        result = runner.invoke(main, ["stage", args[0], str(out), *args[1:]])
        assert result.exit_code == 2, result.output
        assert "target qubit count must be an integer in 2..6" in result.output
        assert not out.exists()


def test_stage_missing_input(runner, tmp_path):
    result = runner.invoke(main, ["stage", str(tmp_path / "no.json"),
                                  str(tmp_path / "s.json")])
    assert result.exit_code == 2


# -- eval and oracle ---------------------------------------------------------


def test_eval_default_sweep(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", epochs=0)
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    report = tmp_path / "report.csv"
    result = runner.invoke(main, ["eval", "--schedule",
                                  str(out / "schedule.json"),
                                  "--out", str(report), "--steps", "50"])
    assert result.exit_code == 0
    rows = read_csv(report)
    assert rows[0] == ["label", "oracle", "witness_output"]
    assert len(rows) == 22  # header + 21 sweep points
    assert "Spearman" in result.output


def test_eval_named_states(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", epochs=0)
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    states = tmp_path / "states.json"
    states.write_text(json.dumps([
        "bell",
        {"label": "plus_plus", "amplitudes": [0.5, 0.5, 0.5, 0.5]},
        [0.6, 0, 0, [0.8, 0]],
    ]))
    report = tmp_path / "report.csv"
    result = runner.invoke(main, ["eval", "--schedule",
                                  str(out / "schedule.json"),
                                  "--states", str(states),
                                  "--out", str(report), "--steps", "20"])
    assert result.exit_code == 0
    rows = read_csv(report)
    assert [r[0] for r in rows[1:]] == ["bell", "plus_plus", "state_2"]
    assert float(rows[1][1]) == pytest.approx(1.0)  # Bell oracle
    assert float(rows[3][1]) == pytest.approx(0.96)


@pytest.mark.parametrize("segments", [3, 7])
def test_eval_of_a_circuit_schedule_is_its_compiled_circuit(runner, tmp_path,
                                                            segments):
    # 200 steps is no multiple of 3 or 7: eval rounds the steps up to whole
    # segments, so midpoint sampling does not blur a segment boundary.
    s = PiecewiseSchedule.initialized(2, 2.0, segments=segments)
    s.params[:] = np.random.default_rng(segments).normal(size=s.params.size)
    save_schedule(s, tmp_path / "s.json")
    report = tmp_path / "report.csv"
    result = runner.invoke(main, ["eval", "--schedule", str(tmp_path / "s.json"),
                                  "--out", str(report)])
    assert result.exit_code == 0, result.output
    u = compile_segments(s)
    want = [qcore.output_value(qcore.populations(u @ rho.factor))
            for rho in witness.theta_sweep_states(2)[1]]
    got = [float(row[2]) for row in read_csv(report)[1:]]
    assert np.abs(np.subtract(got, want)).max() <= 1e-12


@pytest.mark.parametrize("args", [
    # a bare amplitude list in place of a list of states
    ["eval", "--schedule", "{two}", "--states", "{amplitudes}"],
    ["eval", "--schedule", "{two}", "--states", "{missing}"],
    ["eval", "--schedule", "{garbage}"],
    ["eval", "--schedule", "{two}", "--steps", "0"],
    # a 2-qubit preset against a 3-qubit schedule
    ["eval", "--schedule", "{three}", "--states", "{bell}"],
    ["eval", "--schedule", "{two}", "--states", "{infinite}"],
    # the witness reads qubits 0 and 1, which a 1-qubit schedule lacks
    ["eval", "--schedule", "{one}"],
    ["export", "--schedule", "{garbage}"],
    ["export", "--schedule", "{two}", "--steps", "0"],
    # schedule fields of the wrong type, and more qubits than the limit
    ["eval", "--schedule", "{num_qubits}"],
    ["eval", "--schedule", "{n_max}"],
    ["eval", "--schedule", "{tied}"],
    ["eval", "--schedule", "{T_ns}"],
    ["eval", "--schedule", "{seven}"],
])
def test_eval_and_export_bad_input_exits_2(runner, tmp_path, args):
    for name, n in (("two", 2), ("three", 3)):
        cfg = write_config(tmp_path / f"{name}.json", num_qubits=n, epochs=0)
        runner.invoke(main, ["train", "--config", str(cfg),
                             "--out", str(tmp_path / name)])
    files = {"two": tmp_path / "two" / "schedule.json",
             "three": tmp_path / "three" / "schedule.json",
             "amplitudes": tmp_path / "amplitudes.json",
             "bell": tmp_path / "bell.json",
             "infinite": tmp_path / "infinite.json",
             "garbage": tmp_path / "garbage.json",
             "missing": tmp_path / "missing.json",
             "one": tmp_path / "one.json"}
    save_schedule(FourierSchedule.initialized(1, 250.0), files["one"])
    files["amplitudes"].write_text("[0.5, 0.5, 0.5, 0.5]")
    files["bell"].write_text('["bell"]')
    files["infinite"].write_text("[[Infinity, 0, 0, 1]]")
    files["garbage"].write_text("{not json")
    base = json.loads(files["two"].read_text())  # tied: one row per kind
    for name, field, value in (("num_qubits", "num_qubits", 2.5),
                               ("n_max", "n_max", 3.7), ("tied", "tied", "no"),
                               ("T_ns", "T_ns", True),
                               ("seven", "num_qubits", 7)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({**base, field: value}))
    result = runner.invoke(main, [a.format(**files) for a in args]
                           + ["--out", str(tmp_path / "out.csv")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)


def test_eval_without_oracle_writes_nan(runner, tmp_path):
    # The concurrence oracle covers two qubits only; a 3-qubit state's
    # oracle column must read as missing, not as a number.
    cfg = write_config(tmp_path / "cfg.json", num_qubits=3, epochs=0)
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    report = tmp_path / "report.csv"
    result = runner.invoke(main, ["eval", "--schedule",
                                  str(out / "schedule.json"),
                                  "--out", str(report), "--steps", "20"])
    assert result.exit_code == 0, result.output
    rows = read_csv(report)[1:]
    assert len(rows) == 21
    assert all(np.isnan(float(r[1])) for r in rows)


def test_oracle_presets(runner):
    result = runner.invoke(main, ["oracle", "bell"])
    assert result.exit_code == 0
    assert float(result.output) == pytest.approx(1.0, abs=1e-12)
    result = runner.invoke(main, ["oracle", "zeros"])
    assert float(result.output) == pytest.approx(0.0, abs=1e-12)
    result = runner.invoke(main, ["oracle", "partial"])
    assert float(result.output) == pytest.approx(0.96, abs=1e-12)


def test_oracle_inline_json(runner):
    result = runner.invoke(main, ["oracle", "[0.6, 0, 0, 0.8]"])
    assert result.exit_code == 0
    assert float(result.output) == pytest.approx(0.96, abs=1e-12)
    # amplitudes near the float limit, whose plain norm overflows
    result = runner.invoke(main, ["oracle", "[1e308, 0, 0, 1e308]"])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == "1.000000000000"


def test_oracle_garbage_exits_2(runner):
    for state in ("not-a-state", "[1,0,0]", "[1,0,0,0,0,0,0,1]",
                  "[NaN, 0, 0, 1]"):
        result = runner.invoke(main, ["oracle", state])
        assert result.exit_code == 2, state


# -- export ------------------------------------------------------------------


def test_export_config_template(runner, tmp_path):
    out = tmp_path / "template.json"
    result = runner.invoke(main, ["export", "--config-template", "circuit",
                                  "--out", str(out)])
    assert result.exit_code == 0
    cfg = json.loads(out.read_text())
    assert cfg["mode"] == "circuit"
    assert cfg["T_ns"] == 2.0


@pytest.mark.parametrize("fields", [
    {"mode": "rl"},
    {"mode": "backprop"},
    {"mode": "circuit", "T_ns": 2.0, "shots": 256, "seed": 3},
], ids=["rl", "backprop", "circuit-shots"])
def test_manifest_config_reruns_the_same_run(runner, tmp_path, fields):
    # The manifest's resolved config is a config file of its own: written
    # out and trained again, it gives the same RMS in every epoch.
    cfg = write_config(tmp_path / "cfg.json", **fields)
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(tmp_path / "first")])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
    again = tmp_path / "again.json"
    again.write_text(json.dumps(manifest["config"]))
    result = runner.invoke(main, ["train", "--config", str(again),
                                  "--out", str(tmp_path / "second")])
    assert result.exit_code == 0, result.output
    rms = [[row[1] for row in read_csv(tmp_path / run / "epochs.csv")]
           for run in ("first", "second")]
    assert rms[0] == rms[1] and len(rms[0]) == 1 + 3


@pytest.mark.parametrize("mode", ["rl", "backprop", "circuit"])
def test_config_template_trains(runner, tmp_path, mode):
    template = tmp_path / "template.json"
    assert runner.invoke(main, ["export", "--config-template", mode,
                                "--out", str(template)]).exit_code == 0
    result = runner.invoke(main, ["train", "--config", str(template),
                                  "--out", str(tmp_path / "run"),
                                  "--epochs", "0"])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"] == {**json.loads(template.read_text()),
                                  "epochs": 0}


# Every mode's resolved defaults, written out: moving a default (a family's
# basis size, `tied` or `init`, a loop's rates or perturbations) shows here.
COMMON_DEFAULTS = {"num_qubits": 2, "steps": 200, "epochs": 2000, "seed": 0,
                   "n_max": 3, "segments": 4, "shots": "exact", "p_dep": 0.0,
                   "p_ro": 0.0, "rms_target": None, "trace_every": 200,
                   "initial_schedule": None}
CONTINUUM_DEFAULTS = {
    **COMMON_DEFAULTS, "T_ns": 250.0, "tied": True,
    "init": {"tunneling": 0.0025, "bias": 0.0001, "coupling": 0.0001},
    "learning_rates": {"tunneling": 2e-07, "bias": 0.0, "coupling": 4e-07},
    "delta_rel": 0.0002,
    "delta_abs": {"tunneling": 5.000000000000001e-07, "bias": 2e-08,
                  "coupling": 2e-08}}
RESOLVED_DEFAULTS = {
    "rl": {**CONTINUUM_DEFAULTS, "mode": "rl"},
    "backprop": {**CONTINUUM_DEFAULTS, "mode": "backprop"},
    "circuit": {
        **COMMON_DEFAULTS, "mode": "circuit", "T_ns": 2.0, "tied": False,
        "init": {"tunneling": 0.002, "bias": 0.0001, "coupling": 0.0001},
        "learning_rates": {"tunneling": 0.01, "bias": 0.001, "coupling": 0.001},
        "delta_rel": 0.05,
        "delta_abs": {"tunneling": 0.01, "bias": 0.001, "coupling": 0.001}},
}


@pytest.mark.parametrize("mode", sorted(RESOLVED_DEFAULTS))
def test_resolved_defaults_are_pinned(mode):
    assert RunConfig(mode=mode).resolved() == RESOLVED_DEFAULTS[mode]


@pytest.mark.parametrize("mode", sorted(RESOLVED_DEFAULTS))
def test_config_builds_the_run_once(mode):
    cfg = RunConfig(mode=mode, steps=10, shots=8192, epochs=5)
    assert cfg.grid == qcore.TimeGrid(cfg.T_ns, 10)
    assert cfg.backend == ShotBackend(shots=8192)
    assert (cfg.loop.epochs, cfg.loop.learning_rates, cfg.loop.delta_rel,
            cfg.loop.delta_abs) == (5, cfg.learning_rates, cfg.delta_rel,
                                    cfg.delta_abs)
    assert cfg.schedule.T == cfg.T_ns and cfg.schedule.tied == cfg.tied
    # The built objects are attributes, not fields of the resolved record.
    assert not {"grid", "loop", "backend", "schedule"} & set(cfg.resolved())


@pytest.mark.parametrize("mode", sorted(RESOLVED_DEFAULTS))
@pytest.mark.parametrize("field,value", [
    ("steps", 0), ("T_ns", -5.0), ("shots", 0), ("p_ro", 2.0), ("p_dep", -1.0),
])
def test_config_checks_every_field_when_built(mode, field, value):
    # Each field is checked when the config is built, in every mode, by the
    # constructor that takes it (the grid, the schedule, the shot backend).
    with pytest.raises(ConfigError, match=field):
        RunConfig(mode=mode, **{field: value})


def test_loop_fields_are_checked_once_by_the_loop_config():
    with pytest.raises(ValueError) as loop_error:
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError) as run_error:
        RunConfig(epochs=-1)
    assert str(run_error.value) == str(loop_error.value)


def test_readme_config_block_names_every_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config file", 1)[1]
    block = block.split("```json\n", 1)[1].split("```", 1)[0]
    data = json.loads(block)
    RunConfig.from_dict(data)
    assert set(data) == set(RunConfig.__dataclass_fields__)


def test_export_schedule_trace(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", epochs=0)
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    trace = tmp_path / "trace.csv"
    result = runner.invoke(main, ["export", "--schedule",
                                  str(out / "schedule.json"),
                                  "--out", str(trace), "--steps", "10"])
    assert result.exit_code == 0
    rows = read_csv(trace)
    assert rows[0][:2] == ["epoch", "t_ns"]
    assert len(rows) == 1 + 11
    assert all(np.isfinite([float(cell) for cell in row]).all()
               for row in rows[1:])


def test_export_requires_exactly_one_source(runner, tmp_path):
    result = runner.invoke(main, ["export", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    result = runner.invoke(main, ["export", "--schedule", "a",
                                  "--config-template", "rl",
                                  "--out", str(tmp_path / "x")])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["train", "eval", "stage", "export"])
def test_output_that_cannot_be_written_exits_1_in_one_line(runner, tmp_path,
                                                           command):
    schedule = tmp_path / "schedule.json"
    save_schedule(FourierSchedule.initialized(2, 250.0), schedule)
    existing_file = tmp_path / "file"
    existing_file.write_text("")
    missing = str(tmp_path / "missing" / "out")
    args = {"train": ["train", "--config",
                      str(write_config(tmp_path / "cfg.json", epochs=0)),
                      "--out", str(existing_file)],
            "eval": ["eval", "--schedule", str(schedule), "--steps", "10",
                     "--out", missing],
            "stage": ["stage", str(schedule), missing],
            "export": ["export", "--config-template", "rl", "--out", missing]}
    result = runner.invoke(main, args[command])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: cannot write output")
    assert len(result.output.splitlines()) == 1


def test_manifest_records_the_environment(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = write_config(tmp_path / "cfg.json", epochs=0)
    assert runner.invoke(main, ["train", "--config", str(cfg),
                                "--out", str(tmp_path / "run")]).exit_code == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    env = manifest["environment"]
    assert set(env) == {"qdynlearn", "python", "numpy", "blas",
                        "blas_version", "cpu_count", "blas_threads"}
    assert (env["qdynlearn"], env["python"], env["numpy"], env["cpu_count"]) == (
        qdynlearn.__version__, platform.python_version(), np.__version__,
        os.cpu_count())
    assert set(env["blas_threads"]) == set(reporting.BLAS_THREAD_VARS)
    # A missing value is null, not a sentinel.
    assert env["blas_threads"]["OMP_NUM_THREADS"] == "1"
    assert env["blas_threads"]["MKL_NUM_THREADS"] is None


@pytest.mark.parametrize("mode", ["rl", "circuit"])
def test_setup_only_run_never_imports_numpy_random(tmp_path, mode):
    # The shot generator is built on its first draw, so a run that never
    # samples never pays for importing numpy.random; nor does the manifest's
    # environment record pay for importing importlib.metadata.
    cfg = write_config(tmp_path / "cfg.json", mode=mode, shots=8192)
    code = ("import sys\n"
            "from qdynlearn.cli import main\n"
            "main(sys.argv[1:], standalone_mode=False)\n"
            "print('numpy.random' in sys.modules,"
            " 'importlib.metadata' in sys.modules)\n")
    src = str(Path(qcore.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code, "train", "--config", str(cfg),
         "--out", str(tmp_path / "run"), "--epochs", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False False"
