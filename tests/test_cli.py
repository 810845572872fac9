"""End-to-end CLI: artifacts, exit codes, reproducibility."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qdynlearn.cli import main
from qdynlearn.config import RunConfig
from qdynlearn.schedules import load_schedule


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


def test_train_mismatched_initial_schedule_exits_2(runner, tmp_path):
    out = tmp_path / "init"
    runner.invoke(main, ["train", "--config",
                         str(write_config(tmp_path / "a.json", epochs=0)),
                         "--out", str(out)])
    cfg = write_config(tmp_path / "b.json", num_qubits=3,
                       initial_schedule=str(out / "schedule.json"))
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert "initial schedule has 2 qubits" in result.output


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


def test_train_zero_epochs_writes_initial_artifacts(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", epochs=0)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0
    assert len(read_csv(out / "epochs.csv")) == 1  # header only
    assert (out / "schedule.json").exists()
    assert "epochs = 0" in result.output


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


@pytest.mark.parametrize("args", [
    # a bare amplitude list in place of a list of states
    ["eval", "--schedule", "{two}", "--states", "{amplitudes}"],
    ["eval", "--schedule", "{two}", "--states", "{missing}"],
    ["eval", "--schedule", "{garbage}"],
    ["eval", "--schedule", "{two}", "--steps", "0"],
    # a 2-qubit preset against a 3-qubit schedule
    ["eval", "--schedule", "{three}", "--states", "{bell}"],
    ["eval", "--schedule", "{two}", "--states", "{infinite}"],
    ["export", "--schedule", "{garbage}"],
    ["export", "--schedule", "{two}", "--steps", "0"],
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
             "missing": tmp_path / "missing.json"}
    files["amplitudes"].write_text("[0.5, 0.5, 0.5, 0.5]")
    files["bell"].write_text('["bell"]')
    files["infinite"].write_text("[[Infinity, 0, 0, 1]]")
    files["garbage"].write_text("{not json")
    result = runner.invoke(main, [a.format(**files) for a in args]
                           + ["--out", str(tmp_path / "out.csv")])
    assert result.exit_code == 2, result.output


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


def test_export_requires_exactly_one_source(runner, tmp_path):
    result = runner.invoke(main, ["export", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    result = runner.invoke(main, ["export", "--schedule", "a",
                                  "--config-template", "rl",
                                  "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
