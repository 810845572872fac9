"""One reader for every input file.

Config, schedule and states files are all parsed by `schedules.read_json`
and their objects key-checked by `schedules.check_keys`.  Each defect below
exits 2 with one `Error:` line that names the file and what is wrong with
it: the key where there is one, else the value or the JSON error.
"""

import json

import pytest
from click.testing import CliRunner

from qdynlearn.cli import main
from qdynlearn.config import RunConfig
from qdynlearn.schedules import FourierSchedule, read_json

CONFIG = {"mode": "rl", "num_qubits": 2, "T_ns": 250.0, "steps": 20,
          "epochs": 0}


def _schedule():
    return FourierSchedule.initialized(2, 250.0).to_dict()


def _without(data, *path):
    *parents, key = path
    for name in parents:
        data = data[name]
    del data[key]


def _edited(edit):
    """JSON text of a saved schedule after `edit` changes it in place."""
    data = _schedule()
    edit(data)
    return json.dumps(data)


def _duplicated(text, key):
    """`text` with the first `"key": value` pair written twice."""
    start = text.index(f'"{key}"')
    end = text.index(",", start) + 1
    return text[:end] + " " + text[start:]


# defect -> (file text, what the Error line names besides the file)
CONFIG_DEFECTS = {
    "unknown key": (json.dumps({**CONFIG, "epoch": 5}), "epoch"),
    "non-object": (json.dumps([CONFIG]), "JSON object"),
    "NaN": (json.dumps(CONFIG)[:-1] + ', "delta_rel": NaN}', "NaN"),
    "Infinity": (json.dumps(CONFIG).replace("250.0", "Infinity"), "Infinity"),
    "truncated": (json.dumps(CONFIG)[:-7], "not valid JSON"),
    # the later value would win without a word: 0 epochs run, not 5
    "duplicate key": (json.dumps({**CONFIG, "epochs": 5})[:-1]
                      + ', "epochs": 0}', "epochs"),
    # an integer that float() cannot hold would end in an OverflowError
    "integer beyond floats": (json.dumps({**CONFIG, "T_ns": 10**400}),
                              "non-finite number"),
}

SCHEDULE_DEFECTS = {
    "missing tied": (_edited(lambda d: _without(d, "tied")), "tied"),
    "missing bias": (_edited(lambda d: _without(d, "coefficients", "bias")),
                     "coefficients.bias"),
    "missing size": (_edited(lambda d: _without(d, "n_max")), "n_max"),
    "unknown key": (_edited(lambda d: d.update(segments=4)), "segments"),
    "non-object": ("[1, 2]", "JSON object"),
    "coefficients non-object": (_edited(lambda d: d.update(coefficients=[1])),
                                "coefficients"),
    "mode a list": (_edited(lambda d: d.update(mode=["x"])), "mode"),
    "NaN": (json.dumps(_schedule()).replace("0.0025", "NaN"), "NaN"),
    "truncated": (json.dumps(_schedule())[:-2], "not valid JSON"),
    "duplicate key": (_duplicated(json.dumps(_schedule()), "T_ns"), "T_ns"),
    "ragged": (_edited(lambda d: d["coefficients"].update(
        tunneling=[[1.0, 2.0], [3.0]])), "tunneling"),
    "integer beyond floats": (_edited(lambda d: d.update(T_ns=10**400)),
                              "non-finite number"),
    # null would otherwise load as the family's default tie
    "tied null": (_edited(lambda d: d.update(tied=None)), "tied"),
}

STATES_DEFECTS = {
    "no amplitudes": (json.dumps([{"label": "x"}]), "state_0.amplitudes"),
    "unknown key": (json.dumps(["bell", {"amplitudes": [1, 0, 0, 0],
                                         "lable": "x"}]), "state_1.lable"),
    "Infinity": ("[[Infinity, 0, 0, 1]]", "Infinity"),
    "truncated": ('["bell"', "not valid JSON"),
    "duplicate key": ('[{"amplitudes": [1, 0, 0, 0], '
                      '"amplitudes": [0, 0, 0, 1]}]', "amplitudes"),
    # a label that is not a string would be written to report.csv as text
    **{f"{kind} label": (json.dumps([{"amplitudes": [1, 0, 0, 0],
                                      "label": label}]), "state_0.label")
       for kind, label in (("object", {"a": [1, 2]}), ("null", None),
                           ("number", 3))},
}


def _one_error_line(result, *names):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    for name in names:
        assert name in errors[0], errors[0]


@pytest.mark.parametrize("defect", CONFIG_DEFECTS)
def test_bad_config_file_exits_2_naming_file_and_key(tmp_path, defect):
    text, name = CONFIG_DEFECTS[defect]
    path = tmp_path / "config.json"
    path.write_text(text)
    result = CliRunner().invoke(main, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "run")])
    _one_error_line(result, str(path), name)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("route", ["eval --schedule", "initial_schedule"])
@pytest.mark.parametrize("defect", SCHEDULE_DEFECTS)
def test_bad_schedule_file_exits_2_naming_file_and_key(tmp_path, defect,
                                                       route):
    text, name = SCHEDULE_DEFECTS[defect]
    path = tmp_path / "schedule.json"
    path.write_text(text)
    if route == "eval --schedule":
        args = ["eval", "--schedule", str(path),
                "--out", str(tmp_path / "report.csv")]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**CONFIG, "initial_schedule": str(path)}))
        args = ["train", "--config", str(config),
                "--out", str(tmp_path / "run")]
    _one_error_line(CliRunner().invoke(main, args), str(path), name)


@pytest.mark.parametrize("defect", STATES_DEFECTS)
def test_bad_states_file_exits_2_naming_file_and_key(tmp_path, defect):
    text, name = STATES_DEFECTS[defect]
    schedule, states = tmp_path / "schedule.json", tmp_path / "states.json"
    schedule.write_text(json.dumps(_schedule()))
    states.write_text(text)
    result = CliRunner().invoke(main, [
        "eval", "--schedule", str(schedule), "--states", str(states),
        "--out", str(tmp_path / "report.csv"), "--steps", "10"])
    _one_error_line(result, str(states), name)


def test_each_defect_is_one_edit_of_a_file_that_loads(tmp_path):
    # The defects are single edits: the unedited files train and evaluate.
    config, schedule = tmp_path / "config.json", tmp_path / "schedule.json"
    states = tmp_path / "states.json"
    schedule.write_text(json.dumps(_schedule()))
    config.write_text(json.dumps({**CONFIG, "initial_schedule": str(schedule)}))
    states.write_text(json.dumps(["bell", {"amplitudes": [1, 0, 0, 0],
                                           "label": "x"}]))
    runner = CliRunner()
    result = runner.invoke(main, ["train", "--config", str(config),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [
        "eval", "--schedule", str(schedule), "--states", str(states),
        "--out", str(tmp_path / "report.csv"), "--steps", "10"])
    assert result.exit_code == 0, result.output


def test_integers_in_the_float_range_load(tmp_path):
    # The reader refuses only integers float() cannot hold; the largest
    # shot count keeps every digit.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIG, "mode": "circuit",
                                "shots": 2**63 - 1}))
    run = read_json(path, ValueError, RunConfig.from_dict)
    assert run.shots == run.backend.shots == 2**63 - 1
