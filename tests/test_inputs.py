"""One input contract for every number a constructor takes.

`qcore.is_integer` and `qcore.is_real` decide whether a scalar is an integer
or a real number: a Python or numpy value, never a bool.  Every constructor
keeps its own range test, error type and field name on top of that rule, so
a bool, a string or None raises its ValueError (a `ScheduleError` for a
schedule) naming the field, never a TypeError, and a numpy scalar of the
field's kind is accepted.
"""

import math
import re

import numpy as np
import pytest

from qdynlearn import qcore
from qdynlearn.circuit import ShotBackend
from qdynlearn.qcore import TimeGrid
from qdynlearn.rl import RLConfig
from qdynlearn.schedules import (
    FourierSchedule,
    PiecewiseSchedule,
    ScheduleError,
    load_schedule,
    save_schedule,
)
from qdynlearn.train import TrainConfig
from qdynlearn.witness import TrainingPair

ZERO_ZERO = qcore.DensityMatrix.from_state_vector([1, 0, 0, 0])

# "<constructor> <field>" -> (a call that passes one value to that field,
# kind, a whole in-range value, an out-of-range value, error type, whether
# None is accepted).  The error names the field.  The in-range value is a
# whole number, so np.int64 of it is in range for a real field too.
FIELDS = {
    "check_num_qubits num_qubits":
        (qcore.check_num_qubits, "int", 3, 7, ValueError, False),
    "TimeGrid T":
        (lambda v: TimeGrid(v, 10), "real", 250, 0.0, ValueError, False),
    "TimeGrid steps":
        (lambda v: TimeGrid(1.0, v), "int", 10, 0, ValueError, False),
    "schedule num_qubits":
        (lambda v: FourierSchedule.initialized(v, 250.0), "int", 2, 0,
         ScheduleError, False),
    "untied schedule num_qubits":
        (lambda v: PiecewiseSchedule.initialized(v, 2.0), "int", 2, 0,
         ScheduleError, False),
    "schedule T_ns":
        (lambda v: FourierSchedule.initialized(2, v), "real", 250, -1.0,
         ScheduleError, False),
    "schedule n_max":
        (lambda v: FourierSchedule.initialized(2, 250.0, n_max=v), "int", 2,
         -1, ScheduleError, False),
    "schedule segments":
        (lambda v: PiecewiseSchedule.initialized(2, 2.0, segments=v), "int",
         4, 0, ScheduleError, False),
    "TrainConfig epochs":
        (lambda v: TrainConfig(epochs=v), "int", 3, -1, ValueError, False),
    "TrainConfig rms_target":
        (lambda v: TrainConfig(rms_target=v), "real", 0, -0.1, ValueError,
         True),
    "TrainConfig learning_rates.tunneling":
        (lambda v: TrainConfig(learning_rates={"tunneling": v}), "real", 0,
         -1e-7, ValueError, False),
    "RLConfig delta_rel":
        (lambda v: RLConfig(delta_rel=v), "real", 1, 0.0, ValueError, False),
    "RLConfig delta_abs":
        (lambda v: RLConfig(delta_abs={"tunneling": v, "bias": 2e-8,
                                       "coupling": 2e-8}),
         "real", 1, 0.0, ValueError, False),
    "ShotBackend shots":
        (lambda v: ShotBackend(shots=v), "int", 8192, 0, ValueError, True),
    "ShotBackend seed":
        (lambda v: ShotBackend(seed=v), "int", 1, -1, ValueError, False),
    "ShotBackend p_dep":
        (lambda v: ShotBackend(p_dep=v), "real", 1, 1.5, ValueError, False),
    "ShotBackend p_ro":
        (lambda v: ShotBackend(p_ro=v), "real", 0, -0.5, ValueError, False),
    "TrainingPair target":
        (lambda v: TrainingPair(ZERO_ZERO, v), "real", 1, 1.5, ValueError,
         False),
}

# probe -> (value from the field's row, accepted for an integer field,
# accepted for a real field); None is accepted where the row says so.
PROBES = {
    "int": (lambda valid, bad: valid, True, True),
    "np.int64": (lambda valid, bad: np.int64(valid), True, True),
    "np.float64": (lambda valid, bad: np.float64(valid), False, True),
    "np.float32": (lambda valid, bad: np.float32(valid), False, True),
    "True": (lambda valid, bad: True, False, False),
    "False": (lambda valid, bad: False, False, False),
    "np.bool_": (lambda valid, bad: np.bool_(True), False, False),
    "str": (lambda valid, bad: "x", False, False),
    "numeric str": (lambda valid, bad: str(valid), False, False),
    "None": (lambda valid, bad: None, False, False),
    "nan": (lambda valid, bad: math.nan, False, False),
    "inf": (lambda valid, bad: math.inf, False, False),
    "-inf": (lambda valid, bad: -math.inf, False, False),
    "np.nan": (lambda valid, bad: np.float64("nan"), False, False),
    "out of range": (lambda valid, bad: bad, False, False),
}


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("name", FIELDS)
def test_number_fields_follow_one_rule(name, probe):
    build, kind, valid, bad, error, none_ok = FIELDS[name]
    make, int_ok, real_ok = PROBES[probe]
    value = make(valid, bad)
    if (int_ok if kind == "int" else real_ok) or (probe == "None" and none_ok):
        build(value)
        return
    with pytest.raises(error, match=re.escape(name.split()[-1])) as caught:
        build(value)
    assert not isinstance(caught.value, TypeError)


@pytest.mark.parametrize("schedule", [
    lambda: FourierSchedule.initialized(np.int64(3), np.float32(250.0),
                                        n_max=np.int64(2)),
    lambda: PiecewiseSchedule.initialized(np.int64(3), np.float64(2.0),
                                          segments=np.int64(4)),
], ids=["fourier", "piecewise"])
def test_schedule_of_numpy_scalars_saves_and_reloads_equal(tmp_path,
                                                          schedule):
    sched = schedule()
    assert type(sched.num_qubits) is int and type(sched.size) is int
    assert type(sched.T) is float
    save_schedule(sched, tmp_path / "schedule.json")
    back = load_schedule(tmp_path / "schedule.json")
    assert back.to_dict() == sched.to_dict()
    assert np.array_equal(back.params, sched.params)
