"""The shared epoch loop, driven by a stub epoch with scripted RMS values."""

import numpy as np
import pytest

from qdynlearn.schedules import FourierSchedule
from qdynlearn.train import TrainConfig, TrainingDiverged, run_epochs

PAIRS = ["pair"]  # run_epochs only checks that the set is non-empty


def scripted_epoch(values):
    """An epoch that nudges one coefficient and returns the next RMS."""
    script = iter(values)

    def epoch(schedule):
        schedule.coeffs["tunneling"][0, 0] += 1.0
        return next(script)

    return epoch


def test_stops_at_rms_target():
    sched = FourierSchedule.initialized(2, 10.0)
    cfg = TrainConfig(epochs=10, rms_target=0.1)
    trained, log = run_epochs(PAIRS, sched, cfg,
                              scripted_epoch([0.5, 0.3, 0.1, 0.05]))
    assert list(log.rms) == [0.5, 0.3, 0.1]
    assert list(log.epochs) == [0, 1, 2]
    assert trained.coeffs["tunneling"][0, 0] == sched.coeffs["tunneling"][0, 0] + 3


def test_runs_all_epochs_without_target():
    cfg = TrainConfig(epochs=3)
    _, log = run_epochs(PAIRS, FourierSchedule.initialized(2, 10.0), cfg,
                        scripted_epoch([0.5, 0.4, 0.3, 0.2]))
    assert list(log.rms) == [0.5, 0.4, 0.3]


def test_divergence_raises_with_the_log():
    cfg = TrainConfig(epochs=10)
    sched = FourierSchedule.initialized(2, 10.0)
    with pytest.raises(TrainingDiverged) as exc:
        run_epochs(PAIRS, sched, cfg,
                   scripted_epoch([0.1, 0.5, 0.9, 1.01, 0.2]))
    assert list(exc.value.log.rms) == [0.1, 0.5, 0.9, 1.01]
    # the schedule as it stood before the failing epoch (three updates in)
    assert (exc.value.schedule.coeffs["tunneling"][0, 0]
            == sched.coeffs["tunneling"][0, 0] + 3)


@pytest.mark.parametrize("values", [[0.2, np.nan], [np.nan], [0.2, np.inf]])
def test_non_finite_rms_raises_with_the_schedule_before_it(values):
    sched = FourierSchedule.initialized(2, 10.0)
    with pytest.raises(TrainingDiverged) as exc:
        run_epochs(PAIRS, sched, TrainConfig(epochs=5),
                   scripted_epoch(values + [0.1, 0.1, 0.1]))
    np.testing.assert_array_equal(exc.value.log.rms, values)
    assert (exc.value.schedule.coeffs["tunneling"][0, 0]
            == sched.coeffs["tunneling"][0, 0] + (len(values) - 1))


def test_overflow_inside_an_epoch_raises_with_the_schedule_before_it():
    # Coefficients that blow up between two solves of one epoch: numpy's
    # overflow is an error inside an epoch, not a warning, and the run stops
    # as divergence, with the log so far and the schedule before the epoch.
    script = iter([2.0**500, 2.0**600])

    def epoch(schedule):
        schedule.params[0] = next(script)
        return float(schedule.params[0] ** 2 * 2.0**-1000)  # 1, then overflow

    sched = FourierSchedule.initialized(2, 10.0)
    with pytest.raises(TrainingDiverged, match="epoch 1: overflow") as exc:
        run_epochs(PAIRS, sched, TrainConfig(epochs=3), epoch)
    assert list(exc.value.log.rms) == [1.0]
    assert exc.value.schedule.params[0] == 2.0**500
    assert np.array_equal(exc.value.schedule.params[1:], sched.params[1:])


def test_callback_once_per_epoch_with_the_working_copy():
    seen = []
    sched = FourierSchedule.initialized(2, 10.0)
    cfg = TrainConfig(epochs=3, epoch_callback=lambda epoch, rms, s: seen.append(
        (epoch, rms, s.coeffs["tunneling"][0, 0])))
    run_epochs(PAIRS, sched, cfg, scripted_epoch([0.3, 0.2, 0.1]))
    base = sched.coeffs["tunneling"][0, 0]
    assert seen == [(0, 0.3, base + 1), (1, 0.2, base + 2), (2, 0.1, base + 3)]


def test_input_schedule_not_mutated():
    sched = FourierSchedule.initialized(2, 10.0)
    before = {k: c.copy() for k, c in sched.coeffs.items()}
    run_epochs(PAIRS, sched, TrainConfig(epochs=4),
               scripted_epoch([0.4, 0.3, 0.2, 0.1]))
    for kind, c in before.items():
        assert np.array_equal(sched.coeffs[kind], c)


def test_empty_training_set_raises():
    with pytest.raises(ValueError):
        run_epochs([], FourierSchedule.initialized(2, 10.0),
                   TrainConfig(epochs=1), scripted_epoch([0.1]))


def test_negative_learning_rate_rejected():
    with pytest.raises(ValueError):
        TrainConfig(learning_rates={"tunneling": -1.0})


@pytest.mark.parametrize("rates", [{"tunelling": 1e-7}, {"bias": True},
                                   {"coupling": None}])
def test_unknown_kind_or_non_number_rate_rejected(rates):
    # per_index reads a kind it does not find as rate 0: a misspelt kind
    # would leave its coefficients untrained without a word.
    with pytest.raises(ValueError, match="learning_rates."):
        TrainConfig(learning_rates=rates)


@pytest.mark.parametrize("field, value", [
    ("epochs", -1), ("epochs", True), ("epochs", 1.5), ("epochs", "3"),
    ("rms_target", -1.0), ("rms_target", float("nan")),
    ("rms_target", float("inf")), ("rms_target", True)])
def test_epochs_and_rms_target_are_checked(field, value):
    # epochs=-1 would run no epoch and True one, without a word, and an
    # rms_target of -1.0 would never be reached.
    with pytest.raises(ValueError, match=f"{field} must be"):
        TrainConfig(**{field: value})
    cfg = TrainConfig(epochs=np.int64(3), rms_target=0)
    assert (cfg.epochs, cfg.rms_target) == (3, 0)
