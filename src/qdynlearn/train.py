"""The training loop shared by every mode.

Adjoint backprop, per-pair finite-difference RL and whole-set circuit RL
differ only in how one epoch updates the schedule and estimates its RMS.
Each mode supplies that as an `epoch(schedule) -> rms` function; `run_epochs`
owns everything around it: the working copy, the per-epoch log, the
divergence guard, the callback and the early stop.  An epoch runs with
numpy's overflow and invalid-operation errors raised, so coefficients that
blow up between two solves of one epoch stop the run as divergence too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import is_integer, is_real
from .reporting import EpochLog
from .schedules import KIND_ORDER, check_keys

# The guard fires once an epoch's RMS exceeds this multiple of the first
# epoch's RMS.
DIVERGENCE_FACTOR = 10.0


def check_kinds(name, values, error=ValueError):
    """Raise `error` unless every key of the per-kind dict `values` is a kind
    of KIND_ORDER and every value a real number, not a bool."""
    check_keys(values, KIND_ORDER, (), error, f"{name}.")
    for kind, value in values.items():
        if not is_real(value):
            raise error(f"{name}.{kind} must be float, got {value!r}")


class TrainingDiverged(RuntimeError):
    """Raised when an epoch overflows or its RMS is non-finite or over the guard.

    Carries the log and the schedule as it stood before the failing epoch."""

    def __init__(self, message, log=None, schedule=None):
        super().__init__(message)
        self.log = log
        self.schedule = schedule


@dataclass
class TrainConfig:
    """Loop fields shared by every training mode: `epochs` an integer >= 0,
    `rms_target` and each learning rate a real number >= 0, never a bool
    (`qcore.is_integer`, `is_real`)."""

    learning_rates: dict = field(
        default_factory=lambda: {"tunneling": 2e-7, "bias": 0.0, "coupling": 4e-7}
    )
    epochs: int = 2000
    rms_target: float | None = None  # stop early once reached
    epoch_callback: object = None  # callable(epoch, rms, schedule)

    def __post_init__(self):
        check_kinds("learning_rates", self.learning_rates)
        for kind, rate in self.learning_rates.items():
            if not 0 <= rate < math.inf:
                raise ValueError(f"learning_rates.{kind} must be finite and >= 0")
        if not is_integer(self.epochs) or self.epochs < 0:
            raise ValueError(f"epochs must be an integer >= 0, "
                             f"got {self.epochs!r}")
        if self.rms_target is not None and not (
                is_real(self.rms_target) and 0 <= self.rms_target < math.inf):
            raise ValueError(f"rms_target must be finite and >= 0 (or None), "
                             f"got {self.rms_target!r}")


def descend(schedule, idx, grads, rates):
    """One descent step on `schedule.params[idx]`; `rates` is per coefficient."""
    schedule.params[idx] -= rates[idx] * grads


def run_epochs(pairs, schedule, config: TrainConfig, epoch):
    """Train a copy of `schedule`; returns (trained schedule, EpochLog).

    `epoch(schedule)` runs one epoch on the working copy, updating it in
    place, and returns that epoch's RMS error.  The input schedule is left
    untouched.
    """
    if not pairs:
        raise ValueError("empty training set")
    schedule = schedule.copy()
    log = EpochLog()
    rms_limit = None
    for n in range(config.epochs):
        before = schedule.copy()
        try:
            with np.errstate(over="raise", invalid="raise"):
                rms = epoch(schedule)
        except FloatingPointError as exc:
            raise TrainingDiverged(f"epoch {n}: {exc}", log=log,
                                   schedule=before) from exc
        log.append(n, rms)
        if rms_limit is None:
            rms_limit = DIVERGENCE_FACTOR * max(rms, 1e-12)
        if not math.isfinite(rms) or rms > rms_limit:
            raise TrainingDiverged(f"RMS {rms:.4g} at epoch {n} is non-finite or over "
                                   f"{DIVERGENCE_FACTOR}x its initial value",
                                   log=log, schedule=before)
        if config.epoch_callback is not None:
            config.epoch_callback(n, rms, schedule)
        if config.rms_target is not None and rms <= config.rms_target:
            break
    return schedule, log
