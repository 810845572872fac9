"""Hybrid finite-difference reinforcement learning.

Per training pair: evaluate the pair's nominal error once, then perturb each
trainable coefficient by a small amount in turn, rerun the system and form
the one-sided difference quotient of the error against that nominal value
(1 + n solves of `qcore.propagate` for n coefficients).  Every quotient is
taken against the unmodified schedule; the gradient-descent steps are
applied together once the pair's sweep is done.  One pass over every
training pair is an epoch.  No backward pass is needed, which is what makes
the same loop runnable against hardware-style (shot-sampled) evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import TimeGrid, is_real
from .schedules import KIND_ORDER, FourierSchedule, list_trainable
from .train import TrainConfig, check_kinds, descend, run_epochs
from .witness import TrainingPair


@dataclass
class RLConfig(TrainConfig):
    """Perturbation sizes on top of the shared loop fields."""

    delta_rel: float = 2e-4  # 0.02 % of the current value
    # Default perturbation floor: delta_rel times each kind's Fourier
    # initialization scale, so zero-initialized sine/cosine coefficients
    # still receive a nonzero perturbation.
    delta_abs: dict | None = None

    def __post_init__(self):
        super().__post_init__()
        if not (is_real(self.delta_rel) and 0 < self.delta_rel < math.inf):
            raise ValueError(f"delta_rel must be positive and finite, "
                             f"got {self.delta_rel!r}")
        if self.delta_abs is None:
            self.delta_abs = {k: self.delta_rel * s
                              for k, s in FourierSchedule.INIT.items()}
        check_kinds("delta_abs", self.delta_abs)
        if (self.delta_abs.keys() != {*KIND_ORDER}
                or not all(0 < v < math.inf for v in self.delta_abs.values())):
            raise ValueError("delta_abs needs one positive, finite entry per kind")

    def perturbation(self, value, floor):
        """Perturbation size max(delta_rel |value|, floor), elementwise."""
        return np.maximum(self.delta_rel * np.abs(value), floor)


def pair_error(pair: TrainingPair, schedule, grid: TimeGrid) -> float:
    """Half-squared output error E = (d - output)^2 / 2 for one pair."""
    qcore._tick_solve()
    f = qcore.propagate(schedule, grid, pair.rho0.factor)
    out = qcore.output_value(qcore.populations(f))
    return 0.5 * (pair.target - out) ** 2


def fd_gradient(i, schedule, error_fn, e_nom: float, delta: float) -> float:
    """One-sided difference quotient (E_mod - E_nom) / delta of `params[i]`.

    `error_fn(schedule)` is the error being descended and `e_nom` its value
    at the unmodified schedule.  The schedule is restored bit-identically.
    """
    params = schedule.params
    value = params[i]
    try:
        params[i] = value + delta
        e_mod = error_fn(schedule)
    finally:
        params[i] = value
    return (e_mod - e_nom) / delta


def train_rl_epoch(pairs, schedule, config: RLConfig, grid: TimeGrid):
    """One epoch of deferred per-pair finite-difference updates.

    Mutates the schedule in place.  Returns the epoch RMS,
    sqrt(mean (d - output)^2), from each pair's nominal evaluation.
    """
    rates = schedule.per_index(config.learning_rates)
    idx = list_trainable(schedule, config.learning_rates)
    floors = schedule.per_index(config.delta_abs)[idx]
    sq_errors = []
    for pair in pairs:
        def error_fn(s):
            return pair_error(pair, s, grid)

        e_nom = error_fn(schedule)
        sq_errors.append(2.0 * e_nom)
        deltas = config.perturbation(schedule.params[idx], floors)
        grads = [fd_gradient(i, schedule, error_fn, e_nom, delta)
                 for i, delta in zip(idx, deltas)]
        descend(schedule, idx, grads, rates)
    return float(np.sqrt(np.mean(sq_errors)))


def train_rl(pairs, schedule, config: RLConfig, grid: TimeGrid):
    """Full RL training run; returns (trained schedule, EpochLog)."""
    return run_epochs(pairs, schedule, config,
                      lambda s: train_rl_epoch(pairs, s, config, grid))
