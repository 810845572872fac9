"""Hybrid finite-difference reinforcement learning.

Per training pair: evaluate the pair's nominal error once, then perturb each
trainable coefficient by a small amount in turn, rerun the system and form
the one-sided difference quotient of the error against that nominal value
(1 + n solves for n coefficients).  Every quotient is taken against the
unmodified schedule; the gradient-descent steps are applied together once
the pair's sweep is done.  One pass over every training pair is an epoch.
No backward pass is needed, which is what makes the same loop runnable
against hardware-style (shot-sampled) evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .qcore import Observable, OutputMap, TimeGrid
from .schedules import CoefficientId, FourierSchedule, list_trainable
from .train import TrainConfig, descend, run_epochs
from .witness import TrainingPair


@dataclass
class RLConfig(TrainConfig):
    """Perturbation sizes on top of the shared loop fields."""

    delta_rel: float = 2e-4  # 0.02 % of the current value
    # The default perturbation floor is the default delta_rel times each
    # kind's Fourier initialization scale, so zero-initialized sine/cosine
    # coefficients still receive a nonzero perturbation.
    delta_abs: dict = field(
        default_factory=lambda: {k: RLConfig.delta_rel * s
                                 for k, s in FourierSchedule.INIT.items()}
    )

    def __post_init__(self):
        super().__post_init__()
        if self.delta_rel <= 0:
            raise ValueError("delta_rel must be positive")
        if any(v <= 0 for v in self.delta_abs.values()):
            raise ValueError("delta_abs entries must be positive")

    def perturbation(self, kind, value):
        return max(self.delta_rel * abs(value), self.delta_abs[kind])


def pair_error(pair: TrainingPair, schedule, observable: Observable,
               output_map: OutputMap, grid: TimeGrid) -> float:
    """Half-squared output error E = (d - output)^2 / 2 for one pair."""
    out = qcore.output_value(qcore.final_state(pair.rho0, schedule, grid),
                             observable, output_map)
    return 0.5 * (pair.target - out) ** 2


def fd_gradient(cid: CoefficientId, schedule, error_fn, e_nom: float,
                config: RLConfig) -> float:
    """One-sided difference quotient (E_mod - E_nom) / delta of one coefficient.

    `error_fn(schedule)` is the error being descended and `e_nom` its value
    at the unmodified schedule.  The schedule is restored bit-identically.
    """
    value = schedule.get(cid)
    delta = config.perturbation(cid.kind, value)
    try:
        schedule.set(cid, value + delta)
        e_mod = error_fn(schedule)
    finally:
        schedule.set(cid, value)
    return (e_mod - e_nom) / delta


def train_rl_epoch(pairs, schedule, config: RLConfig, observable: Observable,
                   output_map: OutputMap, grid: TimeGrid):
    """One epoch of deferred per-pair finite-difference updates.

    Mutates the schedule in place.  Returns the epoch RMS,
    sqrt(mean (d - output)^2), from each pair's nominal evaluation.
    """
    cids = list_trainable(schedule, config.learning_rates)
    sq_errors = []
    for pair in pairs:
        def error_fn(s):
            return pair_error(pair, s, observable, output_map, grid)

        e_nom = error_fn(schedule)
        sq_errors.append(2.0 * e_nom)
        grads = [fd_gradient(cid, schedule, error_fn, e_nom, config)
                 for cid in cids]
        descend(schedule, cids, grads, config.learning_rates)
    return float(np.sqrt(np.mean(sq_errors)))


def train_rl(pairs, schedule, config: RLConfig, observable: Observable,
             output_map: OutputMap, grid: TimeGrid):
    """Full RL training run; returns (trained schedule, EpochLog)."""
    return run_epochs(pairs, schedule, config, lambda s: train_rl_epoch(
        pairs, s, config, observable, output_map, grid))
