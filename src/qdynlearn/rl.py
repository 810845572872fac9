"""Hybrid finite-difference reinforcement learning.

One coefficient at a time: perturb it by a small amount, rerun the system,
form the one-sided difference quotient of the output error and take a
gradient-descent step.  Sweeping every trainable coefficient for every
training pair is one epoch.  No backward pass is needed, which is what makes
the same loop runnable against hardware-style (shot-sampled) evaluations.
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
    # "deferred": one E_nom per pair, every coefficient's quotient taken
    # against the unmodified schedule, updates applied together at pair end
    # (1 + n solves per pair).  "sequential": recompute E_nom and update
    # immediately per coefficient (2n solves per pair).
    update_mode: str = "deferred"

    def __post_init__(self):
        super().__post_init__()
        if self.update_mode not in ("deferred", "sequential"):
            raise ValueError(f"unknown update mode {self.update_mode!r}")
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


def fd_gradient(cid: CoefficientId, pair: TrainingPair, schedule,
                config: RLConfig, observable: Observable,
                output_map: OutputMap, grid: TimeGrid,
                e_nom: float | None = None) -> float:
    """One-sided difference quotient (E_mod - E_nom) / delta.

    The schedule is restored bit-identically afterward.  Pass `e_nom` to
    reuse an already-computed nominal error.
    """
    if e_nom is None:
        e_nom = pair_error(pair, schedule, observable, output_map, grid)
    value = schedule.get(cid)
    delta = config.perturbation(cid.kind, value)
    try:
        schedule.set(cid, value + delta)
        e_mod = pair_error(pair, schedule, observable, output_map, grid)
    finally:
        schedule.set(cid, value)
    return (e_mod - e_nom) / delta


def train_rl_epoch(pairs, schedule, config: RLConfig, observable: Observable,
                   output_map: OutputMap, grid: TimeGrid):
    """One epoch of per-pair, per-coefficient finite-difference updates.

    Mutates the schedule in place.  Returns the epoch RMS,
    sqrt(mean (d - output)^2), from each pair's nominal evaluation.
    """
    cids = list_trainable(schedule, config.learning_rates)
    sq_errors = []
    for pair in pairs:
        e_nom = pair_error(pair, schedule, observable, output_map, grid)
        sq_errors.append(2.0 * e_nom)
        if config.update_mode == "deferred":
            grads = [
                fd_gradient(cid, pair, schedule, config, observable,
                            output_map, grid, e_nom=e_nom)
                for cid in cids
            ]
            descend(schedule, cids, grads, config.learning_rates)
        else:
            for cid in cids:
                g = fd_gradient(cid, pair, schedule, config, observable,
                                output_map, grid)
                descend(schedule, [cid], [g], config.learning_rates)
    return float(np.sqrt(np.mean(sq_errors)))


def train_rl(pairs, schedule, config: RLConfig, observable: Observable,
             output_map: OutputMap, grid: TimeGrid):
    """Full RL training run; returns (trained schedule, EpochLog)."""
    return run_epochs(pairs, schedule, config, lambda s: train_rl_epoch(
        pairs, s, config, observable, output_map, grid))


def fd_update_pass(schedule, cids, error_fn, config: RLConfig):
    """One sweep of whole-set finite-difference updates.

    `error_fn(schedule)` returns a scalar error for the full training set.
    For each coefficient: evaluate E_nom, perturb, evaluate E_mod, restore,
    then apply the gradient step.  Returns the last E_nom seen.
    """
    e_nom = None
    for cid in cids:
        e_nom = error_fn(schedule)
        value = schedule.get(cid)
        delta = config.perturbation(cid.kind, value)
        try:
            schedule.set(cid, value + delta)
            e_mod = error_fn(schedule)
        finally:
            schedule.set(cid, value)
        g = (e_mod - e_nom) / delta
        schedule.set(cid, value - config.learning_rates[cid.kind] * g)
    return e_nom


def set_rms_error(pairs, schedule, observable: Observable,
                  output_map: OutputMap, grid: TimeGrid) -> float:
    """Whole-training-set RMS difference between outputs and targets."""
    u = qcore.total_propagator(schedule, grid)
    sq = [
        (p.target - qcore.output_value(u @ p.rho0.matrix @ u.conj().T,
                                       observable, output_map)) ** 2
        for p in pairs
    ]
    return float(np.sqrt(np.mean(sq)))
