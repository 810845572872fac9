"""Hardware-style mode: circuit unitary, shot-sampled readout, RL training.

A piecewise-constant schedule compiles to one exact (d, d) circuit unitary U,
the ordered product of its segments' exponentials (`qcore.propagate` of I).
Measurement happens in the computational basis on the populations |U F|^2 of
the initial factor F, either exactly (probabilities) or by sampling shots,
optionally with a depolarizing channel after each segment and independent
readout bit flips.  The depolarizing channel commutes with unitary
conjugation, so the S channels act on the distribution in closed form.
Training is the finite-difference loop of the continuum RL module, on the
whole-set RMS between witness estimates (normalised counts) and targets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore, rl
from .qcore import DensityMatrix, TimeGrid
from .schedules import PiecewiseSchedule, list_trainable
from .train import descend, run_epochs


@dataclass
class ShotBackend:
    """Measurement backend: shot count (None = exact) and noise knobs."""

    shots: int | None = None
    p_dep: float = 0.0  # depolarizing probability applied after each segment
    p_ro: float = 0.0  # independent per-qubit readout flip probability
    seed: int = 0

    def __post_init__(self):
        if self.shots is not None and not (
                qcore.is_integer(self.shots)
                and 1 <= self.shots <= np.iinfo(np.int64).max):
            raise ValueError(f"shots must be an integer in [1, 2**63 - 1] "
                             f"(or None for exact), got {self.shots!r}")
        if not all(qcore.is_real(p) and 0.0 <= p <= 1.0
                   for p in (self.p_dep, self.p_ro)):
            raise ValueError(f"noise probabilities must lie in [0, 1], got "
                             f"p_dep={self.p_dep!r}, p_ro={self.p_ro!r}")
        if not qcore.is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, "
                             f"got {self.seed!r}")

    @property
    def exact(self):
        return self.shots is None

    @functools.cached_property
    def _rng(self):
        """The shot generator, seeded from `seed`, built on its first draw.

        A run that never samples (exact mode, or no epochs) never imports
        numpy.random.
        """
        return np.random.default_rng(self.seed)


def compile_segments(schedule: PiecewiseSchedule) -> np.ndarray:
    """(d, d) product of U_s = exp(-i H_s T/S) over the segments; no solve."""
    grid = TimeGrid(schedule.T, schedule.segments)
    return qcore.propagate(schedule, grid,
                           qcore.register_identity(schedule.num_qubits))


@functools.lru_cache(maxsize=16)
def _readout_matrix(num_qubits, p_ro):
    """Independent per-qubit flips as one (d, d) stochastic matrix, read-only."""
    f1 = np.array([[1.0 - p_ro, p_ro], [p_ro, 1.0 - p_ro]])
    f = np.array([[1.0]])
    for _ in range(num_qubits):
        f = np.kron(f, f1)
    f.flags.writeable = False
    return f


def run_shots(u, rho0: DensityMatrix, backend: ShotBackend, segments):
    """Apply the circuit unitary `u` and measure in the computational basis.

    The `segments` depolarizing channels (one per segment) commute with the
    unitary, so they act on the outcome distribution as
    (1-p)^S |U F|^2 + (1 - (1-p)^S) / d, with F the factor of rho0.

    Returns one entry per basis state, indexed by the measured bitstring
    read as a binary number (qubit 0 is the most significant bit): the
    outcome probabilities in exact mode, otherwise the integer counts of
    `shots` multinomial draws.
    """
    probs = qcore.populations(u @ rho0.factor)
    if backend.p_dep > 0.0:  # both terms are >= 0: nothing to clip
        keep = (1.0 - backend.p_dep) ** segments
        probs = keep * probs + (1.0 - keep) / len(u)
    probs /= probs.sum()
    if backend.p_ro > 0.0:
        probs = _readout_matrix(len(u).bit_length() - 1, backend.p_ro) @ probs
    if backend.exact:
        return probs
    return backend._rng.multinomial(backend.shots, probs)


def estimate_output(counts) -> float:
    """Witness output <zz>^2 from a count or probability vector.

    `counts` has one entry per basis state, as `run_shots` returns it, so
    its length 2^N gives the qubit count N >= 2; it is normalised by its
    sum.  The pair correlation is the parity of the designated pair (the
    first two qubits): (n00 + n11 - n01 - n10) / shots for two qubits.
    """
    counts = np.asarray(counts)
    num_qubits = counts.size.bit_length() - 1
    if counts.ndim != 1 or counts.size < 4 or counts.size != 2**num_qubits:
        raise ValueError("need one entry per basis state of at least 2 qubits")
    total = counts.sum()
    if total <= 0:
        raise ValueError("counts must have a positive sum")
    return qcore.output_value(counts / total)


def set_rms_error(pairs, schedule: PiecewiseSchedule,
                  backend: ShotBackend) -> float:
    """Whole-set RMS error through the compile -> measure -> estimate path."""
    u = compile_segments(schedule)
    sq = []
    for pair in pairs:
        counts = run_shots(u, pair.rho0, backend, schedule.segments)
        sq.append((pair.target - estimate_output(counts)) ** 2)
    # Python floats summed left to right: np.mean's order for so few terms.
    return math.sqrt(sum(sq) / len(sq))


@dataclass
class CircuitRLConfig(rl.RLConfig):
    """Circuit-mode defaults: the 20-weight loop's rates and scales.

    The perturbations are far larger than the continuum loop's: a shot-
    sampled error estimate carries statistical noise of a few parts in a
    thousand, so the difference quotient only carries signal when the
    perturbation moves the error by more than that.
    """

    delta_rel: float = 5e-2
    delta_abs: dict = field(
        default_factory=lambda: {"tunneling": 1.0e-2,
                                 "bias": 1.0e-3,
                                 "coupling": 1.0e-3}
    )
    learning_rates: dict = field(
        default_factory=lambda: {"tunneling": 1.0e-2, "bias": 1.0e-3,
                                 "coupling": 1.0e-3}
    )


def train_circuit_rl(pairs, schedule: PiecewiseSchedule,
                     config: rl.RLConfig, backend: ShotBackend):
    """Per-weight finite-difference training on the circuit pipeline.

    Each weight update evaluates the whole-set RMS error nominally and with
    the weight perturbed; one sweep over all weights is an epoch.  The logged
    per-epoch RMS is a fresh evaluation after the sweep.
    """
    rates = schedule.per_index(config.learning_rates)
    idx = list_trainable(schedule, config.learning_rates)
    floors = schedule.per_index(config.delta_abs)
    error_fn = lambda s: set_rms_error(pairs, s, backend)

    def epoch(schedule):
        for i in idx:
            delta = config.perturbation(schedule.params[i], floors[i])
            g = rl.fd_gradient(i, schedule, error_fn, error_fn(schedule), delta)
            descend(schedule, i, g, rates)
        return error_fn(schedule)

    return run_epochs(pairs, schedule, config, epoch)
