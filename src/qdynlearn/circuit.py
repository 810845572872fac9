"""Hardware-style mode: circuit unitary, shot-sampled readout, RL training.

A piecewise-constant schedule compiles to one exact circuit unitary, the
ordered product of its segments' exponentials (one `qcore` step per segment).
Measurement happens in the computational basis, either exactly (probabilities)
or by sampling a finite number of shots, optionally with a depolarizing
channel after each segment and independent readout bit flips.  The global
depolarizing channel commutes with unitary conjugation, so the S channels act
on the measured distribution in closed form.  Training is
the same finite-difference loop as the continuum RL module, but the error is
the whole-set RMS between witness estimates and targets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import qcore, rl
from .qcore import DensityMatrix, OutputMap, SQUARE_MAP, TimeGrid
from .schedules import PiecewiseSchedule, list_trainable
from .train import descend, run_epochs

UNITARITY_TOL = 1e-12


@dataclass
class ShotBackend:
    """Measurement backend: shot count (None = exact) and noise knobs."""

    shots: int | None = None
    p_dep: float = 0.0  # depolarizing probability applied after each segment
    p_ro: float = 0.0  # independent per-qubit readout flip probability
    seed: int = 0

    def __post_init__(self):
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1 (or None for exact)")
        if not 0.0 <= self.p_dep <= 1.0 or not 0.0 <= self.p_ro <= 1.0:
            raise ValueError("noise probabilities must lie in [0, 1]")
        self._rng = np.random.default_rng(self.seed)

    @property
    def exact(self):
        return self.shots is None


@dataclass(frozen=True)
class SegmentedCircuit:
    """Total unitary U_S ... U_1 of a piecewise schedule's segments."""

    unitary: np.ndarray  # (d, d)
    schedule: PiecewiseSchedule

    def __post_init__(self):
        u = self.unitary
        err = np.abs(u @ u.conj().T - np.eye(u.shape[-1])).max()
        if err > UNITARITY_TOL:
            raise ValueError(f"circuit unitary not unitary (residual {err:.2e})")


def compile_segments(schedule: PiecewiseSchedule) -> SegmentedCircuit:
    """Product of U_s = exp(-i H_s T/S) over each segment's constant parameters."""
    grid = TimeGrid(schedule.T, schedule.segments)
    return SegmentedCircuit(
        qcore.ordered_product(qcore.step_unitaries(schedule, grid)), schedule)


@functools.lru_cache(maxsize=16)
def _readout_matrix(num_qubits, p_ro):
    """Independent per-qubit flips as one (d, d) stochastic matrix, read-only."""
    f1 = np.array([[1.0 - p_ro, p_ro], [p_ro, 1.0 - p_ro]])
    f = np.array([[1.0]])
    for _ in range(num_qubits):
        f = np.kron(f, f1)
    f.flags.writeable = False
    return f


def run_shots(circuit: SegmentedCircuit, rho0: DensityMatrix,
              backend: ShotBackend) -> np.ndarray:
    """Apply the circuit and measure in the computational basis.

    The S depolarizing channels (one per segment) commute with the unitary,
    so they act on the outcome distribution as
    (1-p)^S diag(U rho U^dag) + (1 - (1-p)^S) / d.

    Returns one entry per basis state, indexed by the measured bitstring
    read as a binary number (qubit 0 is the most significant bit): the
    outcome probabilities in exact mode, otherwise the integer counts of
    `shots` multinomial draws.
    """
    u = circuit.unitary
    keep = (1.0 - backend.p_dep) ** circuit.schedule.segments
    populations = np.diag(u @ rho0.matrix @ u.conj().T).real
    probs = np.clip(keep * populations + (1.0 - keep) / u.shape[0], 0.0, None)
    probs = probs / probs.sum()
    if backend.p_ro > 0.0:
        probs = _readout_matrix(circuit.schedule.num_qubits, backend.p_ro) @ probs
    if backend.exact:
        return probs
    return backend._rng.multinomial(backend.shots, probs)


def estimate_output(counts, output_map: OutputMap = SQUARE_MAP) -> float:
    """Witness output f(<zz>) from a count or probability vector.

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
    return float(output_map(np.dot(qcore.zz_parity(num_qubits),
                                   counts / total)))


def set_rms_error(pairs, schedule: PiecewiseSchedule, backend: ShotBackend,
                  output_map: OutputMap = SQUARE_MAP) -> float:
    """Whole-set RMS error through the compile -> measure -> estimate path."""
    circuit = compile_segments(schedule)
    sq = []
    for pair in pairs:
        out = estimate_output(run_shots(circuit, pair.rho0, backend),
                              output_map)
        sq.append((pair.target - out) ** 2)
    return float(np.sqrt(np.mean(sq)))


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
                     config: rl.RLConfig, backend: ShotBackend,
                     output_map: OutputMap = SQUARE_MAP):
    """Per-weight finite-difference training on the circuit pipeline.

    Each weight update evaluates the whole-set RMS error nominally and with
    the weight perturbed; one sweep over all weights is an epoch.  The logged
    per-epoch RMS is a fresh evaluation after the sweep.
    """
    cids = list_trainable(schedule, config.learning_rates)
    error_fn = lambda s: set_rms_error(pairs, s, backend, output_map)

    def epoch(schedule):
        for cid in cids:
            g = rl.fd_gradient(cid, schedule, error_fn, error_fn(schedule),
                               config)
            descend(schedule, [cid], [g], config.learning_rates)
        return error_fn(schedule)

    return run_epochs(pairs, schedule, config, epoch)
