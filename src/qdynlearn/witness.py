"""Entanglement ground truth and witness evaluation.

The Wootters concurrence is the independent oracle: training targets are
derived from it, and a trained schedule is judged by how well its final-time
output <Z_0 Z_1>^2 tracks the oracle over a one-parameter family of states.
Both read a state through its factor alone: a pure state's concurrence is
that of its vector, and one `qcore.propagate` of every stacked factor gives
the outputs of an evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import DensityMatrix

# sigma_y (x) sigma_y, the spin flip of the concurrence.
SIGMA_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
                    dtype=complex)


@dataclass(frozen=True)
class TrainingPair:
    """Initial state plus the scalar target the trained output should hit:
    a real number in [0, 1], never a bool (`qcore.is_real`)."""

    rho0: DensityMatrix
    target: float
    label: str = ""

    def __post_init__(self):
        if not (qcore.is_real(self.target) and 0.0 <= self.target <= 1.0):
            raise ValueError(f"target must be in [0, 1], got {self.target!r}")


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    C = max(0, l1 - l2 - l3 - l4) where l_i are the decreasing square roots
    of the eigenvalues of rho (sy x sy) rho* (sy x sy).  For a pure
    a|00> + b|11> this equals 2|ab|.  A raw array is checked and factored
    as a `DensityMatrix`, so one that is not a state raises ValueError.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    if rho.dim != 4:
        raise ValueError("concurrence is defined for two qubits (dim 4)")
    f = rho.factor
    g = f.conj().T @ f  # tr rho^2 = tr (F^dag F)^2
    if abs(np.vdot(g, g).real - 1.0) < 1e-12:
        # pure state: C = |<psi| sy x sy |psi*>| of F's largest column, free
        # of the square-root round-off amplification of the mixed formula
        psi = f[:, -1]
        return float(abs(psi @ SIGMA_YY @ psi))
    rm = rho.matrix
    r = rm @ SIGMA_YY @ rm.conj() @ SIGMA_YY
    evals = np.linalg.eigvals(r).real
    # clip tiny negatives from round-off before the square root
    lam = np.sqrt(np.sort(np.abs(evals))[::-1])
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def ghz_family_state(num_qubits, a, b):
    """a|0...0> + b|1...1> (normalized)."""
    psi = np.zeros(2**num_qubits, dtype=complex)
    psi[0] = a
    psi[-1] = b
    return DensityMatrix.from_state_vector(psi)


def build_training_set(num_qubits):
    """The four-pure-state training set.

    Two separable states (target 0), the maximally entangled state (target 1)
    and a partially entangled a|0..0> + b|1..1> whose target is the squared
    oracle concurrence (2ab)^2, as the output is the squared correlation.
    """
    qcore.check_num_qubits(num_qubits)
    n = num_qubits
    a, b = 0.6, 0.8
    concurrence_partial = 2 * a * b

    superpos = np.zeros(2**n, dtype=complex)
    superpos[0] = superpos[1] = 1.0  # |0..0> + |0..01>, last qubit superposed
    ghz = np.zeros(2**n, dtype=complex)
    ghz[0] = ghz[-1] = 1.0

    return [
        TrainingPair(ghz_family_state(n, 1.0, 0.0), 0.0, "product_zeros"),
        TrainingPair(DensityMatrix.from_state_vector(ghz), 1.0,
                     "bell" if n == 2 else "ghz"),
        TrainingPair(DensityMatrix.from_state_vector(superpos), 0.0,
                     "product_superposition"),
        TrainingPair(ghz_family_state(n, a, b),
                     concurrence_partial * concurrence_partial, "partial"),
    ]


def _average_ranks(x):
    """1-based ranks of x, tied values sharing the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def spearman_rho(a, b) -> float:
    """Spearman rank correlation: the Pearson correlation of average ranks.

    NaN when an input holds a NaN or is constant, where no correlation is
    defined (as scipy.stats.spearmanr reports it).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("spearman_rho needs two 1-d arrays of equal length")
    if np.isnan(a).any() or np.isnan(b).any():
        return float("nan")
    ra, rb = _average_ranks(a), _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    norm = np.sqrt(np.dot(ra, ra) * np.dot(rb, rb))
    return float(np.dot(ra, rb) / norm) if norm > 0 else float("nan")


@dataclass
class WitnessReport:
    """Per-state witness outputs plus the rank correlation against the oracle
    on the theta sweep cos(theta)|0..0> + sin(theta)|1..1>."""

    labels: list
    oracle: np.ndarray
    outputs: np.ndarray
    spearman: float


def theta_sweep_states(num_qubits=2, points=21):
    """The 21-point entanglement sweep used for generalization checks."""
    thetas = np.linspace(0.0, np.pi / 2, points)
    states = [ghz_family_state(num_qubits, np.cos(th), np.sin(th)) for th in thetas]
    return thetas, states


def _oracle_value(rho: DensityMatrix, theta=None):
    if rho.num_qubits == 2:
        return concurrence(rho)
    # GHZ-class family: 2|ab| is the analytic monotone
    return float(np.sin(2 * theta)) if theta is not None else np.nan


def evaluate_witness(schedule, states, grid) -> WitnessReport:
    """Run each state through the schedule and compare against the oracle.

    `states` is a list of (label, DensityMatrix).  The Spearman correlation is
    computed on the internal theta sweep, independent of the supplied states.
    All the factors, the sweep's too, are solved by one `qcore.propagate`
    on their joint support, and each output read from its state's columns.
    """
    thetas, sweep = theta_sweep_states(schedule.num_qubits)
    factors = [rho.factor for _, rho in states] + [rho.factor for rho in sweep]
    final = qcore.propagate(schedule, grid, np.hstack(factors))
    cuts = np.cumsum([f.shape[1] for f in factors])[:-1]
    outs = np.array([qcore.output_value(qcore.populations(f))
                     for f in np.split(final, cuts, axis=1)])
    oracle = np.array([_oracle_value(rho) for _, rho in states])
    sweep_oracle = [_oracle_value(rho, th) for th, rho in zip(thetas, sweep)]
    return WitnessReport(labels=[lbl for lbl, _ in states], oracle=oracle,
                         outputs=outs[:len(states)],
                         spearman=spearman_rho(outs[len(states):], sweep_oracle))
