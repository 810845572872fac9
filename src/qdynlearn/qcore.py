"""Dense N-qubit linear algebra and unitary time evolution of density matrices.

Everything here works on small dense complex matrices (dim = 2^N, N <= 6).
Evolution is a stepwise matrix exponential through a Hermitian
eigendecomposition, so each step is exactly unitary and the density-matrix
invariants (Hermiticity, unit trace, positivity) are preserved to round-off.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-9

# Trajectory-solve counter (forward evolutions, fast final-state solves and
# backward adjoint sweeps all count as one solve).  Single-threaded bookkeeping
# used by the cost-structure tests; reset freely.
solve_count = 0


def _tick_solve():
    global solve_count
    solve_count += 1


SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
IDENTITY2 = np.eye(2, dtype=complex)


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Observable:
    """Hermitian operator on N qubits with a human-readable label."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("observable must be a square matrix")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError(f"observable {self.label!r} is not Hermitian")

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """2^N x 2^N Hermitian, unit-trace, positive-semidefinite state."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        n = int(round(np.log2(m.shape[0])))
        if 2**n != m.shape[0]:
            raise ValueError("dimension must be a power of 2")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(m).min() < -POSITIVITY_TOL:
            raise ValueError("density matrix is not positive semidefinite")

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def num_qubits(self):
        return int(round(np.log2(self.matrix.shape[0])))

    @classmethod
    def from_state_vector(cls, psi) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).ravel()
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise ValueError("zero state vector")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class HamiltonianParams:
    """Instantaneous Hamiltonian weights: per-qubit tunneling K and bias
    epsilon, plus the symmetric qubit-qubit coupling matrix zeta (zero
    diagonal).  All values are angular frequencies in rad/ns."""

    tunneling: np.ndarray
    bias: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.tunneling, dtype=float)
        e = np.asarray(self.bias, dtype=float)
        z = np.asarray(self.coupling, dtype=float)
        object.__setattr__(self, "tunneling", k)
        object.__setattr__(self, "bias", e)
        object.__setattr__(self, "coupling", z)
        n = k.shape[0]
        if e.shape != (n,) or z.shape != (n, n):
            raise ValueError("inconsistent parameter shapes")
        if not (np.isfinite(k).all() and np.isfinite(e).all() and np.isfinite(z).all()):
            raise ValueError("non-finite Hamiltonian parameter")
        if np.max(np.abs(z - z.T)) > 0:
            raise ValueError("coupling matrix must be symmetric")
        if np.max(np.abs(np.diag(z))) > 0:
            raise ValueError("self-coupling must be zero")

    @property
    def num_qubits(self):
        return self.tunneling.shape[0]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T]: t_k = k T / M for k = 0..M."""

    T: float
    steps: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("final time must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")

    @property
    def dt(self):
        return self.T / self.steps

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.steps + 1)

    @property
    def midpoints(self):
        return self.times[:-1] + 0.5 * self.dt


@dataclass(frozen=True)
class OutputMap:
    """Scalar map applied to the final-time expectation value."""

    name: str
    apply: callable
    derivative: callable

    def __call__(self, x):
        return self.apply(x)


IDENTITY_MAP = OutputMap("identity", lambda x: x, lambda x: 1.0)
SQUARE_MAP = OutputMap("square", lambda x: x * x, lambda x: 2.0 * x)
OUTPUT_MAPS = {"identity": IDENTITY_MAP, "square": SQUARE_MAP}


def pauli_embed(axis, qubit, num_qubits) -> Observable:
    """Single-site Pauli sigma_axis on `qubit`, identity elsewhere."""
    if axis not in SIGMA:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    if not 0 <= qubit < num_qubits:
        raise IndexError(f"qubit {qubit} out of range for {num_qubits} qubits")
    op = np.array([[1.0 + 0j]])
    for q in range(num_qubits):
        op = np.kron(op, SIGMA[axis] if q == qubit else IDENTITY2)
    return Observable(op, label=f"sigma_{axis}[{qubit}]")


def pair_indices(num_qubits):
    """Ordered qubit pairs (i < j) used for the coupling parameters."""
    return list(itertools.combinations(range(num_qubits), 2))


@functools.lru_cache(maxsize=None)
def _generator_stacks(num_qubits):
    """(Gx, Gz, Gzz) stacks: sigma_x^(i), sigma_z^(i), sigma_z^(i) sigma_z^(j)."""
    gx = np.stack([pauli_embed("x", q, num_qubits).matrix for q in range(num_qubits)])
    gz = np.stack([pauli_embed("z", q, num_qubits).matrix for q in range(num_qubits)])
    pairs = pair_indices(num_qubits)
    if pairs:
        gzz = np.stack(
            [
                pauli_embed("z", i, num_qubits).matrix @ pauli_embed("z", j, num_qubits).matrix
                for i, j in pairs
            ]
        )
    else:
        gzz = np.zeros((0, 2**num_qubits, 2**num_qubits), dtype=complex)
    return gx, gz, gzz


def build_hamiltonian(params: HamiltonianParams) -> Observable:
    """H = sum_i K_i sigma_x^(i) + sum_i eps_i sigma_z^(i)
    + sum_{i<j} zeta_ij sigma_z^(i) sigma_z^(j)."""
    n = params.num_qubits
    gx, gz, gzz = _generator_stacks(n)
    zvals = np.array([params.coupling[i, j] for i, j in pair_indices(n)])
    h = np.einsum("k,kij->ij", params.tunneling, gx)
    h += np.einsum("k,kij->ij", params.bias, gz)
    if len(zvals):
        h += np.einsum("k,kij->ij", zvals, gzz)
    return Observable(h, label="H")


def assemble_hamiltonians(tunneling, bias, coupling, num_qubits):
    """Batch Hamiltonian assembly.

    Parameters are arrays over a time batch: tunneling/bias of shape (M, N)
    and coupling of shape (M, P) in `pair_indices` order.  Returns (M, d, d).
    """
    gx, gz, gzz = _generator_stacks(num_qubits)
    h = np.einsum("tk,kij->tij", tunneling, gx)
    h += np.einsum("tk,kij->tij", bias, gz)
    if coupling.shape[1]:
        h += np.einsum("tk,kij->tij", coupling, gzz)
    return h


def expm_hermitian(h, dt):
    """exp(-i h dt) for a batch of Hermitian matrices (hbar = 1)."""
    w, v = np.linalg.eigh(h)
    phase = np.exp(-1j * np.asarray(dt) * w)
    return (v * phase[..., None, :]) @ v.conj().swapaxes(-1, -2)


def step_unitaries(schedule, grid: TimeGrid):
    """Per-step propagators U_k = exp(-i H(t_k + dt/2) dt), shape (M, d, d)."""
    k, e, z = schedule.eval_many(grid.midpoints)
    h = assemble_hamiltonians(k, e, z, schedule.num_qubits)
    return expm_hermitian(h, grid.dt)


@dataclass(frozen=True)
class Trajectory:
    """Forward evolution record: states rho(t_k) and the step unitaries."""

    states: np.ndarray  # (M+1, d, d)
    unitaries: np.ndarray  # (M, d, d)
    grid: TimeGrid

    def final(self) -> np.ndarray:
        return self.states[-1]


def evolve(rho0: DensityMatrix, schedule, grid: TimeGrid) -> Trajectory:
    """Propagate rho0 through the schedule: rho_{k+1} = U_k rho_k U_k^dagger.

    The Hamiltonian is sampled at step midpoints, so piecewise-constant
    schedules whose segments align with the grid are reproduced exactly and
    smooth schedules converge at second order in dt.
    """
    _tick_solve()
    us = step_unitaries(schedule, grid)
    d = us.shape[-1]
    states = np.empty((grid.steps + 1, d, d), dtype=complex)
    states[0] = rho0.matrix
    for k in range(grid.steps):
        states[k + 1] = us[k] @ states[k] @ us[k].conj().T
    return Trajectory(states=states, unitaries=us, grid=grid)


def total_propagator(schedule, grid: TimeGrid) -> np.ndarray:
    """Product U_{M-1} ... U_0 mapping rho(0) to rho(T) by conjugation."""
    _tick_solve()
    us = step_unitaries(schedule, grid)
    u = us[0]
    for k in range(1, us.shape[0]):
        u = us[k] @ u
    return u


def final_state(rho0: DensityMatrix, schedule, grid: TimeGrid) -> np.ndarray:
    """rho(T) without storing the trajectory; one solve."""
    u = total_propagator(schedule, grid)
    return u @ rho0.matrix @ u.conj().T


def expectation(rho, obs: Observable) -> float:
    """Re tr(rho O); the imaginary part must vanish for Hermitian inputs."""
    rm = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if rm.shape != obs.matrix.shape:
        raise DimensionMismatchError(
            f"state dim {rm.shape[0]} != observable dim {obs.matrix.shape[0]}"
        )
    val = np.trace(rm @ obs.matrix)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"non-real expectation value: {val}")
    return float(val.real)


def output_value(rho_f, obs: Observable, output_map: OutputMap) -> float:
    """f(tr(rho_f O)) for the configured output map."""
    return float(output_map(expectation(rho_f, obs)))


def zz_observable(num_qubits, pair=(0, 1)) -> Observable:
    """Correlation observable sigma_z sigma_z on the designated pair."""
    i, j = pair
    m = pauli_embed("z", i, num_qubits).matrix @ pauli_embed("z", j, num_qubits).matrix
    return Observable(m, label=f"zz[{i},{j}]")
