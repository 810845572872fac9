"""Dense N-qubit linear algebra and unitary time evolution of density matrices.

Everything here works on small dense matrices (dim = 2^N, N <= 6).  H is
real symmetric, assembled from bit masks (each sigma_x^(i) flips one bit of
the basis index; the sigma_z terms are diagonal).  Evolution is a stepwise
matrix exponential of the midpoint Hamiltonians (`step_hamiltonians`), taken
by `expm_hermitian` without an eigendecomposition: cos(H dt) - i sin(H dt)
as real Taylor polynomials, accurate and unitary to round-off.  Every solve
uses those steps: `evolve` keeps the states along the way, `total_propagator`
multiplies the steps pairwise (`ordered_product`).  The density-matrix
invariants (Hermiticity, unit trace, positivity) are preserved to round-off.

The one readout is Z_0 Z_1, diagonal in the computational basis: its signs
are `zz_parity`, and <Z_0 Z_1> is their sum weighted by the final state's
populations (`zz_expectation`) or by measured counts (`circuit`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

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


def _check_finite(a, what):
    """Raise ValueError naming the first NaN or infinity in `a`."""
    if not np.isfinite(a).all():
        index = np.argwhere(~np.isfinite(a))[0].tolist()
        raise ValueError(f"{what} has a non-finite entry {a[tuple(index)]} "
                         f"at {index}")


@dataclass(frozen=True)
class DensityMatrix:
    """2^N x 2^N Hermitian, unit-trace, positive-semidefinite state."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        _check_finite(m, "density matrix")
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
        _check_finite(psi, "state vector")
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise ValueError("zero state vector")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))


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


def pair_indices(num_qubits):
    """Ordered qubit pairs (i < j) used for the coupling parameters."""
    return list(itertools.combinations(range(num_qubits), 2))


@functools.lru_cache(maxsize=None)
def _bit_tables(num_qubits):
    """(idx, sigma_x bit masks (N,), sigma_z signs (d, N), zz signs (d, P)).

    Qubit q is bit N-1-q of a basis index: kron order, qubit 0 leftmost.
    """
    idx = np.arange(2**num_qubits)
    masks = 1 << (num_qubits - 1 - np.arange(num_qubits))
    zsigns = np.where(idx[:, None] & masks, -1.0, 1.0)
    i, j = np.array(pair_indices(num_qubits), dtype=int).reshape(-1, 2).T
    tables = (idx, masks, zsigns, zsigns[:, i] * zsigns[:, j])
    for t in tables:
        t.flags.writeable = False
    return tables


def zz_parity(num_qubits):
    """Read-only diagonal of Z_0 Z_1: the parity of qubits 0 and 1, as +-1."""
    return _bit_tables(num_qubits)[3][:, 0]


def assemble_hamiltonians(tunneling, bias, coupling, num_qubits):
    """Batch Hamiltonian assembly from bit masks.

    Parameters are arrays over a time batch: tunneling/bias of shape (M, N)
    and coupling of shape (M, P) in `pair_indices` order.  Returns real (M, d, d).
    """
    idx, masks, zsigns, zzsigns = _bit_tables(num_qubits)
    h = np.zeros((len(tunneling), idx.size, idx.size))
    h[:, idx, idx] = bias @ zsigns.T + coupling @ zzsigns.T
    for q, mask in enumerate(masks):
        h[:, idx, idx ^ mask] = tunneling[:, q, None]
    return h


def contract_hamiltonians(w, num_qubits):
    """Transpose of `assemble_hamiltonians`: sum(G_site * w) for every site.

    For a stack w of shape (M, d, d), returns the contractions with each
    unit generator G_site as tunneling (M, N), bias (M, N) and coupling
    (M, P) arrays, in the same site order as the assembly's inputs.
    """
    idx, masks, zsigns, zzsigns = _bit_tables(num_qubits)
    diag = w[:, idx, idx]
    tunneling = w[:, idx[:, None], idx[:, None] ^ masks].sum(axis=1)
    return tunneling, diag @ zsigns, diag @ zzsigns


def _taylor_table():
    """(power count p, coefficients, theta reach) per Taylor degree 2q+1.

    exp(-iX) = C - iS with C = sum_j (-1)^j Y^j / (2j)! and
    S = X sum_j (-1)^j Y^j / (2j+1)!, Y = X^2, both truncated at Y^q (Taylor
    degree 2q+1 in X).  The reach is the largest theta = ||X||_1 for which
    the Taylor remainder sum_{k>2q+1} theta^k / k! stays <= 2^-53 theta.
    Each polynomial is evaluated Paterson-Stockmeyer style from the powers
    I, Y, ..., Y^p: blocks of p coefficients, combined by Horner in Y^p.  Each
    degree's p minimises the matmul count, p - 1 + 2 (blocks - 1) + 2.
    """
    table = []
    for q, p, reach in ((2, 2, 2.40e-3), (4, 2, 9.03e-2), (6, 3, 0.410),
                        (8, 4, 0.977), (12, 4, 2.656)):
        blocks = -(-q // p)  # the last block also takes Y^p
        coef = np.zeros((2, blocks, p + 1))
        for j in range(q + 1):
            b = min(j // p, blocks - 1)
            sign = (-1.0) ** j
            coef[0, b, j - b * p] = sign / math.factorial(2 * j)
            coef[1, b, j - b * p] = sign / math.factorial(2 * j + 1)
        table.append((p, coef, reach))
    return tuple(table)


_TAYLOR = _taylor_table()


def expm_hermitian(h, dt):
    """exp(-i h dt) for a batch of Hermitian matrices (hbar = 1).

    Truncated cos/sin Taylor series in X = h dt, with no eigendecomposition:
    real matmuls for the real symmetric Hamiltonians assembled here.  One
    degree serves the batch, picked a priori from theta = ||X||_1, the largest
    absolute column sum over the batch (`_taylor_table`); beyond the largest
    degree's reach, X is halved s times and the result squared s times.
    Raises ValueError if h or dt holds a NaN or an infinity.
    """
    x = np.asarray(h) * dt
    # Row sums: the same as the column sums of a Hermitian X, and contiguous.
    theta = float(np.abs(x).sum(axis=-1).max(initial=0.0))
    if not math.isfinite(theta):
        raise ValueError("expm_hermitian: non-finite Hamiltonian entry")
    for p, coef, reach in _TAYLOR:
        if theta <= reach:
            break
    squarings = math.ceil(math.log2(theta / reach)) if theta > reach else 0
    if squarings:
        x /= 2.0**squarings

    # One workspace: I, Y, ..., Y^p, then the (cos, sin) Horner pair and its
    # product.  With a fresh array per intermediate, the allocator handed
    # the memory back and page-faulted it in again on every call: at
    # (200, 8, 8), about 300 faults per call, which made it 3-4x slower.
    work = np.empty((p + 5, *x.shape), dtype=x.dtype)
    powers, poly, prod = work[:p + 1], work[p + 1:p + 3], work[p + 3:]
    powers[0] = np.eye(x.shape[-1])
    np.matmul(x, x, out=powers[1])
    known = 1
    while known < p:  # Y^(k+1..2k) = Y^(1..k) Y^k, one stacked call each
        top = min(2 * known, p)
        np.matmul(powers[1:top - known + 1], powers[known],
                  out=powers[known + 1:top + 1])
        known = top
    flat_powers, flat_poly = powers.reshape(p + 1, -1), poly.reshape(2, -1)
    np.matmul(coef[:, -1], flat_powers, out=flat_poly)
    for b in range(coef.shape[1] - 2, -1, -1):  # poly = poly Y^p + block b
        np.matmul(poly, powers[p], out=prod)
        np.matmul(coef[:, b], flat_powers, out=flat_poly)
        poly += prod
    u = np.matmul(x, poly[1], out=prod[0]) * -1j
    u += poly[0]
    for _ in range(squarings):
        u = u @ u
    return u


def step_hamiltonians(schedule, grid: TimeGrid):
    """Real midpoint Hamiltonians H(t_k + dt/2), shape (M, d, d)."""
    k, e, z = schedule.eval_many(grid.midpoints)
    return assemble_hamiltonians(k, e, z, schedule.num_qubits)


def step_unitaries(schedule, grid: TimeGrid):
    """Per-step propagators U_k = exp(-i H(t_k + dt/2) dt), shape (M, d, d)."""
    return expm_hermitian(step_hamiltonians(schedule, grid), grid.dt)


def ordered_product(us):
    """U_{M-1} ... U_0 of a (M, d, d) stack, multiplied pairwise."""
    while len(us) > 1:  # U_{2j+1} U_{2j} per level; an odd last factor carries
        even = len(us) // 2 * 2
        us = np.concatenate([us[1:even:2] @ us[:even:2], us[even:]])
    return us[0]


@dataclass(frozen=True)
class Trajectory:
    """Forward evolution record: states rho(t_k), step unitaries and Hamiltonians."""

    states: np.ndarray  # (M+1, d, d)
    unitaries: np.ndarray  # (M, d, d)
    grid: TimeGrid
    hamiltonians: np.ndarray  # (M, d, d), real: each step's midpoint H

    def final(self) -> np.ndarray:
        return self.states[-1]


def evolve(rho0: DensityMatrix, schedule, grid: TimeGrid) -> Trajectory:
    """Propagate rho0 through the schedule: rho_{k+1} = U_k rho_k U_k^dagger.

    The Hamiltonian is sampled at step midpoints, so piecewise-constant
    schedules whose segments align with the grid are reproduced exactly and
    smooth schedules converge at second order in dt.
    """
    _tick_solve()
    h = step_hamiltonians(schedule, grid)
    us = expm_hermitian(h, grid.dt)
    d = us.shape[-1]
    states = np.empty((grid.steps + 1, d, d), dtype=complex)
    states[0] = rho0.matrix
    for k in range(grid.steps):
        states[k + 1] = us[k] @ states[k] @ us[k].conj().T
    return Trajectory(states=states, unitaries=us, grid=grid, hamiltonians=h)


def total_propagator(schedule, grid: TimeGrid) -> np.ndarray:
    """Product U_{M-1} ... U_0 mapping rho(0) to rho(T) by conjugation."""
    _tick_solve()
    return ordered_product(step_unitaries(schedule, grid))


def final_state(rho0: DensityMatrix, schedule, grid: TimeGrid) -> np.ndarray:
    """rho(T) without storing the trajectory; one solve."""
    u = total_propagator(schedule, grid)
    return u @ rho0.matrix @ u.conj().T


def zz_expectation(rho: np.ndarray) -> float:
    """<Z_0 Z_1> = tr(rho Z_0 Z_1) of a (d, d) matrix, from its diagonal.

    The sum runs term by term as the trace of the dense product would.  The
    imaginary part must vanish for a Hermitian input.
    """
    val = (np.diagonal(rho) * zz_parity(len(rho).bit_length() - 1)).sum()
    if abs(val.imag) > 1e-10:
        raise ValueError(f"non-real expectation value: {val}")
    return float(val.real)


def output_value(rho_f, output_map: OutputMap) -> float:
    """Witness output f(<Z_0 Z_1>) of a final state."""
    return float(output_map(zz_expectation(rho_f)))
