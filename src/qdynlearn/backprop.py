"""Adjoint-method gradients and gradient-descent training.

The output error at the final time is pulled backward through the same step
unitaries as the forward pass, giving every coefficient gradient from a single
backward sweep: the costate matrix A(t) satisfies the boundary condition
A(T) = [d - <O>^2] 2<O> O, with O = Z_0 Z_1 the diagonal readout (the
derivative of the half-squared error of the output <O>^2), <O> read from the
populations of the final factor, and propagates by inverse conjugation,
A(t_k) = U_k^dag A(t_{k+1}) U_k.  The per-coefficient gradient is the
commutator-trace integral

    dL/dw = i * integral_0^T tr( A(t) [dH/dw(t), rho(t)] ) dt

evaluated per step through the exact derivative of each step propagator, so
the result is the gradient of the discrete loss to round-off rather than a
quadrature approximation.  Both passes run on the state's square-root factor
F (rho = F F^dag, d x r with r = 1 for a pure state), and the costate enters
only through chi_k = A(t_k) F_k (the ket form of the GRAPE adjoint).  Neither
loops over steps: the forward pass's prefix products P_k = U_{k-1} ... U_0
give F_k = P_k F_0 and chi_k = P_k P_M^dag chi_M, one batched product each.
Both live in the trajectory's block coordinates, on the spin blocks the
initial state occupies (`qcore.BlockBasis.support`): A(T) is
formed on the register from the unfolded final factor, and chi_M is folded
back, which drops only the part of A(T) F_M that no step derivative of the
state reaches.  The step derivative, paired with F_k and chi_{k+1},
collapses to one real step sensitivity W_k: the cotangent chi_{k+1} F_k^dag
of the step unitary, pulled back to the real symmetric step Hamiltonian by
reverse mode through the Taylor polynomial and squarings that evaluate the
unitary (`qcore.expm_hermitian_pullback`), with no eigendecomposition.
Every coefficient's gradient is read off W_k by the transposed
Hamiltonian assembly: W_k contracted with the rotated generators.
Validated against finite differences and scipy's expm_frechet; see tests.
"""

from __future__ import annotations

import numpy as np

from . import qcore
from .qcore import TimeGrid, Trajectory
from .schedules import list_trainable
from .train import TrainConfig, descend, run_epochs

IMAG_RESIDUAL_TOL = 1e-8


def adjoint_boundary(p, target: float) -> np.ndarray:
    """A(T) = [d - <O>^2] 2<O> O, O = Z_0 Z_1, from the final populations p."""
    theta = qcore.zz_expectation(p)
    scale = (target - theta * theta) * (2.0 * theta)
    return np.diag(scale * qcore.zz_parity(len(p).bit_length() - 1))


def adjoint_evolve_backward(a_final: np.ndarray, traj: Trajectory) -> np.ndarray:
    """Backward costate sweep on the state factors, from the forward scan.

    The costate A(t_k) = U_k^dag A(t_{k+1}) U_k enters the gradient only
    through chi_k = A(t_k) F_k, which follows chi_k = U_k^dag chi_{k+1} from
    chi_M = A(T) F_M, formed on the register and folded.  So
    chi_k = (U_{M-1} ... U_k)^dag chi_M = P_k P_M^dag chi_M, one batched
    product with the trajectory's prefix products P_k.  Returns chi in the
    trajectory's block coordinates, shape (M+1, R, r).  Raises
    ValueError if A(T) has an anti-Hermitian part: the gradient formula
    needs a Hermitian costate and would otherwise silently drop that
    imaginary residual.
    """
    residual = np.abs(a_final - a_final.conj().T).max()
    if residual > IMAG_RESIDUAL_TOL * max(1.0, np.abs(a_final).max()):
        raise ValueError(f"non-Hermitian costate, residual {residual:.2e}")
    qcore._tick_solve()
    props = traj.propagators
    chi_final = traj.basis.fold(a_final @ traj.register_factors(-1))
    return props @ (props[-1].conj().T @ chi_final)


def _step_sensitivities(traj: Trajectory, chi: np.ndarray):
    """Real W_k with tr(A_{k+1} d(rho_{k+1})/dP) = 2 sum(P * W_k), shape (M, R, R).

    Holds for every real symmetric block-diagonal direction P of the step
    Hamiltonian H_k, in block coordinates.  rho_{k+1} =
    U_k F_k F_k^dag U_k^dag and chi_{k+1} = A_{k+1} U_k F_k give
    tr(A_{k+1} d rho_{k+1}) = 2 Re sum(conj(g_k) * dU_k),
    g_k = chi_{k+1} F_k^dag, so W_k is the pullback of g_k through the step
    exponential.
    """
    g = chi[1:] @ traj.factors[:-1].conj().swapaxes(-1, -2)
    return qcore.expm_hermitian_pullback(traj.hamiltonians, traj.grid.dt, g)


def all_gradients(idx, traj: Trajectory, chi: np.ndarray, schedule,
                  grid: TimeGrid):
    """Gradients of the half-squared output error for `schedule.params[idx]`.

    All share one trajectory and its costate sweep `chi`.  The step
    sensitivities are contracted once with every rotated unit generator (the
    transposed assembly), then with every basis function, which gives the
    (rows, width) gradient in `params` order.
    """
    w = _step_sensitivities(traj, chi)
    gens = traj.basis.gens
    sens = w.reshape(len(w), -1) @ gens.reshape(len(gens), -1).T  # (M, rows)
    basis = schedule.grid_rows(grid)  # (M, width)
    return (-2.0 * sens.T @ basis).ravel()[idx]


def train_backprop(pairs, schedule, config: TrainConfig, grid: TimeGrid):
    """Adjoint gradient descent over the training set, updating after every pair.

    One epoch costs two trajectory sweeps per pair (forward + backward),
    independent of how many coefficients are trained.  Returns the trained
    schedule and the per-epoch RMS log.
    """
    rates = schedule.per_index(config.learning_rates)
    idx = list_trainable(schedule, config.learning_rates)

    def epoch(schedule):
        sq_errors = []
        for pair in pairs:
            traj = qcore.evolve(pair.rho0, schedule, grid)
            p = qcore.populations(traj.register_factors(-1))
            sq_errors.append((pair.target - qcore.output_value(p)) ** 2)
            a_final = adjoint_boundary(p, pair.target)
            chi = adjoint_evolve_backward(a_final, traj)
            grads = all_gradients(idx, traj, chi, schedule, grid)
            descend(schedule, idx, grads, rates)
        return float(np.sqrt(np.mean(sq_errors)))

    return run_epochs(pairs, schedule, config, epoch)
