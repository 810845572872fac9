"""Adjoint-method gradients and gradient-descent training.

The output error at the final time is pulled backward through the same step
unitaries as the forward pass, giving every coefficient gradient from a single
backward sweep: the costate matrix A(t) satisfies the boundary condition
A(T) = [d - f(<O>)] f'(<O>) O and propagates by inverse conjugation,
A(t_k) = U_k^dag A(t_{k+1}) U_k.  The per-coefficient gradient is the
commutator-trace integral

    dL/dw = i * integral_0^T tr( A(t) [dH/dw(t), rho(t)] ) dt

evaluated per step through the exact derivative of each step propagator, so
the result is the gradient of the discrete loss to round-off rather than a
quadrature approximation.  Because H is real symmetric, that derivative,
paired with rho_k and A_{k+1}, collapses to one real step sensitivity W_k
built in the step's eigenbasis; every coefficient's gradient is read off W_k
by the transposed Hamiltonian assembly (`qcore.contract_hamiltonians`).
Validated against finite differences and scipy's expm_frechet; see tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import Observable, OutputMap, TimeGrid, Trajectory
from .schedules import KIND_ORDER, list_trainable
from .train import TrainConfig, descend, run_epochs

IMAG_RESIDUAL_TOL = 1e-8


def adjoint_boundary(rho_f, observable: Observable, target: float,
                     output_map: OutputMap) -> np.ndarray:
    """Final-time costate A(T) = [d - f(<O>)] f'(<O>) O."""
    theta = qcore.expectation(rho_f, observable)
    scale = (target - output_map(theta)) * output_map.derivative(theta)
    return scale * observable.matrix


def adjoint_evolve_backward(a_final: np.ndarray, traj: Trajectory) -> np.ndarray:
    """Backward costate sweep with the forward pass's unitaries.

    A(t_k) = U_k^dag A(t_{k+1}) U_k; returns the full field, shape (M+1, d, d).
    """
    qcore._tick_solve()
    us = traj.unitaries
    m = us.shape[0]
    field_ = np.empty_like(traj.states)
    field_[m] = a_final
    for k in range(m - 1, -1, -1):
        field_[k] = us[k].conj().T @ field_[k + 1] @ us[k]
    return field_


def _step_sensitivities(traj: Trajectory, adjoint_field: np.ndarray):
    """Real W_k with tr(A_{k+1} d(rho_{k+1})/dP) = 2 sum(P * W_k), shape (M, d, d).

    Holds for every real symmetric direction P of the step Hamiltonian
    H = V diag(lam) V^T.  With X = rho_{k+1} A_{k+1}, q = exp(-i lam dt/2) and
    Z = (V q)^dag X (V q): W = V (dt S * Im Z^T) V^T, where
    S_ab = sinc(dt (lam_a - lam_b) / 2) is smooth across degenerate pairs.
    V is real, so Z_ab = conj(q_a) q_b (V^T X V)_ab comes from real products.
    """
    lam, v, dt = traj.eigenvalues, traj.eigenvectors, traj.grid.dt
    a = adjoint_field[1:]
    # The formula needs a Hermitian costate; its anti-Hermitian part is the
    # imaginary residual the gradient would otherwise silently drop.
    residual = np.abs(a - a.conj().swapaxes(-1, -2)).max()
    if residual > IMAG_RESIDUAL_TOL * max(1.0, np.abs(a).max()):
        raise ValueError(f"non-Hermitian costate, residual {residual:.2e}")
    x = traj.states[1:] @ a
    vt = v.swapaxes(-1, -2)
    y_re, y_im = (vt @ part @ v for part in (x.real, x.imag))
    half = np.exp(0.5j * dt * lam)
    phase = half[:, :, None] * half.conj()[:, None, :]  # conj(q_a) q_b
    im_z = phase.imag * y_re + phase.real * y_im
    s = np.sinc(dt * (lam[:, :, None] - lam[:, None, :]) / (2 * np.pi))
    return v @ (dt * s * im_z.swapaxes(-1, -2)) @ vt


def all_gradients(cids, traj: Trajectory, adjoint_field: np.ndarray,
                  schedule, grid: TimeGrid):
    """Gradients of the half-squared output error for the coefficients `cids`.

    All share one trajectory/adjoint pair.  The step sensitivities are
    contracted once with every site's generator (the transposed assembly),
    then with each coefficient's basis function over its sites.
    """
    w = _step_sensitivities(traj, adjoint_field)
    sens = qcore.contract_hamiltonians(w, schedule.num_qubits)
    basis = schedule.basis_row(grid.midpoints)  # (M, width)
    per_site = {kind: -2.0 * basis.T @ s for kind, s in zip(KIND_ORDER, sens)}
    return np.array([per_site[cid.kind][cid.basis, schedule.sites_for(cid)].sum()
                     for cid in cids])


@dataclass
class BackpropConfig(TrainConfig):
    """Knobs for the adjoint training loop."""

    epochs: int = 1000
    accumulate_per_epoch: bool = False  # default: update after every pair


def train_backprop(pairs, schedule, config: BackpropConfig,
                   observable: Observable, output_map: OutputMap,
                   grid: TimeGrid):
    """Adjoint gradient descent over the training set.

    One epoch costs two trajectory sweeps per pair (forward + backward),
    independent of how many coefficients are trained.  Returns the trained
    schedule and the per-epoch RMS log.
    """
    cids = list_trainable(schedule, config.learning_rates)

    def epoch(schedule):
        sq_errors = []
        accum = np.zeros(len(cids))
        for pair in pairs:
            traj = qcore.evolve(pair.rho0, schedule, grid)
            out = qcore.output_value(traj.final(), observable, output_map)
            sq_errors.append((pair.target - out) ** 2)
            a_final = adjoint_boundary(traj.final(), observable, pair.target,
                                       output_map)
            field_ = adjoint_evolve_backward(a_final, traj)
            grads = all_gradients(cids, traj, field_, schedule, grid)
            if config.accumulate_per_epoch:
                accum += grads
            else:
                descend(schedule, cids, grads, config.learning_rates)
        if config.accumulate_per_epoch:
            descend(schedule, cids, accum, config.learning_rates)
        return float(np.sqrt(np.mean(sq_errors)))

    return run_epochs(pairs, schedule, config, epoch)
