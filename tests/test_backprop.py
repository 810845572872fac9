"""Adjoint gradients: analytic structure checks and finite-difference oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from pauli_reference import pauli, zz

from qdynlearn import qcore
from qdynlearn.backprop import (
    BackpropConfig,
    adjoint_boundary,
    adjoint_evolve_backward,
    all_gradients,
    train_backprop,
)
from qdynlearn.config import RunConfig
from qdynlearn.qcore import (
    DensityMatrix,
    IDENTITY_MAP,
    SQUARE_MAP,
    TimeGrid,
    evolve,
    pair_indices,
)
from qdynlearn.schedules import (
    CoefficientId,
    FourierSchedule,
    KIND_ORDER,
    PiecewiseSchedule,
    list_trainable,
)
from qdynlearn.train import TrainingDiverged
from qdynlearn.witness import TrainingPair, build_training_set

KIND_SCALES = {"tunneling": 2.5e-3, "bias": 1e-4, "coupling": 1e-4}


def random_schedule(rng, num_qubits=2, T=100.0, n_max=3):
    s = FourierSchedule.initialized(num_qubits, T, n_max=n_max, tied=False)
    for kind, scale in KIND_SCALES.items():
        s.coeffs[kind][:] = rng.normal(scale=scale, size=s.coeffs[kind].shape)
    return s


def random_pair(rng, num_qubits=2):
    d = 2**num_qubits
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return TrainingPair(DensityMatrix.from_state_vector(psi), rng.uniform())


def loss(pair, schedule, fmap, grid):
    out = qcore.output_value(qcore.final_state(pair.rho0, schedule, grid),
                             fmap)
    return 0.5 * (pair.target - out) ** 2


# -- boundary condition ------------------------------------------------------


def test_boundary_zero_when_error_zero():
    rho = DensityMatrix.from_state_vector([1.0, 0, 0, 0])  # <zz> = 1
    a = adjoint_boundary(rho.matrix, 1.0, SQUARE_MAP)
    assert np.abs(a).max() == 0.0


def test_boundary_identity_map_scale():
    # A(T) = (d - <O>) * 1 * O
    rho = DensityMatrix.from_state_vector([0, 1.0, 0, 0])  # <zz> = -1
    a = adjoint_boundary(rho.matrix, 0.5, IDENTITY_MAP)
    assert np.allclose(a, 1.5 * zz(2))


def test_boundary_square_map_vanishes_at_zero_expectation():
    # f'(0) = 0 for the square map, so the costate vanishes even with error.
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
    a = adjoint_boundary(rho.matrix, 0.7, SQUARE_MAP)
    assert np.abs(a).max() == 0.0


# -- backward sweep ----------------------------------------------------------


def test_backward_constant_under_zero_hamiltonian():
    sched = FourierSchedule.initialized(2, 10.0, n_max=0, tied=True,
                                        tunneling=0.0, bias=0.0, coupling=0.0)
    grid = TimeGrid(10.0, 20)
    rho0 = DensityMatrix.from_state_vector([1, 0, 0, 1])
    traj = evolve(rho0, sched, grid)
    a_final = adjoint_boundary(traj.final(), 0.0, SQUARE_MAP)
    field = adjoint_evolve_backward(a_final, traj)
    assert np.abs(field - field[-1][None]).max() < 1e-13


def test_backward_pairing_invariant():
    # tr(A(t) rho(t)) is conserved: both sides conjugate with the same U_k.
    rng = np.random.default_rng(2)
    sched = random_schedule(rng, T=200.0)
    grid = TimeGrid(200.0, 100)
    pair = random_pair(rng)
    traj = evolve(pair.rho0, sched, grid)
    a_final = adjoint_boundary(traj.final(), pair.target, SQUARE_MAP)
    field = adjoint_evolve_backward(a_final, traj)
    pairing = np.einsum("tij,tji->t", field, traj.states)
    assert np.abs(pairing - pairing[0]).max() < 1e-10


# -- gradients ---------------------------------------------------------------


def test_gradient_zero_for_diagonal_dynamics():
    # Diagonal rho0 evolving under diagonal H: <zz> never changes, so the
    # coupling gradients vanish identically.
    sched = FourierSchedule.initialized(2, 50.0, n_max=1, tied=True,
                                        tunneling=0.0, bias=1e-3, coupling=2e-3)
    grid = TimeGrid(50.0, 40)
    rho0 = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    pair = TrainingPair(rho0, 0.9)
    traj = evolve(rho0, sched, grid)
    a_final = adjoint_boundary(traj.final(), pair.target, SQUARE_MAP)
    field = adjoint_evolve_backward(a_final, traj)
    cids = [CoefficientId("coupling", 0, basis) for basis in range(sched.width)]
    for g in all_gradients(cids, traj, field, sched, grid):
        assert abs(g) < 1e-14


def test_gradient_matches_central_difference():
    # Spot-check of the per-coefficient finite-difference oracle (the
    # acceptance suite runs the full 20-draw version at M = 1000).
    rng = np.random.default_rng(4)
    grid = TimeGrid(300.0, 400)
    for _ in range(3):
        sched = random_schedule(rng, T=300.0)
        pair = random_pair(rng)
        traj = evolve(pair.rho0, sched, grid)
        a_final = adjoint_boundary(traj.final(), pair.target, SQUARE_MAP)
        field = adjoint_evolve_backward(a_final, traj)
        for cid in rng.choice(list_trainable(sched, {"tunneling": 1.0,
                                                     "coupling": 1.0}), 4):
            g = all_gradients([cid], traj, field, sched, grid)[0]
            h = 1e-4 * KIND_SCALES[cid.kind]
            v = sched.get(cid)
            sched.set(cid, v + h)
            ep = loss(pair, sched, SQUARE_MAP, grid)
            sched.set(cid, v - h)
            em = loss(pair, sched, SQUARE_MAP, grid)
            sched.set(cid, v)
            fd = (ep - em) / (2 * h)
            assert g == pytest.approx(fd, rel=1e-4, abs=1e-10)


def site_generators(num_qubits):
    """Unit generators dH/dP per kind and site, as dense Pauli products."""
    x = [pauli("x", q, num_qubits) for q in range(num_qubits)]
    z = [pauli("z", q, num_qubits) for q in range(num_qubits)]
    return {"tunneling": x, "bias": z,
            "coupling": [z[i] @ z[j] for i, j in pair_indices(num_qubits)]}


def frechet_reference_gradients(sched, traj, field_):
    """-sum_k tr(A_{k+1} (dU_k rho_k U_k^dag + h.c.)) for every coefficient.

    U_k and dU_k come from scipy.linalg.expm_frechet on the dense Pauli-sum
    step Hamiltonian; rho_k and A_{k+1} are the trajectory's and the costate
    field's, so only the per-step derivative and its contraction are checked.
    """
    grid = traj.grid
    gens = site_generators(sched.num_qubits)
    hs = np.einsum("ms,sij->mij", np.hstack(sched.eval_many(grid.midpoints)),
                   np.array([g for kind in KIND_ORDER for g in gens[kind]]))
    basis = sched.basis_row(grid.midpoints)
    cids = sched.coefficient_ids()
    series = {}
    for kind, site in {(cid.kind, cid.site) for cid in cids}:
        sites = sched.sites_for(CoefficientId(kind, site, 0))
        gen = sum((gens[kind][s] for s in sites), np.zeros_like(hs[0]))
        terms = []
        for k, h in enumerate(hs):
            u, du = scipy.linalg.expm_frechet(-1j * grid.dt * h,
                                              -1j * grid.dt * gen)
            half = du @ traj.states[k] @ u.conj().T
            terms.append(np.trace(field_[k + 1] @ (half + half.conj().T)))
        series[kind, site] = np.array(terms)
    return cids, np.array([-np.sum(series[c.kind, c.site] * basis[:, c.basis])
                           for c in cids])


def costate_boundary(rho_f, obs, target):
    """Identity-map boundary (d - tr(rho_f O)) O for a dense observable O."""
    return (target - np.trace(rho_f @ obs).real) * obs


@settings(max_examples=40, deadline=None)
@given(num_qubits=st.integers(1, 4),
       family=st.sampled_from([FourierSchedule, PiecewiseSchedule]),
       tied=st.booleans(), steps=st.integers(1, 40),
       log_scale=st.floats(-5.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_all_gradients_match_frechet_reference(num_qubits, family, tied,
                                               steps, log_scale, seed):
    # Tied draws act identically on every qubit, so their step spectra are
    # exactly degenerate; small scales give nearly degenerate ones.
    rng = np.random.default_rng(seed)
    sched = family.initialized(num_qubits, 10.0, tied=tied)
    for kind in KIND_ORDER:
        sched.coeffs[kind][:] = 10.0**log_scale * rng.uniform(
            -1.0, 1.0, sched.coeffs[kind].shape)
    grid = TimeGrid(sched.T, steps)
    pair = random_pair(rng, num_qubits)
    traj = evolve(pair.rho0, sched, grid)
    # The sweep takes any Hermitian costate; a single qubit has no Z_0 Z_1
    # readout, so its boundary is built here with O = Z_0.
    a_final = (adjoint_boundary(traj.final(), pair.target, IDENTITY_MAP)
               if num_qubits > 1 else
               costate_boundary(traj.final(), pauli("z", 0, 1), pair.target))
    field_ = adjoint_evolve_backward(a_final, traj)
    cids, ref = frechet_reference_gradients(sched, traj, field_)
    grads = all_gradients(cids, traj, field_, sched, grid)
    assert np.abs(ref.imag).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(grads - ref.real).max() <= 1e-12 * np.abs(ref).max()


def test_all_gradients_bundles_all_coefficients():
    # all_gradients raises if the costate's anti-Hermitian part exceeds
    # backprop.IMAG_RESIDUAL_TOL, so returning at all checks the costate.
    rng = np.random.default_rng(6)
    sched = random_schedule(rng, T=100.0)
    grid = TimeGrid(100.0, 50)
    pair = random_pair(rng)
    cids = list_trainable(sched, {"tunneling": 1.0, "coupling": 1.0})
    traj = evolve(pair.rho0, sched, grid)
    field = adjoint_evolve_backward(
        adjoint_boundary(traj.final(), pair.target, SQUARE_MAP), traj)
    grads = all_gradients(cids, traj, field, sched, grid)
    assert grads.shape == (21,)
    # cross-check one entry against a single-coefficient call
    g0 = all_gradients(cids[:1], traj, field, sched, grid)[0]
    assert grads[0] == pytest.approx(g0, rel=1e-12)


def test_all_gradients_rejects_non_hermitian_costate():
    rng = np.random.default_rng(6)
    sched = random_schedule(rng, T=100.0)
    grid = TimeGrid(100.0, 50)
    pair = random_pair(rng)
    traj = evolve(pair.rho0, sched, grid)
    field = adjoint_evolve_backward(
        adjoint_boundary(traj.final(), pair.target, IDENTITY_MAP), traj)
    assert abs(np.trace(traj.final() @ field[-1])) > 1e-3
    with pytest.raises(ValueError, match="non-Hermitian costate"):
        all_gradients(sched.coefficient_ids(), traj, 1j * field, sched, grid)
    # An anti-Hermitian part with zero trace against every rho_k is caught too.
    p = np.diag(np.arange(4.0))
    skew = 1e-3j * (p - np.trace(traj.final() @ p).real * np.eye(4))
    bad = field.copy()
    bad[-1] += skew
    assert abs(np.trace(traj.final() @ skew)) < 1e-15
    with pytest.raises(ValueError, match="non-Hermitian costate"):
        all_gradients(sched.coefficient_ids(), traj, bad, sched, grid)


# -- training loop -----------------------------------------------------------


def test_train_zero_rates_is_a_no_op():
    pairs = build_training_set(2)
    sched = FourierSchedule.initialized(2, 250.0, n_max=3, tied=True)
    cfg = BackpropConfig(learning_rates={"tunneling": 0.0, "bias": 0.0,
                                         "coupling": 0.0}, epochs=3)
    trained, log = train_backprop(pairs, sched, cfg, SQUARE_MAP,
                                  TimeGrid(250.0, 100))
    for kind in ("tunneling", "bias", "coupling"):
        assert np.array_equal(trained.coeffs[kind], sched.coeffs[kind])
    assert np.allclose(log.rms, log.rms[0])


def test_train_input_schedule_not_mutated():
    pairs = build_training_set(2)
    sched = FourierSchedule.initialized(2, 250.0, n_max=3, tied=True)
    before = {k: sched.coeffs[k].copy() for k in sched.coeffs}
    train_backprop(pairs, sched, BackpropConfig(epochs=2), SQUARE_MAP,
                   TimeGrid(250.0, 100))
    for kind, c in before.items():
        assert np.array_equal(sched.coeffs[kind], c)


def test_train_converges_on_default_problem():
    pairs = build_training_set(2)
    sched = FourierSchedule.initialized(2, 250.0, n_max=3, tied=True)
    cfg = BackpropConfig(epochs=200, rms_target=0.02)
    trained, log = train_backprop(pairs, sched, cfg, SQUARE_MAP,
                                  TimeGrid(250.0, 200))
    assert log.rms[-1] <= 0.02
    assert log.rms[-1] < log.rms[0]


def test_config_epochs_default_is_the_run_default():
    assert BackpropConfig().epochs == RunConfig(mode="backprop").epochs


def test_train_raises_on_empty_set():
    with pytest.raises(ValueError):
        train_backprop([], FourierSchedule.initialized(2, 10.0),
                       BackpropConfig(), SQUARE_MAP, TimeGrid(10.0, 5))


def test_divergence_guard():
    # Converge first so the guard's baseline RMS is small, then resume with
    # absurd learning rates: the first oversized step must trip the guard.
    pairs = build_training_set(2)
    grid = TimeGrid(250.0, 100)
    sched = FourierSchedule.initialized(2, 250.0, n_max=3, tied=True)
    good, _ = train_backprop(pairs, sched,
                             BackpropConfig(epochs=200, rms_target=0.02),
                             SQUARE_MAP, grid)
    cfg = BackpropConfig(learning_rates={"tunneling": 1.0, "bias": 0.0,
                                         "coupling": 1.0},
                         epochs=50, accumulate_per_epoch=True)
    with pytest.raises(TrainingDiverged) as exc:
        train_backprop(pairs, good, cfg, SQUARE_MAP, grid)
    assert exc.value.log is not None
    assert len(exc.value.log.records) >= 1


def test_epoch_cost_is_two_solves_per_pair():
    pairs = build_training_set(2)
    sched = FourierSchedule.initialized(2, 250.0, n_max=3, tied=True)
    qcore.solve_count = 0
    train_backprop(pairs, sched, BackpropConfig(epochs=1), SQUARE_MAP,
                   TimeGrid(250.0, 50))
    assert qcore.solve_count == 2 * len(pairs)


def test_backprop_pair_diagonalises_once(monkeypatch):
    # The gradient diagonalises the forward pass's step Hamiltonians once,
    # and reads every coefficient off the step sensitivities without
    # assembling a generator.
    rng = np.random.default_rng(21)
    sched = random_schedule(rng, num_qubits=3)
    pair = random_pair(rng, num_qubits=3)
    grid = TimeGrid(100.0, 40)
    shapes, assembled = [], []
    eigh = np.linalg.eigh
    assemble = qcore.assemble_hamiltonians
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: shapes.append(h.shape) or eigh(h))
    monkeypatch.setattr(qcore, "assemble_hamiltonians",
                        lambda *a: assembled.append(len(a[0])) or assemble(*a))
    traj = evolve(pair.rho0, sched, grid)
    field_ = adjoint_evolve_backward(
        adjoint_boundary(traj.final(), pair.target, SQUARE_MAP), traj)
    all_gradients(sched.coefficient_ids(), traj, field_, sched, grid)
    assert shapes == [(40, 8, 8)]
    assert assembled == [40]
    lam, v = eigh(traj.hamiltonians)
    rebuilt = (v * np.exp(-1j * grid.dt * lam)[:, None, :]) @ v.swapaxes(1, 2)
    assert np.abs(rebuilt - traj.unitaries).max() <= 1e-13
    h = assemble(*sched.eval_many(grid.midpoints), 3)
    assert np.abs((v * lam[:, None, :]) @ v.swapaxes(1, 2) - h).max() <= 1e-13
