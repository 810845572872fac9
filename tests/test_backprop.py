"""Adjoint gradients: analytic structure checks and finite-difference oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from pauli_reference import pauli, zz
from step_reference import block_steps, lift, register_steps

from qdynlearn import qcore
from qdynlearn.backprop import (
    adjoint_boundary,
    adjoint_evolve_backward,
    all_gradients,
    train_backprop,
)
from qdynlearn.config import RunConfig
from qdynlearn.rl import pair_error
from qdynlearn.qcore import (
    DensityMatrix,
    TimeGrid,
    evolve,
    pair_indices,
)
from qdynlearn.schedules import (
    FourierSchedule,
    KIND_ORDER,
    PiecewiseSchedule,
    list_trainable,
)
from qdynlearn.train import TrainConfig, TrainingDiverged
from qdynlearn.witness import TrainingPair, build_training_set

KIND_SCALES = {"tunneling": 2.5e-3, "bias": 1e-4, "coupling": 1e-4}
# The gradient error allowed against the Frechet reference, in eps times
# the size of the terms each gradient sums.  Over 1,400 random draws from
# the hypothesis tests' ranges the error stayed at or below 25 of these.
FRECHET_EPS_MULTIPLE = 100


def random_schedule(rng, num_qubits=2, T=100.0, n_max=3):
    s = FourierSchedule.initialized(num_qubits, T, n_max=n_max, tied=False)
    for kind, scale in KIND_SCALES.items():
        s.coeffs[kind][:] = rng.normal(scale=scale, size=s.coeffs[kind].shape)
    return s


def random_pair(rng, num_qubits=2):
    d = 2**num_qubits
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return TrainingPair(DensityMatrix.from_state_vector(psi), rng.uniform())


def loss(pair, schedule, grid):
    u = qcore.total_propagator(schedule, grid)
    out = qcore.output_value(qcore.populations(u @ pair.rho0.factor))
    return 0.5 * (pair.target - out) ** 2


def final_populations(traj):
    return qcore.populations(traj.register_factors(-1))


def final_rho(traj):
    f = traj.register_factors(-1)
    return f @ f.conj().T


# -- boundary condition ------------------------------------------------------


def test_boundary_zero_when_error_zero():
    rho = DensityMatrix.from_state_vector([1.0, 0, 0, 0])  # <zz> = 1
    a = adjoint_boundary(qcore.populations(rho.factor), 1.0)
    assert np.abs(a).max() == 0.0


def test_boundary_square_map_scale():
    # A(T) = (d - <O>^2) * 2<O> * O = (0.5 - 0.36) * 1.2 * O
    rho = DensityMatrix(np.diag([0.8, 0.2, 0.0, 0.0]).astype(complex))
    a = adjoint_boundary(qcore.populations(rho.factor), 0.5)  # <zz> = 0.6
    assert np.allclose(a, 0.168 * zz(2))


def test_boundary_square_map_vanishes_at_zero_expectation():
    # The squared output has zero slope at <zz> = 0, so the costate vanishes
    # even with error.
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
    a = adjoint_boundary(qcore.populations(rho.factor), 0.7)
    assert np.abs(a).max() == 0.0


# -- backward sweep ----------------------------------------------------------


def test_backward_constant_under_zero_hamiltonian():
    sched = FourierSchedule.initialized(2, 10.0, n_max=0, tied=True,
                                        tunneling=0.0, bias=0.0, coupling=0.0)
    grid = TimeGrid(10.0, 20)
    rho0 = DensityMatrix.from_state_vector([1, 0, 0, 1])
    traj = evolve(rho0, sched, grid)
    a_final = adjoint_boundary(final_populations(traj), 0.0)
    chi = adjoint_evolve_backward(a_final, traj)
    assert np.abs(chi - chi[-1][None]).max() < 1e-13


def test_backward_pairing_invariant():
    # tr(A(t) rho(t)) = sum chi_k^dag F_k is conserved: chi_k = U_k^dag
    # chi_{k+1} and F_{k+1} = U_k F_k use the same U_k.
    rng = np.random.default_rng(2)
    sched = random_schedule(rng, T=200.0)
    grid = TimeGrid(200.0, 100)
    pair = random_pair(rng)
    traj = evolve(pair.rho0, sched, grid)
    a_final = adjoint_boundary(final_populations(traj), pair.target)
    chi = adjoint_evolve_backward(a_final, traj)
    pairing = np.einsum("tir,tir->t", chi.conj(), traj.factors)
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
    a_final = adjoint_boundary(final_populations(traj), pair.target)
    chi = adjoint_evolve_backward(a_final, traj)
    coupling = list_trainable(sched, {"coupling": 1.0})
    assert len(coupling) == sched.width
    for g in all_gradients(coupling, traj, chi, sched, grid):
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
        a_final = adjoint_boundary(final_populations(traj), pair.target)
        chi = adjoint_evolve_backward(a_final, traj)
        scales = sched.per_index(KIND_SCALES)
        for i in rng.choice(list_trainable(sched, {"tunneling": 1.0,
                                                   "coupling": 1.0}), 4):
            g = all_gradients([i], traj, chi, sched, grid)[0]
            h = 1e-4 * scales[i]
            v = sched.params[i]
            sched.params[i] = v + h
            ep = loss(pair, sched, grid)
            sched.params[i] = v - h
            em = loss(pair, sched, grid)
            sched.params[i] = v
            fd = (ep - em) / (2 * h)
            assert g == pytest.approx(fd, rel=1e-4, abs=1e-10)


def site_generators(num_qubits):
    """Unit generators dH/dP per kind and site, as dense Pauli products."""
    x = [pauli("x", q, num_qubits) for q in range(num_qubits)]
    z = [pauli("z", q, num_qubits) for q in range(num_qubits)]
    return {"tunneling": x, "bias": z,
            "coupling": [z[i] @ z[j] for i, j in pair_indices(num_qubits)]}


def costate_field(a_final, sched, grid):
    """Dense costates A_k = U_k^dag A_{k+1} U_k from A_M = a_final."""
    field_ = [a_final]
    for u in register_steps(sched, grid)[::-1]:
        field_.append(u.conj().T @ field_[-1] @ u)
    return np.array(field_[::-1])


def frechet_reference_gradients(sched, traj, a_final):
    """-sum_k tr(A_{k+1} (dU_k rho_k U_k^dag + h.c.)) for every coefficient.

    U_k and dU_k come from scipy.linalg.expm_frechet on the dense Pauli-sum
    step Hamiltonian; rho_k is the trajectory's and A_{k+1} is conjugated
    back from `a_final` here, so only the per-step derivative and its
    contraction are taken from outside the code under test.
    Returns (gradients, sizes) in `params` order: kind, then row, then
    basis function.  A coefficient's size bounds the terms its gradient
    sums, ||A|| dt ||G_row|| sum_k |b(t_k)| (||.|| the spectral norm, and
    tr rho_k = 1), since ||dU_k|| <= dt ||G_row||.
    """
    grid = traj.grid
    field_ = costate_field(a_final, sched, grid)
    states = traj.states
    gens = site_generators(sched.num_qubits)
    row_gens = []  # dH/dP per row of `params`
    for kind in KIND_ORDER:
        # A tied row drives every site of its kind.
        row_gens += ([sum(gens[kind], np.zeros_like(field_[0]))] if sched.tied
                     else gens[kind])
    hs = np.einsum("mg,gij->mij", sched.eval_many(grid.midpoints),
                   np.array(row_gens))
    basis = sched.basis_row(grid.midpoints)
    # ||A|| dt sum_k |b(t_k)| per basis function
    scale = np.linalg.norm(a_final, 2) * grid.dt * np.abs(basis).sum(axis=0)
    ref, sizes = [], []
    for gen in row_gens:
        terms = []
        for k, h in enumerate(hs):
            u, du = scipy.linalg.expm_frechet(-1j * grid.dt * h,
                                              -1j * grid.dt * gen)
            half = du @ states[k] @ u.conj().T
            terms.append(np.trace(field_[k + 1] @ (half + half.conj().T)))
        ref += [-np.sum(np.array(terms) * basis[:, b])
                for b in range(sched.width)]
        sizes += list(np.linalg.norm(gen, 2) * scale)
    return np.array(ref), np.array(sizes)


def costate_boundary(rho_f, obs, target):
    """Linear-readout boundary (d - tr(rho_f O)) O for a dense observable O."""
    return (target - np.trace(rho_f @ obs).real) * obs


def random_state(rng, num_qubits, rank):
    """rho0 = G G^dag / tr of a complex Gaussian G of `rank` columns."""
    g = (rng.normal(size=(2**num_qubits, rank))
         + 1j * rng.normal(size=(2**num_qubits, rank)))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def check_against_frechet(sched, log_scale, steps, seed, rank):
    """all_gradients equals the Frechet reference (`assert_matches_frechet`).

    Every coefficient is drawn from +-10^log_scale; rho0 has rank 1, 2 or d.
    Returns the trajectory.
    """
    rng = np.random.default_rng(seed)
    num_qubits = sched.num_qubits
    for kind in KIND_ORDER:
        sched.coeffs[kind][:] = 10.0**log_scale * rng.uniform(
            -1.0, 1.0, sched.coeffs[kind].shape)
    r = {"pure": 1, "two": 2, "full": 2**num_qubits}[rank]
    pair = TrainingPair(random_state(rng, num_qubits, r), rng.uniform())
    assert pair.rho0.factor.shape == (2**num_qubits, r)
    return assert_matches_frechet(sched, pair, TimeGrid(sched.T, steps))


def assert_matches_frechet(sched, pair, grid):
    """Check one pair's all_gradients against the Frechet reference.

    Returns the trajectory.
    """
    num_qubits = sched.num_qubits
    traj = evolve(pair.rho0, sched, grid)
    # The sweep takes any Hermitian costate; a single qubit has no Z_0 Z_1
    # readout, so its boundary is built here with O = Z_0.
    obs = zz(num_qubits) if num_qubits > 1 else pauli("z", 0, 1)
    a_final = costate_boundary(final_rho(traj), obs, pair.target)
    chi = adjoint_evolve_backward(a_final, traj)
    ref, sizes = frechet_reference_gradients(sched, traj, a_final)
    grads = all_gradients(np.arange(sched.params.size), traj, chi, sched,
                          grid)
    # Round-off in either sum is a few eps of the terms it adds, however
    # much they cancel: bound each coefficient by its own terms' size.
    bound = FRECHET_EPS_MULTIPLE * np.finfo(float).eps * sizes
    assert (np.abs(ref.imag) <= bound).all()
    assert (np.abs(grads - ref.real) <= bound).all()
    return traj


# A draw whose steps have theta = ||H dt||_1 of about 11, past the largest
# Taylor degree's reach: the gradient pulls back through three squarings.
# Random draws reach the squarings in about 1 of 20.
SQUARING_DRAW = dict(num_qubits=3, family=PiecewiseSchedule, tied=False,
                     steps=2, log_scale=-0.3, seed=2, rank="two")


@settings(max_examples=40, deadline=None)
@given(num_qubits=st.integers(1, 4),
       family=st.sampled_from([FourierSchedule, PiecewiseSchedule]),
       tied=st.booleans(), steps=st.integers(1, 40),
       log_scale=st.floats(-5.0, 0.0), seed=st.integers(0, 2**32 - 1),
       rank=st.sampled_from(["pure", "two", "full"]))
@example(**SQUARING_DRAW)
def test_all_gradients_match_frechet_reference(num_qubits, family, tied,
                                               steps, log_scale, seed, rank):
    # Tied draws act identically on every qubit, so their step spectra are
    # exactly degenerate; small scales give nearly degenerate ones.
    check_against_frechet(family.initialized(num_qubits, 10.0, tied=tied),
                          log_scale, steps, seed, rank)


def test_squaring_draw_takes_squarings():
    draw = dict(SQUARING_DRAW)
    sched = draw.pop("family").initialized(draw.pop("num_qubits"), 10.0,
                                           tied=draw.pop("tied"))
    traj = check_against_frechet(sched, **draw)
    theta = qcore._one_norm(traj.hamiltonians * traj.grid.dt)
    assert qcore._taylor_degree(theta)[2] == 3


@settings(max_examples=10, deadline=None)
@given(num_qubits=st.integers(5, 6),
       family=st.sampled_from([FourierSchedule, PiecewiseSchedule]),
       steps=st.integers(1, 10), log_scale=st.floats(-5.0, 0.0),
       seed=st.integers(0, 2**32 - 1),
       rank=st.sampled_from(["pure", "two", "full"]))
# Coefficients of at most 3e-5 give gradients of 2.5e-4 from terms of size
# 10-20: the round-off of their sum is 7x a bound of 1e-12 of the largest
# gradient, and 0.8 eps of the terms' size.
@example(num_qubits=5, family=PiecewiseSchedule, steps=1, log_scale=-4.5,
         seed=173, rank="pure")
def test_tied_gradients_match_frechet_reference_large_registers(
        num_qubits, family, steps, log_scale, seed, rank):
    # N = 5 and 6 hold spin blocks of 6, 4, 2 and 7, 5, 3, 1, with up to
    # nine copies each.
    check_against_frechet(family.initialized(num_qubits, 10.0, tied=True),
                          log_scale, steps, seed, rank)


@pytest.mark.parametrize("num_qubits", [3, 4, 5])
def test_support_solves_match_frechet_reference_on_the_training_set(
        num_qubits):
    # Random states occupy every spin block; the training states do not, so
    # their solves drop blocks and copies.  The reference works on the
    # whole register, with a costate that is not permutation symmetric.
    rng = np.random.default_rng(40 + num_qubits)
    sched = FourierSchedule.initialized(num_qubits, 10.0, tied=True)
    for kind in KIND_ORDER:
        sched.coeffs[kind][:] = 0.1 * rng.uniform(-1.0, 1.0,
                                                  sched.coeffs[kind].shape)
    full = qcore.block_basis(num_qubits, True)
    for pair in build_training_set(num_qubits):
        traj = assert_matches_frechet(sched, pair, TimeGrid(10.0, 20))
        assert traj.basis.blocks != full.blocks


@pytest.mark.parametrize("num_qubits, tied", [(2, False), (4, True),
                                              (6, True)])
def test_scanned_sweeps_match_sequential_sweeps(num_qubits, tied):
    # The oracle is the per-step sweep: F_{k+1} = U_k F_k forward and
    # chi_k = U_k^dag chi_{k+1} backward, with the step unitaries of the
    # schedule's block basis.  A random state has full support.
    rng = np.random.default_rng(60 + num_qubits)
    sched = FourierSchedule.initialized(num_qubits, 100.0, n_max=3,
                                        tied=tied)
    for kind in KIND_ORDER:
        sched.coeffs[kind][:] = rng.normal(scale=1e-2,
                                           size=sched.coeffs[kind].shape)
    pair = random_pair(rng, num_qubits)
    grid = TimeGrid(100.0, 60)
    basis = qcore.block_basis(num_qubits, tied)
    traj = evolve(pair.rho0, sched, grid)
    a_final = adjoint_boundary(final_populations(traj), pair.target)
    chi = adjoint_evolve_backward(a_final, traj)
    assert traj.basis.blocks == basis.blocks
    us = block_steps(sched, grid)
    factors = [basis.fold(pair.rho0.factor)]
    for u in us:
        factors.append(u @ factors[-1])
    costates = [basis.fold(a_final @ basis.unfold(factors[-1]))]
    for u in us[::-1]:
        costates.append(u.conj().T @ costates[-1])
    for got, want in ((traj.factors, np.array(factors)),
                      (chi, np.array(costates[::-1]))):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_all_gradients_bundles_all_coefficients():
    rng = np.random.default_rng(6)
    sched = random_schedule(rng, T=100.0)
    grid = TimeGrid(100.0, 50)
    pair = random_pair(rng)
    idx = list_trainable(sched, {"tunneling": 1.0, "coupling": 1.0})
    traj = evolve(pair.rho0, sched, grid)
    chi = adjoint_evolve_backward(
        adjoint_boundary(final_populations(traj), pair.target), traj)
    grads = all_gradients(idx, traj, chi, sched, grid)
    assert grads.shape == (21,)
    # cross-check one entry against a single-coefficient call
    g0 = all_gradients(idx[:1], traj, chi, sched, grid)[0]
    assert grads[0] == pytest.approx(g0, rel=1e-12)


def test_all_gradients_rejects_non_hermitian_costate():
    # The backward sweep checks its boundary A_M, which it never forms again.
    rng = np.random.default_rng(6)
    sched = random_schedule(rng, T=100.0)
    grid = TimeGrid(100.0, 50)
    pair = random_pair(rng)
    traj = evolve(pair.rho0, sched, grid)
    a_final = costate_boundary(final_rho(traj), zz(2), pair.target)
    assert abs(np.trace(final_rho(traj) @ a_final)) > 1e-3
    with pytest.raises(ValueError, match="non-Hermitian costate"):
        adjoint_evolve_backward(1j * a_final, traj)
    # An anti-Hermitian part with zero trace against rho_M is caught too.
    p = np.diag(np.arange(4.0))
    skew = 1e-3j * (p - np.trace(final_rho(traj) @ p).real * np.eye(4))
    assert abs(np.trace(final_rho(traj) @ skew)) < 1e-15
    with pytest.raises(ValueError, match="non-Hermitian costate"):
        adjoint_evolve_backward(a_final + skew, traj)


# -- training loop -----------------------------------------------------------


def test_train_zero_rates_is_a_no_op():
    pairs = build_training_set(2)
    sched = FourierSchedule.initialized(2, 250.0, n_max=3, tied=True)
    cfg = TrainConfig(learning_rates={"tunneling": 0.0, "bias": 0.0,
                                      "coupling": 0.0}, epochs=3)
    trained, log = train_backprop(pairs, sched, cfg,
                                  TimeGrid(250.0, 100))
    for kind in ("tunneling", "bias", "coupling"):
        assert np.array_equal(trained.coeffs[kind], sched.coeffs[kind])
    assert np.allclose(log.rms, log.rms[0])


def test_train_input_schedule_not_mutated():
    pairs = build_training_set(2)
    sched = FourierSchedule.initialized(2, 250.0, n_max=3, tied=True)
    before = {k: sched.coeffs[k].copy() for k in sched.coeffs}
    train_backprop(pairs, sched, TrainConfig(epochs=2),
                   TimeGrid(250.0, 100))
    for kind, c in before.items():
        assert np.array_equal(sched.coeffs[kind], c)


def test_train_converges_on_default_problem():
    pairs = build_training_set(2)
    sched = FourierSchedule.initialized(2, 250.0, n_max=3, tied=True)
    cfg = TrainConfig(epochs=200, rms_target=0.02)
    trained, log = train_backprop(pairs, sched, cfg,
                                  TimeGrid(250.0, 200))
    assert log.rms[-1] <= 0.02
    assert log.rms[-1] < log.rms[0]


def test_config_epochs_default_is_the_run_default():
    assert TrainConfig().epochs == RunConfig(mode="backprop").epochs


def test_train_raises_on_empty_set():
    with pytest.raises(ValueError):
        train_backprop([], FourierSchedule.initialized(2, 10.0),
                       TrainConfig(), TimeGrid(10.0, 5))


def test_divergence_guard():
    # Converge first so the guard's baseline RMS is small, then resume with
    # rates about 100x the defaults: the per-pair steps overshoot at epoch 1
    # and the ratio guard (not the non-finite check) must trip.
    pairs = build_training_set(2)
    grid = TimeGrid(250.0, 100)
    sched = FourierSchedule.initialized(2, 250.0, n_max=3, tied=True)
    good, _ = train_backprop(pairs, sched,
                             TrainConfig(epochs=200, rms_target=0.02), grid)
    cfg = TrainConfig(learning_rates={"tunneling": 3e-5, "coupling": 3e-5},
                      epochs=50)
    with pytest.raises(TrainingDiverged) as exc:
        train_backprop(pairs, good, cfg, grid)
    assert exc.value.log is not None
    assert len(exc.value.log.records) >= 1
    assert np.isfinite(exc.value.log.rms).all()


def test_epoch_cost_is_two_solves_per_pair():
    pairs = build_training_set(2)
    sched = FourierSchedule.initialized(2, 250.0, n_max=3, tied=True)
    qcore.solve_count = 0
    train_backprop(pairs, sched, TrainConfig(epochs=1),
                   TimeGrid(250.0, 50))
    assert qcore.solve_count == 2 * len(pairs)


def test_epoch_never_diagonalises(monkeypatch):
    # One tied epoch at N = 4 makes no eigh call: the gradient pulls back
    # through the step exponential's Taylor polynomial, and the states'
    # factors are their state vectors.  The block basis (and with it the
    # spin basis) is built first, once per process.
    pairs = build_training_set(4)
    sched = FourierSchedule.initialized(4, 250.0, n_max=3, tied=True)
    qcore.block_basis(4, True)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: calls.append(h.shape) or eigh(h))
    qcore.solve_count = 0
    train_backprop(pairs, sched, TrainConfig(epochs=1),
                   TimeGrid(250.0, 50))
    assert len(pairs) == 4
    assert [pair.label for pair in pairs] == [
        "product_zeros", "ghz", "product_superposition", "partial"]
    assert calls == []
    assert qcore.solve_count == 8


def test_backprop_pair_never_diagonalises(monkeypatch):
    # The gradient pulls back through the forward pass's step exponential
    # without an eigh call, and reads every coefficient off the step
    # sensitivities without assembling a generator.
    rng = np.random.default_rng(21)
    sched = random_schedule(rng, num_qubits=3)
    pair = random_pair(rng, num_qubits=3)  # a pure state: no eigh of its own
    grid = TimeGrid(100.0, 40)
    shapes, assembled = [], []
    eigh = np.linalg.eigh
    assemble = qcore.assemble_hamiltonians
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: shapes.append(h.shape) or eigh(h))
    monkeypatch.setattr(qcore, "assemble_hamiltonians",
                        lambda *a: assembled.append(len(a[0])) or assemble(*a))
    traj = evolve(pair.rho0, sched, grid)
    chi = adjoint_evolve_backward(
        adjoint_boundary(final_populations(traj), pair.target), traj)
    all_gradients(np.arange(sched.params.size), traj, chi, sched, grid)
    assert shapes == []
    assert assembled == [40]
    lam, v = eigh(lift(traj.basis, traj.hamiltonians))
    rebuilt = (v * np.exp(-1j * grid.dt * lam)[:, None, :]) @ v.swapaxes(1, 2)
    us = register_steps(sched, grid)
    assert np.abs(rebuilt - us).max() <= 1e-13
    h = assemble(sched.eval_many(grid.midpoints),
                 qcore.generators(3, sched.tied))
    assert np.abs((v * lam[:, None, :]) @ v.swapaxes(1, 2) - h).max() <= 1e-13


def test_training_products_run_on_real_stacks(monkeypatch):
    # The step products of an RL error (tied N = 3, 200 steps) and of a
    # backprop pair (tied N = 4, on the 5-side symmetric block) take real
    # forms R(U_k): one real matmul per matrix pair, where numpy would make
    # one complex BLAS call per matrix.
    seen = []
    for name in ("ordered_product", "prefix_products"):
        fn = getattr(qcore, name)
        monkeypatch.setattr(qcore, name, lambda us, fn=fn, name=name: (
            seen.append((name, us.dtype, us.shape)) or fn(us)))
    sched = FourierSchedule.initialized(3, 250.0, n_max=3, tied=True)
    grid = TimeGrid(250.0, 200)
    pair_error(build_training_set(3)[0], sched, grid)
    sched = FourierSchedule.initialized(4, 250.0, n_max=3, tied=True)
    pair = build_training_set(4)[0]
    traj = evolve(pair.rho0, sched, grid)
    chi = adjoint_evolve_backward(
        adjoint_boundary(final_populations(traj), pair.target), traj)
    all_gradients(np.arange(sched.params.size), traj, chi, sched, grid)
    # The scan's recursive calls on the neighbour products come after.
    assert seen[:2] == [("ordered_product", np.float64, (200, 8, 8)),
                        ("prefix_products", np.float64, (200, 10, 10))]
    assert all(dtype == np.float64 for _, dtype, _ in seen)
    assert traj.propagators.dtype == complex


@pytest.mark.parametrize("num_qubits", [4, 5, 6])
def test_tied_solves_run_on_the_spin_blocks(num_qubits, monkeypatch):
    # A tied propagator occupies every spin block and copy, so it
    # assembles and exponentiates (M, d, d) stacks.  A tied gradient pair
    # from |0..0> works on the symmetric block it occupies alone,
    # 2j+1 = N+1, with no (M, d, d) array, and never diagonalises.
    basis = qcore.block_basis(num_qubits, True)  # built before the spies
    sched = FourierSchedule.initialized(num_qubits, 250.0, n_max=3, tied=True)
    grid = TimeGrid(250.0, 50)
    pair = build_training_set(num_qubits)[0]
    seen = {"assemble": [], "expm": [], "eigh": []}
    assemble, expm, eigh = (qcore.assemble_hamiltonians, qcore.expm_hermitian,
                            np.linalg.eigh)

    def spy(name, fn, shape_of):
        def wrapped(*args):
            out = fn(*args)
            seen[name].append(shape_of(args, out))
            return out
        return wrapped

    monkeypatch.setattr(qcore, "assemble_hamiltonians",
                        spy("assemble", assemble, lambda a, out: out.shape))
    monkeypatch.setattr(qcore, "expm_hermitian",
                        spy("expm", expm, lambda a, out: a[0].shape))
    monkeypatch.setattr(np.linalg, "eigh",
                        spy("eigh", eigh, lambda a, out: a[0].shape))
    qcore.total_propagator(sched, grid)
    traj = evolve(pair.rho0, sched, grid)
    chi = adjoint_evolve_backward(
        adjoint_boundary(final_populations(traj), pair.target), traj)
    all_gradients(np.arange(sched.params.size), traj, chi, sched, grid)
    d, sym = 2**num_qubits, num_qubits + 1
    assert seen["assemble"] == seen["expm"] == [(50, d, d), (50, sym, sym)]
    assert seen["eigh"] == []
    assert basis.size == d and traj.basis.blocks == (sym,)
