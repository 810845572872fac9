"""Core linear algebra and evolution tests against closed-form oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from pauli_reference import pauli, zz

from qdynlearn import qcore
from qdynlearn.qcore import (
    DensityMatrix,
    IDENTITY_MAP,
    SQUARE_MAP,
    TimeGrid,
    evolve,
    final_state,
    output_value,
    pair_indices,
    total_propagator,
    zz_expectation,
)
from qdynlearn.schedules import KIND_ORDER, FourierSchedule, PiecewiseSchedule


def bell_state():
    return DensityMatrix.from_state_vector([1.0, 0.0, 0.0, 1.0])


def test_pair_indices_order():
    assert pair_indices(2) == [(0, 1)]
    assert pair_indices(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(pair_indices(5)) == 10


# -- Hamiltonian assembly ----------------------------------------------------


def test_build_hamiltonian_single_qubit():
    h = qcore.assemble_hamiltonians(np.array([[0.3]]), np.array([[0.7]]),
                                    np.zeros((1, 0)), 1)
    assert np.allclose(h[0], [[0.7, 0.3], [0.3, -0.7]])


def test_build_hamiltonian_coupling_only():
    h = qcore.assemble_hamiltonians(np.zeros((1, 2)), np.zeros((1, 2)),
                                    np.array([[0.5]]), 2)
    assert np.allclose(h[0], np.diag([0.5, -0.5, -0.5, 0.5]))


def pauli_sum(tunneling, bias, coupling, num_qubits):
    """Reference H = sum K_i X_i + sum eps_i Z_i + sum zeta_ij Z_i Z_j from krons."""
    x = [pauli("x", q, num_qubits) for q in range(num_qubits)]
    z = [pauli("z", q, num_qubits) for q in range(num_qubits)]
    h = sum(tunneling[q] * x[q] + bias[q] * z[q] for q in range(num_qubits))
    for col, (i, j) in enumerate(pair_indices(num_qubits)):
        h = h + coupling[col] * z[i] @ z[j]
    return h


@st.composite
def random_schedules(draw):
    """Either family, tied or untied, N = 1..6, coefficients in [-1, 1]."""
    family = draw(st.sampled_from([FourierSchedule, PiecewiseSchedule]))
    sched = family.initialized(draw(st.integers(1, 6)), 10.0,
                               tied=draw(st.booleans()))
    for kind in KIND_ORDER:
        sched.coeffs[kind][:] = draw(arrays(
            float, sched.coeffs[kind].shape, elements=st.floats(-1.0, 1.0)))
    return sched


@settings(max_examples=40, deadline=None)
@given(sched=random_schedules())
def test_assemble_hamiltonians_matches_pauli_sum(sched):
    k, e, z = sched.eval_many(np.linspace(0.0, sched.T, 5))
    h = qcore.assemble_hamiltonians(k, e, z, sched.num_qubits)
    ref = np.stack([pauli_sum(*row, sched.num_qubits) for row in zip(k, e, z)])
    assert h.dtype == np.float64
    assert np.abs(h - ref).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(sched=random_schedules(), seed=st.integers(0, 2**32 - 1))
def test_contract_hamiltonians_is_the_transposed_assembly(sched, seed):
    # <assemble(k, e, z), w> = <(k, e, z), contract(w)> for any stack w.
    k, e, z = sched.eval_many(np.linspace(0.0, sched.T, 3))
    d = 2**sched.num_qubits
    w = np.random.default_rng(seed).normal(size=(3, d, d))
    lhs = np.sum(qcore.assemble_hamiltonians(k, e, z, sched.num_qubits) * w,
                 axis=(1, 2))
    tk, te, tz = qcore.contract_hamiltonians(w, sched.num_qubits)
    assert (tk.shape, te.shape, tz.shape) == (k.shape, e.shape, z.shape)
    rhs = np.sum(k * tk, 1) + np.sum(e * te, 1) + np.sum(z * tz, 1)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())


@settings(max_examples=20, deadline=None)
@given(sched=random_schedules())
def test_total_propagator_is_the_sequential_step_product(sched):
    for steps in (1, 2, 3, 7, 200):  # odd counts leave a factor over
        grid = TimeGrid(sched.T, steps)
        ref = np.eye(2**sched.num_qubits)
        for u in qcore.step_unitaries(sched, grid):
            ref = u @ ref
        assert np.abs(total_propagator(sched, grid) - ref).max() <= 1e-12


# -- eigendecomposition-free exponential --------------------------------------


def theta_norm(x):
    """||x||_1 over a stack: the largest absolute column sum of any matrix."""
    return np.abs(x).sum(axis=-2).max()


def assert_matches_expm(h, dt):
    u = qcore.expm_hermitian(h, dt)
    ref = np.stack([scipy.linalg.expm(-1j * m * dt) for m in h])
    eye = np.eye(h.shape[-1])
    assert np.abs(u - ref).max() <= 1e-13
    assert np.abs(u @ u.conj().swapaxes(-1, -2) - eye).max() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(sched=random_schedules(),
       theta=st.one_of(st.just(0.0), st.floats(1e-6, 12.0)))
def test_expm_hermitian_matches_scipy_expm(sched, theta):
    # theta = ||H dt||_1 from the identity (0) through every Taylor degree
    # and, above 2.656, the scaling-and-squaring branch.
    k, e, z = sched.eval_many(np.linspace(0.0, sched.T, 3))
    h = qcore.assemble_hamiltonians(k, e, z, sched.num_qubits)
    norm = theta_norm(h)
    assert_matches_expm(h, theta / norm if norm > 0 else 1.0)


@pytest.mark.parametrize("num_qubits", range(1, 7))
@pytest.mark.parametrize("theta", [0.0, 1e-3, 0.05, 0.3, 0.9, 2.5, 10.0, 40.0])
def test_expm_hermitian_every_degree_and_squaring(num_qubits, theta):
    rng = np.random.default_rng(num_qubits)
    d = 2**num_qubits
    a = rng.normal(size=(3, d, d))
    h = a + a.swapaxes(-1, -2)
    assert_matches_expm(h, theta / theta_norm(h))


def test_taylor_table_reaches_unit_roundoff():
    # Each degree's reach keeps the a-priori Taylor remainder
    # sum_{k > 2q+1} theta^k / k! at or below 2^-53 theta.
    reaches = []
    for p, coef, reach in qcore._TAYLOR:
        degree = 2 * (np.count_nonzero(coef[0]) - 1) + 1
        tail = sum(reach**k / math.factorial(k)
                   for k in range(degree + 1, degree + 60))
        assert tail <= 2.0**-53 * reach
        reaches.append(reach)
    assert reaches == sorted(reaches)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_hermitian_rejects_non_finite_input(bad):
    h = np.zeros((3, 4, 4))
    h[1, 2, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        qcore.expm_hermitian(h, 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        qcore.expm_hermitian(np.ones((1, 2, 2)), bad)


def eigh_unitaries(h, dt):
    """exp(-i h dt) per step from a batched eigendecomposition."""
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * lam)[..., None, :]) @ v.swapaxes(-1, -2)


def perturbed_default(family, num_qubits, T=250.0):
    """The family's default start with every coefficient perturbed by 1%."""
    rng = np.random.default_rng(num_qubits)
    sched = family.initialized(num_qubits, T, tied=False)
    for c in sched.coeffs.values():
        c *= 1.0 + 0.01 * rng.normal(size=c.shape)
    return sched


@pytest.mark.parametrize("family", [FourierSchedule, PiecewiseSchedule])
@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_total_propagator_equals_eigh_step_product(family, num_qubits):
    # A training-sized solve (T = 250 ns, 200 steps) from the default start,
    # every coefficient perturbed by 1%, against the sequential products of
    # eigh-based step unitaries and of scipy's expm.
    sched = perturbed_default(family, num_qubits)
    grid = TimeGrid(sched.T, 200)
    h = qcore.step_hamiltonians(sched, grid)
    eigh_steps = eigh_unitaries(h, grid.dt)
    assert np.abs(qcore.expm_hermitian(h, grid.dt) - eigh_steps).max() <= 1e-14
    eigh_ref = scipy_ref = np.eye(2**sched.num_qubits)
    for u, m in zip(eigh_steps, h):
        eigh_ref = u @ eigh_ref
        scipy_ref = scipy.linalg.expm(-1j * m * grid.dt) @ scipy_ref
    u = total_propagator(sched, grid)
    assert np.abs(u - scipy_ref).max() <= 1e-13
    # The eigh steps carry about 2e-15 of round-off each (the Taylor steps
    # about 2e-16), and on a slowly varying schedule it adds up over the 200
    # steps: up to 1.8e-13 against scipy's product at N = 4.  So the
    # comparison with the eigh product allows that drift on top of 1e-13.
    eigh_drift = np.abs(eigh_ref - scipy_ref).max()
    assert np.abs(u - eigh_ref).max() <= 1e-13 + eigh_drift


@pytest.mark.parametrize("num_qubits", range(2, 6))
def test_evolve_final_state_equals_final_state(num_qubits):
    # Both solves take the same step exponential; only the order of the
    # products differs (state by state against the pairwise propagator).
    sched = perturbed_default(FourierSchedule, num_qubits)
    grid = TimeGrid(sched.T, 200)
    d = 2**num_qubits
    rng = np.random.default_rng(100 + num_qubits)
    rho0 = DensityMatrix.from_state_vector(rng.normal(size=d)
                                           + 1j * rng.normal(size=d))
    traj = evolve(rho0, sched, grid)
    assert np.abs(traj.final() - final_state(rho0, sched, grid)).max() <= 1e-14


# -- state and grid validation -----------------------------------------------


def test_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    # NaN fails every comparison, so only an explicit check rejects it.
    with pytest.raises(ValueError,
                       match=r"non-finite entry \(nan\+0j\) at \[0, 1\]"):
        DensityMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))


def test_from_state_vector_normalizes():
    rho = DensityMatrix.from_state_vector([3.0, 4.0])
    assert np.allclose(np.diag(rho.matrix).real, [0.36, 0.64])
    with pytest.raises(ValueError):
        DensityMatrix.from_state_vector([0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix.from_state_vector([np.inf, 1.0])


def test_time_grid():
    g = TimeGrid(10.0, 4)
    assert g.dt == 2.5
    assert np.allclose(g.times, [0.0, 2.5, 5.0, 7.5, 10.0])
    assert np.allclose(g.midpoints, [1.25, 3.75, 6.25, 8.75])
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


# -- expectation values ------------------------------------------------------


def test_expectation_bell_zz():
    assert zz_expectation(bell_state().matrix) == pytest.approx(1.0)


def test_expectation_antialigned():
    rho = DensityMatrix.from_state_vector([0.0, 1.0, 0.0, 0.0])  # |01>
    assert zz_expectation(rho.matrix) == pytest.approx(-1.0)


def test_expectation_maximally_mixed():
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
    assert zz_expectation(rho.matrix) == pytest.approx(0.0)


@pytest.mark.parametrize("num_qubits", range(2, 7))
def test_zz_expectation_equals_dense_trace(num_qubits):
    # The parity readout against tr(rho Z_0 Z_1) from dense krons, on a
    # random full-rank mixed state.
    d = 2**num_qubits
    rng = np.random.default_rng(num_qubits)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    ref = np.trace(rho.matrix @ zz(num_qubits))
    assert abs(zz_expectation(rho.matrix) - ref) <= 1e-14


def test_expectation_non_real_raises():
    # A diagonal with an imaginary part (not a Hermitian input) must fail
    # loudly, also under python -O.
    with pytest.raises(ValueError, match="non-real"):
        zz_expectation(np.diag([0.5, 0.25j, 0.0, 0.5]))


def test_output_maps():
    rho = DensityMatrix.from_state_vector([0.0, 1.0, 0.0, 0.0]).matrix
    assert output_value(rho, IDENTITY_MAP) == pytest.approx(-1.0)
    assert output_value(rho, SQUARE_MAP) == pytest.approx(1.0)
    assert SQUARE_MAP.derivative(-1.0) == pytest.approx(-2.0)


# -- evolution ---------------------------------------------------------------


def constant_schedule(num_qubits, T, tunneling=0.0, bias=0.0, coupling=0.0):
    return FourierSchedule.initialized(
        num_qubits, T, n_max=0, tied=True,
        tunneling=tunneling, bias=bias, coupling=coupling)


def test_evolve_zero_hamiltonian_is_static():
    grid = TimeGrid(10.0, 50)
    traj = evolve(bell_state(), constant_schedule(2, 10.0), grid)
    assert np.allclose(traj.states, traj.states[0][None], atol=1e-14)
    assert np.allclose(traj.unitaries, np.eye(4)[None], atol=1e-14)


def test_evolve_rabi_flip():
    # Pure tunneling on one qubit of a 2-qubit register: pulse area K*T =
    # pi/2 takes |00> to |10> exactly (up to phase), for any step count.
    T = 20.0
    k = np.pi / (2 * T)
    sched = FourierSchedule.initialized(2, T, n_max=0, tied=False)
    sched.coeffs["tunneling"][:] = 0.0
    sched.coeffs["tunneling"][0, 0] = k
    sched.coeffs["bias"][:] = 0.0
    sched.coeffs["coupling"][:] = 0.0
    rho0 = DensityMatrix.from_state_vector([1.0, 0.0, 0.0, 0.0])
    rho_f = final_state(rho0, sched, TimeGrid(T, 64))
    expected = np.zeros((4, 4))
    expected[2, 2] = 1.0  # |10><10|
    assert np.abs(rho_f - expected).max() < 1e-10


def test_evolve_diagonal_hamiltonian_preserves_populations():
    sched = constant_schedule(2, 5.0, bias=0.3, coupling=0.2)
    rho0 = DensityMatrix.from_state_vector([0.5, 0.5, 0.5, 0.5])
    traj = evolve(rho0, sched, TimeGrid(5.0, 40))
    diags = np.diagonal(traj.states, axis1=1, axis2=2).real
    assert np.abs(diags - diags[0]).max() < 1e-12


def test_step_unitarity_and_invariants_along_trajectory():
    rng = np.random.default_rng(7)
    sched = FourierSchedule.initialized(3, 100.0, n_max=2, tied=False)
    for kind in ("tunneling", "bias", "coupling"):
        sched.coeffs[kind][:] = rng.normal(scale=2e-3,
                                           size=sched.coeffs[kind].shape)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    traj = evolve(DensityMatrix.from_state_vector(psi), sched,
                  TimeGrid(100.0, 100))
    eye = np.eye(8)
    assert np.abs(traj.unitaries @ traj.unitaries.conj().swapaxes(-1, -2)
                  - eye).max() < 1e-12
    for rho in traj.states:
        assert np.abs(rho - rho.conj().T).max() < qcore.HERMITICITY_TOL
        assert abs(np.trace(rho).real - 1.0) < qcore.TRACE_TOL
        assert np.linalg.eigvalsh(rho).min() > -qcore.POSITIVITY_TOL


def test_evolve_second_order_convergence():
    # Smooth time-dependent schedule: midpoint sampling converges at O(dt^2).
    T = 50.0
    sched = FourierSchedule.initialized(2, T, n_max=2, tied=True,
                                        tunneling=0.02, coupling=0.01)
    cid_sin = [c for c in sched.coefficient_ids()
               if c.kind == "tunneling" and c.basis == 1][0]
    sched.set(cid_sin, 0.01)
    rho0 = bell_state()
    ref = zz_expectation(final_state(rho0, sched, TimeGrid(T, 3200)))
    errs = [abs(zz_expectation(final_state(rho0, sched, TimeGrid(T, m))) - ref)
            for m in (100, 200, 400)]
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) > 1.8


def test_piecewise_schedule_reproduced_exactly_on_aligned_grid():
    # Piecewise-constant parameters with segments aligned to the grid give
    # the product of exact matrix exponentials.
    T, segs = 8.0, 4
    rng = np.random.default_rng(3)
    sched = PiecewiseSchedule.initialized(2, T, segments=segs, tied=False)
    for kind in ("tunneling", "bias", "coupling"):
        sched.coeffs[kind][:] = rng.normal(scale=0.3,
                                           size=sched.coeffs[kind].shape)
    u = total_propagator(sched, TimeGrid(T, 16))  # 4 steps per segment
    ref = np.eye(4, dtype=complex)
    tau = T / segs
    hs = qcore.assemble_hamiltonians(
        *sched.eval_many((np.arange(segs) + 0.5) * tau), 2)
    for h in hs:
        ref = scipy.linalg.expm(-1j * h * tau) @ ref
    assert np.abs(u - ref).max() < 1e-12


def test_total_propagator_matches_evolve():
    rng = np.random.default_rng(11)
    sched = FourierSchedule.initialized(2, 30.0, n_max=1, tied=True,
                                        tunneling=0.05, coupling=0.02)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho0 = DensityMatrix.from_state_vector(psi)
    grid = TimeGrid(30.0, 75)
    u = total_propagator(sched, grid)
    traj = evolve(rho0, sched, grid)
    assert np.abs(u @ rho0.matrix @ u.conj().T - traj.final()).max() < 1e-12


def test_solve_counter_ticks():
    qcore.solve_count = 0
    sched = constant_schedule(2, 1.0, tunneling=0.1)
    grid = TimeGrid(1.0, 5)
    evolve(bell_state(), sched, grid)
    total_propagator(sched, grid)
    final_state(bell_state(), sched, grid)
    assert qcore.solve_count == 3
