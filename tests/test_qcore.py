"""Core linear algebra and evolution tests against closed-form oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from pauli_reference import pauli, zz
from step_reference import block_steps, lift, register_steps

from qdynlearn import qcore
from qdynlearn.qcore import (
    DensityMatrix,
    TimeGrid,
    evolve,
    output_value,
    pair_indices,
    populations,
    total_propagator,
    zz_expectation,
)
from qdynlearn.schedules import KIND_ORDER, FourierSchedule, PiecewiseSchedule
from qdynlearn.witness import TrainingPair, build_training_set


def bell_state():
    return DensityMatrix.from_state_vector([1.0, 0.0, 0.0, 1.0])


def final_populations(rho0, schedule, grid):
    """Populations of rho(T), read as every solve-only caller reads them."""
    return populations(total_propagator(schedule, grid) @ rho0.factor)


def test_pair_indices_order():
    assert pair_indices(2) == [(0, 1)]
    assert pair_indices(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(pair_indices(5)) == 10


# -- Hamiltonian assembly ----------------------------------------------------


def test_build_hamiltonian_single_qubit():
    h = qcore.assemble_hamiltonians(np.array([[0.3, 0.7]]),
                                    qcore.generators(1, False))
    assert np.allclose(h[0], [[0.7, 0.3], [0.3, -0.7]])


def test_build_hamiltonian_coupling_only():
    h = qcore.assemble_hamiltonians(np.array([[0.0, 0.0, 0.0, 0.0, 0.5]]),
                                    qcore.generators(2, False))
    assert np.allclose(h[0], np.diag([0.5, -0.5, -0.5, 0.5]))


def pauli_sum(tunneling, bias, coupling, num_qubits):
    """Reference H = sum K_i X_i + sum eps_i Z_i + sum zeta_ij Z_i Z_j from krons."""
    x = [pauli("x", q, num_qubits) for q in range(num_qubits)]
    z = [pauli("z", q, num_qubits) for q in range(num_qubits)]
    h = sum(tunneling[q] * x[q] + bias[q] * z[q] for q in range(num_qubits))
    for col, (i, j) in enumerate(pair_indices(num_qubits)):
        h = h + coupling[col] * z[i] @ z[j]
    return h


def site_values(sched, coef):
    """Per-site (tunneling, bias, coupling) rows of `eval_many` columns.

    A tied column drives every site of its kind.
    """
    sites = [sched.n_sites(kind) for kind in KIND_ORDER]
    if sched.tied:
        coef = np.repeat(coef, sites, axis=1)
    return np.split(coef, np.cumsum(sites)[:-1], axis=1)


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
    coef = sched.eval_many(np.linspace(0.0, sched.T, 5))
    h = qcore.assemble_hamiltonians(
        coef, qcore.generators(sched.num_qubits, sched.tied))
    k, e, z = site_values(sched, coef)
    ref = np.stack([pauli_sum(*row, sched.num_qubits) for row in zip(k, e, z)])
    assert h.dtype == np.float64
    assert np.abs(h - ref).max() <= 1e-12


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_generators_are_the_pauli_terms(num_qubits):
    # Untied: one dense Pauli product per site, in `params` row order; tied:
    # each kind's sum over its sites.
    x = [pauli("x", q, num_qubits) for q in range(num_qubits)]
    z = [pauli("z", q, num_qubits) for q in range(num_qubits)]
    zz_ = [z[i] @ z[j] for i, j in pair_indices(num_qubits)]
    zero = np.zeros((2**num_qubits,) * 2)
    for tied, ref in ((False, x + z + zz_),
                      (True, [sum(kind, zero) for kind in (x, z, zz_)])):
        g = qcore.generators(num_qubits, tied)
        assert g.dtype == np.float64
        assert g.shape == (len(ref), *zero.shape)
        assert np.array_equal(g, np.array(ref).real)
        assert not g.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g[0, 0, 0] = 1.0
        assert qcore.generators(num_qubits, tied) is g


@settings(max_examples=20, deadline=None)
@given(sched=random_schedules())
def test_total_propagator_is_the_sequential_step_product(sched):
    # The steps are block-coordinate matrices; their product, lifted to the
    # register, is the propagator.
    basis = qcore.block_basis(sched.num_qubits, sched.tied)
    for steps in (1, 2, 3, 7, 200):  # odd counts leave a factor over
        grid = TimeGrid(sched.T, steps)
        ref = np.eye(basis.size)
        for u in block_steps(sched, grid):
            ref = u @ ref
        assert np.abs(total_propagator(sched, grid)
                      - lift(basis, ref)).max() <= 1e-12


# -- eigendecomposition-free exponential --------------------------------------


def theta_norm(x):
    """||x||_1 over a stack: the largest absolute column sum of any matrix."""
    return np.abs(x).sum(axis=-2).max()


def assert_matches_expm(h, dt):
    u = qcore.complex_form(qcore.expm_hermitian(h, dt))
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
    h = qcore.assemble_hamiltonians(
        sched.eval_many(np.linspace(0.0, sched.T, 3)),
        qcore.generators(sched.num_qubits, sched.tied))
    norm = theta_norm(h)
    # Scale h, not dt: theta / norm overflows for a subnormal norm.
    if norm > 0:
        assert_matches_expm(h / norm, theta)
    else:
        assert_matches_expm(h, 1.0)


@pytest.mark.parametrize("num_qubits", range(1, 7))
@pytest.mark.parametrize("theta", [0.0, 1e-3, 0.05, 0.3, 0.9, 2.5, 10.0, 40.0])
def test_expm_hermitian_every_degree_and_squaring(num_qubits, theta):
    rng = np.random.default_rng(num_qubits)
    d = 2**num_qubits
    a = rng.normal(size=(3, d, d))
    h = a + a.swapaxes(-1, -2)
    assert_matches_expm(h, theta / theta_norm(h))


# Inside each Taylor degree's reach, then past the largest one's with one,
# two and three squarings.
PULLBACK_THETAS = [0.9 * reach for _, _, reach in qcore._TAYLOR] + [
    0.9 * 2**s * qcore._TAYLOR[-1][2] for s in (1, 2, 3)]


@pytest.mark.parametrize("num_qubits", range(1, 6))
@pytest.mark.parametrize("theta", PULLBACK_THETAS)
def test_expm_hermitian_pullback_is_the_adjoint_derivative(num_qubits, theta):
    # Dot-product test: sum(W * E) = Re sum(conj(g) * dU) for a symmetric
    # direction E, with dU from scipy's expm_frechet.  Each side is a sum
    # of terms no larger than |g| |dU| <= |g| dt |E| (Frobenius norms, U
    # unitary), and its round-off is a few eps of that size: at most 2.5
    # over these cases.
    rng = np.random.default_rng(80 + num_qubits)
    d = 2**num_qubits
    h, e = (a + a.swapaxes(-1, -2) for a in rng.normal(size=(2, 3, d, d)))
    g = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    dt = theta / theta_norm(h)
    assert qcore._taylor_degree(qcore._one_norm(h * dt))[2] == max(
        0, math.ceil(math.log2(theta / qcore._TAYLOR[-1][2])))
    w = qcore.expm_hermitian_pullback(h, dt, g)
    assert w.dtype == np.float64 and w.shape == h.shape
    for wk, hk, ek, gk in zip(w, h, e, g):
        _, du = scipy.linalg.expm_frechet(-1j * dt * hk, -1j * dt * ek)
        size = np.linalg.norm(gk) * dt * np.linalg.norm(ek)
        error = abs(np.sum(wk * ek) - np.sum(gk.conj() * du).real)
        assert error <= 100 * np.finfo(float).eps * size


@pytest.mark.parametrize("num_qubits", range(1, 7))
@pytest.mark.parametrize("theta", [0.0, 1e-3, 0.05, 0.3, 0.9, 2.5, 10.0, 40.0])
def test_one_norm_by_matvec_picks_the_row_sum_degree(num_qubits, theta):
    # The cases above: theta by one matvec selects the same Taylor degree
    # and squaring count as the largest row sum by a sum reduction.
    rng = np.random.default_rng(num_qubits)
    d = 2**num_qubits
    a = rng.normal(size=(3, d, d))
    h = a + a.swapaxes(-1, -2)
    x = h * (theta / theta_norm(h))
    p, coef, squarings = qcore._taylor_degree(qcore._one_norm(x))
    ref = qcore._taylor_degree(float(np.abs(x).sum(axis=-1).max()))
    assert (p, squarings) == (ref[0], ref[2]) and coef is ref[1]


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


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("steps", [3, 8, 9])
@pytest.mark.parametrize("theta", [0.05, 2.5, 10.0])
def test_expm_hermitian_real_form_reads_back_u(n, steps, theta):
    # A stack of at least REAL_FORM_MIN_STEPS matrices of side up to
    # REAL_FORM_MAX_SIDE comes as R(U) = [[C, S], [-S, C]]: exactly so block
    # by block as written, and to round-off once squared (theta = 10),
    # because the products sum each block's terms in another order.  Any
    # other stack comes as U.  Either way complex_form gives U, and it
    # matches scipy's expm.
    rng = np.random.default_rng(100 + n)
    a = rng.normal(size=(steps, n, n))
    h = a + a.swapaxes(-1, -2)
    r = qcore.expm_hermitian(h, theta / theta_norm(h))
    real = n <= qcore.REAL_FORM_MAX_SIDE and steps >= qcore.REAL_FORM_MIN_STEPS
    if real:
        assert r.dtype == np.float64 and r.shape == (steps, 2 * n, 2 * n)
        bound = 0.0 if theta <= qcore._TAYLOR[-1][2] else 1e-13
        assert np.abs(r[:, :n, :n] - r[:, n:, n:]).max() <= bound
        assert np.abs(r[:, :n, n:] + r[:, n:, :n]).max() <= bound
    else:
        assert r.dtype == complex and r.shape == (steps, n, n)
        assert qcore.complex_form(r) is r
    assert_matches_expm(h, theta / theta_norm(h))


def eigh_unitaries(h, dt):
    """exp(-i h dt) per step from a batched eigendecomposition."""
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * lam)[..., None, :]) @ v.swapaxes(-1, -2)


def perturbed_default(family, num_qubits, T=250.0, tied=False):
    """The family's default start with every coefficient perturbed by 1%."""
    rng = np.random.default_rng(num_qubits)
    sched = family.initialized(num_qubits, T, tied=tied)
    for c in sched.coeffs.values():
        c *= 1.0 + 0.01 * rng.normal(size=c.shape)
    return sched


@pytest.mark.parametrize("family", [FourierSchedule, PiecewiseSchedule])
@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_total_propagator_equals_eigh_step_product(family, num_qubits):
    # A training-sized solve (T = 250 ns, 200 steps) from the default start,
    # every coefficient perturbed by 1%, against the sequential products of
    # eigh-based step unitaries and of scipy's expm, both on the register.
    # From N = 3 on, a tied schedule solves on its spin blocks and maps the
    # product to the register: it must give the same U.
    for tied in sorted({False, num_qubits >= 3}):
        sched = perturbed_default(family, num_qubits, tied=tied)
        grid = TimeGrid(sched.T, 200)
        h = qcore.assemble_hamiltonians(
            sched.eval_many(grid.midpoints),
            qcore.generators(num_qubits, tied))
        eigh_steps = eigh_unitaries(h, grid.dt)
        assert np.abs(qcore.complex_form(qcore.expm_hermitian(h, grid.dt))
                      - eigh_steps).max() <= 1e-14
        lifted_steps = lift(qcore.block_basis(num_qubits, tied),
                            block_steps(sched, grid))
        assert np.abs(lifted_steps - eigh_steps).max() <= 1e-14
        eigh_ref = scipy_ref = np.eye(2**sched.num_qubits)
        for u, e in zip(eigh_steps, scipy.linalg.expm(-1j * h * grid.dt)):
            eigh_ref = u @ eigh_ref
            scipy_ref = e @ scipy_ref
        u = total_propagator(sched, grid)
        assert np.abs(u - scipy_ref).max() <= 1e-13
        # The eigh steps carry about 2e-15 of round-off each (the Taylor
        # steps about 2e-16), and on a slowly varying schedule it adds up
        # over the 200 steps: up to 1.8e-13 against scipy's product at
        # N = 4.  So the comparison with the eigh product allows that drift
        # on top of 1e-13.
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
    u = total_propagator(sched, grid)
    f = traj.register_factors(-1)
    assert np.abs(f - u @ rho0.factor).max() <= 1e-14
    assert np.abs(populations(f)
                  - final_populations(rho0, sched, grid)).max() <= 1e-14


# -- state and grid validation -----------------------------------------------


def test_states_and_pairs_compare_by_identity():
    # Two states built alike are distinct objects: == answers without
    # comparing their factors, and a pair holding one can key a set.
    a = DensityMatrix.from_state_vector([1, 0])
    b = DensityMatrix.from_state_vector([1, 0])
    assert a == a and not a == b and a != b
    pairs = {TrainingPair(a, 0.0), TrainingPair(b, 0.0), TrainingPair(a, 0.0)}
    assert len(pairs) == 2


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
    # The norm of these finite amplitudes overflows unless they are scaled.
    rho = DensityMatrix.from_state_vector([1e308, 0.0, 0.0, 1.5e308j])
    assert np.allclose(np.diag(rho.matrix).real, [4 / 13, 0, 0, 9 / 13])
    with pytest.raises(ValueError):
        DensityMatrix.from_state_vector([0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix.from_state_vector([np.inf, 1.0])


@pytest.mark.parametrize("psi", [[1.0], [1.0, 0.0, 1.0]])
def test_from_state_vector_rejects_non_register_lengths(psi):
    # A register of N >= 1 qubits has 2^N amplitudes.
    with pytest.raises(ValueError, match="power of 2"):
        DensityMatrix.from_state_vector(psi)


@pytest.mark.parametrize("num_qubits", [1, 2, 4, 6])
def test_density_matrix_factor(num_qubits):
    # factor factor^dagger reproduces the matrix passed in, at its rank.
    rng = np.random.default_rng(num_qubits)
    d = 2**num_qubits
    for rank in sorted({1, 2, d}):
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        m = g @ g.conj().T / np.linalg.norm(g) ** 2
        f = DensityMatrix(m).factor
        assert f.shape == (d, rank)
        assert np.abs(f @ f.conj().T - m).max() <= 1e-12
    for psi in (rng.normal(size=d) + 1j * rng.normal(size=d),
                np.eye(d)[0], np.ones(d)):
        rho = DensityMatrix.from_state_vector(psi)
        psi = psi / np.linalg.norm(psi)
        assert rho.factor.shape == (d, 1)
        assert np.abs(rho.factor @ rho.factor.conj().T
                      - np.outer(psi, psi.conj())).max() <= 1e-12
    # A tolerated negative eigenvalue is dropped from the factor.
    rho = DensityMatrix(np.diag(np.r_[1.0 + 1e-10, -1e-10, np.zeros(d - 2)]))
    assert rho.factor.shape == (d, 1)


@pytest.mark.parametrize("num_qubits", [1, 2, 4, 6])
def test_vector_factor_equals_matrix_factor_up_to_phase(num_qubits):
    # The vector path keeps psi; the matrix path's eigh gives e^{i phi} psi.
    rng = np.random.default_rng(20 + num_qubits)
    d = 2**num_qubits
    for psi in (rng.normal(size=d) + 1j * rng.normal(size=d), np.ones(d)):
        f = DensityMatrix.from_state_vector(psi).factor
        m = DensityMatrix(f @ f.conj().T).factor
        assert m.shape == f.shape == (d, 1)
        phase = np.vdot(m[:, 0], f[:, 0])
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.abs(m * phase - f).max() <= 1e-12


def spy_linalg(monkeypatch, names):
    """Record the name of every call to the named `np.linalg` functions."""
    calls = []
    for name in names:
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, name=name, real=real, **k:
                            calls.append(name) or real(*a, **k))
    return calls


def test_matrix_state_is_factored_once_at_construction(monkeypatch):
    # One eigh both checks positivity and gives the factor; reading the
    # factor, the matrix or the dimension calls nothing more.
    calls = spy_linalg(monkeypatch, ("eigh", "eigvalsh", "eigvals", "eig"))
    mixed = DensityMatrix(np.diag([0.5, 0.25, 0.0, 0.25]).astype(complex))
    assert calls == ["eigh"]
    f = mixed.factor
    assert mixed.factor is f and f.shape == (4, 3)
    assert np.abs(mixed.matrix - np.diag([0.5, 0.25, 0.0, 0.25])).max() <= 1e-15
    assert (mixed.dim, mixed.num_qubits) == (4, 2)
    assert calls == ["eigh"]


def test_vector_state_makes_no_linalg_call(monkeypatch):
    # A state given as a vector keeps it as its factor and calls nothing
    # in np.linalg, not even for the norm.
    names = [n for n in dir(np.linalg)
             if not n.startswith("_") and callable(getattr(np.linalg, n))
             and not isinstance(getattr(np.linalg, n), type)]
    calls = spy_linalg(monkeypatch, names)
    pure = DensityMatrix.from_state_vector([1.0, 0.0, 0.0, 1.0j])
    assert np.array_equal(pure.factor, np.array([[1.0], [0], [0], [1.0j]])
                          / np.sqrt(2))
    assert (pure.dim, pure.num_qubits) == (4, 2)
    for n in range(2, 7):
        build_training_set(n)
    assert calls == []


# -- total-spin basis --------------------------------------------------------


def spin_copies(num_qubits, n):
    """Copies of spin j = (n - 1) / 2: C(N, N/2 - j) - C(N, N/2 - j - 1)."""
    k = (num_qubits - n + 1) // 2
    return math.comb(num_qubits, k) - (math.comb(num_qubits, k - 1) if k else 0)


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_spin_basis_blocks_symmetric_operators(num_qubits):
    q, blocks = qcore.spin_basis(num_qubits)
    d = 2**num_qubits
    assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-14
    assert [n for n, _ in blocks] == list(range(num_qubits + 1, 0, -2))
    assert all(copies == spin_copies(num_qubits, n) for n, copies in blocks)
    assert sum(n * copies for n, copies in blocks) == d
    x = sum(pauli("x", i, num_qubits) for i in range(num_qubits)).real
    z = sum(pauli("z", i, num_qubits) for i in range(num_qubits)).real
    zz_sum = sum((pauli("z", i, num_qubits) @ pauli("z", j, num_qubits)).real
                 for i, j in pair_indices(num_qubits))
    for op in (x, z, zz_sum + np.zeros((d, d))):
        rotated = q.T @ op @ q
        expected = np.zeros((d, d))
        start = 0
        for n, copies in blocks:
            stop = start + n * copies
            first = rotated[start:start + n, start:start + n]
            expected[start:stop, start:stop] = np.kron(np.eye(copies), first)
            start = stop
        scale = max(1.0, np.abs(np.linalg.eigvalsh(op)).max())
        assert np.abs(rotated - expected).max() <= 1e-14 * scale
    # Each copy runs over 2 J_z = -2j..2j with <m+1| J_+ |m> > 0.
    start = 0
    for n, copies in blocks:
        block = slice(start, start + n)
        assert np.allclose(q[:, block].T @ z @ q[:, block],
                           np.diag(np.arange(1.0 - n, n, 2)), atol=1e-14)
        assert (np.diagonal(q[:, block].T @ x @ q[:, block], 1) > 0.5).all()
        start += n * copies


def test_spin_basis_is_built_without_eigendecomposition(monkeypatch):
    # The basis is coupled in closed form; `__wrapped__` bypasses the cache.
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    for num_qubits in range(1, 7):
        qcore.spin_basis.__wrapped__(num_qubits)
    assert calls == []


def test_spin_basis_check_raises_on_mixed_copies():
    q, blocks = qcore.spin_basis(4)
    assert blocks == ((5, 1), (3, 3), (1, 2))
    # Rotate the m = 0 columns of two spin-1 copies into each other: Q stays
    # orthogonal, but the copies no longer carry the same blocks.
    mixed = q.copy()
    a, b = 5 + 1, 5 + 3 + 1
    c, s = np.cos(1e-6), np.sin(1e-6)
    mixed[:, [a, b]] = q[:, [a, b]] @ np.array([[c, -s], [s, c]])
    assert np.abs(mixed.T @ mixed - np.eye(16)).max() <= 1e-14
    with pytest.raises(np.linalg.LinAlgError, match="spin basis at N = 4"):
        qcore.check_spin_basis(mixed, blocks, 4)
    with pytest.raises(np.linalg.LinAlgError, match="spin basis at N = 4"):
        qcore.check_spin_basis(1.0001 * q, blocks, 4)


def test_spin_basis_is_not_built_at_import():
    code = ("import qdynlearn.cli, qdynlearn.qcore as q; "
            "print(q.spin_basis.cache_info().currsize "
            "+ q.generators.cache_info().currsize "
            "+ q.block_basis.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(qcore.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "0"


# -- block coordinates ---------------------------------------------------------


@pytest.mark.parametrize("num_qubits", range(1, 7))
@pytest.mark.parametrize("tied", [False, True])
def test_block_basis_layout(num_qubits, tied):
    basis = qcore.block_basis(num_qubits, tied)
    d = 2**num_qubits
    assert qcore.block_basis(num_qubits, tied) is basis
    for a in (basis.first, basis.gens, basis.fold_map):
        assert not a.flags.writeable
    if tied and num_qubits >= 3:
        assert basis.blocks == tuple((n, c) for n, c in
                                     qcore.spin_basis(num_qubits)[1])
        assert basis.size == sum(n for n, _ in basis.blocks) < d
        assert not basis.identity
    else:  # one block, Q = I
        assert basis.blocks == ((d, 1),) and basis.identity
        assert np.array_equal(basis.fold_map, np.eye(d))
        assert np.array_equal(basis.gens,
                              qcore.generators(num_qubits, tied))
    assert basis.size == {(3, True): 6, (4, True): 9, (5, True): 12,
                          (6, True): 16}.get((num_qubits, tied), d)
    assert basis.copies == max(c for _, c in basis.blocks)
    # The rotated generators vanish exactly off the diagonal blocks.
    inside = np.zeros((basis.size,) * 2, dtype=bool)
    for start, stop in basis.spans:
        inside[start:stop, start:stop] = True
    assert not basis.gens[:, ~inside].any()


@pytest.mark.parametrize("num_qubits", range(1, 7))
@pytest.mark.parametrize("tied", [False, True])
def test_fold_unfold_round_trip(num_qubits, tied):
    # Folding is the orthogonal spin rotation followed by a placement of
    # each copy's rows into its own columns: unfold(fold(F)) = F and
    # fold(unfold(B)) = B for every factor, inner products are kept, and
    # the columns past a block's copies stay exactly zero.
    basis = qcore.block_basis(num_qubits, tied)
    d, size, copies = 2**num_qubits, basis.size, basis.copies
    rng = np.random.default_rng(70 + num_qubits)
    for r in sorted({1, 2, d}):
        f, g = (rng.normal(size=(2, d, r)) + 1j * rng.normal(size=(2, d, r)))
        b = basis.fold(f)
        assert b.shape == (size, copies * r)
        assert np.abs(basis.unfold(b) - f).max() <= 1e-14 * np.abs(f).max()
        assert np.abs(basis.fold(basis.unfold(b)) - b).max() <= (
            1e-14 * np.abs(b).max())
        assert abs(np.vdot(basis.fold(g), b) - np.vdot(g, f)) <= (
            1e-13 * np.linalg.norm(f) * np.linalg.norm(g))
        row = 0
        for n, c in basis.blocks:
            assert not b[row:row + n, c * r:].any()
            row += n
        if basis.blocks == ((d, 1),):
            assert np.array_equal(b, f) and np.array_equal(basis.unfold(b), f)
    # A stack of factors folds row by row.
    stack = rng.normal(size=(3, d, 2)) + 1j * rng.normal(size=(3, d, 2))
    assert np.array_equal(basis.fold(stack)[1], basis.fold(stack[1]))


@pytest.mark.parametrize("num_qubits, tied", [
    (2, False), (2, True), (3, False), (4, False), (5, False), (6, False)])
def test_identity_basis_skips_the_basis_change_exactly(num_qubits, tied,
                                                      monkeypatch):
    # With Q = I, fold and unfold return their argument: exactly what the
    # general matmul forms give, on single arrays and stacks.  Every factor
    # lies in its one block and copy, so support returns the basis itself,
    # without folding the factor.
    basis = qcore.block_basis(num_qubits, tied)
    assert basis.identity
    fm, d, size = basis.fold_map, 2**num_qubits, basis.size
    rng = np.random.default_rng(90 + num_qubits)
    for lead in ((), (3,)):
        f = rng.normal(size=(*lead, d, 2)) + 1j * rng.normal(size=(*lead, d, 2))
        assert np.array_equal(basis.fold(f),
                              (fm @ f).reshape(*lead, size, -1))
        assert np.array_equal(basis.unfold(f), fm.T @ f.reshape(*lead, -1, 2))
    folds, fold = [], qcore.BlockBasis.fold
    monkeypatch.setattr(qcore.BlockBasis, "fold",
                        lambda self, f: folds.append(f.shape) or fold(self, f))
    for r in (1, 2):
        f = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        assert basis.support(f) is basis
    assert folds == []


@pytest.mark.parametrize("num_qubits", range(1, 7))
@pytest.mark.parametrize("tied", [False, True])
def test_lifted_block_assembly_is_the_register_assembly(num_qubits, tied):
    basis = qcore.block_basis(num_qubits, tied)
    gens = qcore.generators(num_qubits, tied)
    coef = np.random.default_rng(num_qubits).normal(size=(5, len(gens)))
    h = qcore.assemble_hamiltonians(coef, basis.gens)
    assert h.shape == (5, basis.size, basis.size)
    ref = qcore.assemble_hamiltonians(coef, gens)
    scale = np.abs(ref).max()
    assert np.abs(lift(basis, h) - ref).max() <= 1e-13 * scale


@pytest.mark.parametrize("num_qubits", range(3, 7))
def test_support_keeps_the_occupied_blocks_and_copies(num_qubits):
    # A tied Hamiltonian never mixes spin blocks or copies, so a solve from
    # F needs only those where fold(F) is nonzero.  The test is exact: a
    # 1e-300 component keeps its block.
    n = num_qubits
    basis = qcore.block_basis(n, True)
    rng = np.random.default_rng(n)

    def support(psi):
        f = DensityMatrix.from_state_vector(psi).factor
        sub = basis.support(f)
        assert np.abs(sub.unfold(sub.fold(f)) - f).max() <= 1e-15
        return sub

    for a, b in ((1.0, 0.0), (1.0, 1.0), (0.6, 0.8), (0.0, 1.0)):
        sub = support(np.r_[a, np.zeros(2**n - 2), b])
        assert sub.blocks == ((n + 1, 1),)
        assert np.array_equal(sub.gens, basis.gens[:, :n + 1, :n + 1])
    superposition = np.r_[1.0, 1.0, np.zeros(2**n - 2)]
    assert support(superposition).blocks == ((n + 1, 1), (n - 1, 1))
    # GHZ with a 1e-300 |0..01> component, whose part off the symmetric
    # block lies in one copy of 2j+1 = N-1, like the superposition's.
    ghz = np.r_[1.0, np.zeros(2**n - 2), 1.0]
    ghz[1] = 1e-300
    assert support(ghz).blocks == ((n + 1, 1), (n - 1, 1))
    sub = support(rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
    assert sub.blocks == basis.blocks
    assert (sub.size, sub.copies) == (basis.size, basis.copies)


def test_support_is_cached_by_the_factor_content():
    # The cached support is the one the fold gives, for a factor seen
    # again, for an equal copy, and for the same factor in another memory
    # order.  A factor changed in place is looked up by its new content,
    # and the cache keeps a bounded number of factors.
    basis = qcore.block_basis(4, True)
    uncached = qcore._content_support.__wrapped__
    qcore._content_support.cache_clear()
    rng = np.random.default_rng(3)
    for pair in build_training_set(4):
        f = pair.rho0.factor
        sub = basis.support(f)
        assert sub is uncached(basis, f.dtype.str, f.shape, f.tobytes())
        assert basis.support(f.copy()) is sub
        assert basis.support(np.asfortranarray(f)) is sub
    f = np.zeros((16, 1), dtype=complex)
    f[0] = 1.0
    assert basis.support(f).blocks == ((5, 1),)
    f[1] = 1.0
    assert basis.support(f).blocks == ((5, 1), (3, 1))
    maxsize = qcore._content_support.cache_info().maxsize
    assert maxsize is not None
    for _ in range(maxsize + 10):
        f = rng.normal(size=(16, 1)) + 1j * rng.normal(size=(16, 1))
        assert basis.support(f) is basis
    assert qcore._content_support.cache_info().currsize == maxsize


def random_mixed_state(rng, d, rank):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return DensityMatrix(g @ g.conj().T / np.linalg.norm(g) ** 2)


@pytest.mark.parametrize("num_qubits", range(2, 7))
@pytest.mark.parametrize("tied", [False, True])
def test_trajectory_states_equal_the_dense_step_product(num_qubits, tied):
    # rho_{k+1} = U_k rho_k U_k^dag with U_k = exp(-i H_k dt) taken by eigh
    # from the register Hamiltonian: no block coordinate enters.
    sched = perturbed_default(FourierSchedule, num_qubits, T=40.0, tied=tied)
    grid = TimeGrid(sched.T, 30)
    d = 2**num_qubits
    rng = np.random.default_rng(80 + num_qubits)
    h = qcore.assemble_hamiltonians(sched.eval_many(grid.midpoints),
                                    qcore.generators(num_qubits, tied))
    us = eigh_unitaries(h, grid.dt)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    for rho0 in (DensityMatrix.from_state_vector(psi),
                 random_mixed_state(rng, d, 2)):
        states = evolve(rho0, sched, grid).states
        assert states.shape == (grid.steps + 1, d, d)
        rho = rho0.matrix
        assert np.abs(states[0] - rho).max() <= 1e-14
        for k, u in enumerate(us):
            rho = u @ rho @ u.conj().T
            assert np.abs(states[k + 1] - rho).max() <= 1e-13


@pytest.mark.parametrize("num_qubits", range(2, 7))
@pytest.mark.parametrize("tied", [False, True])
def test_final_factor_populations_equal_the_propagator_readout(num_qubits,
                                                               tied):
    sched = perturbed_default(FourierSchedule, num_qubits, tied=tied)
    grid = TimeGrid(sched.T, 200)
    d = 2**num_qubits
    rng = np.random.default_rng(90 + num_qubits)
    u = total_propagator(sched, grid)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    for rho0 in (DensityMatrix.from_state_vector(psi),
                 random_mixed_state(rng, d, 3)):
        traj = evolve(rho0, sched, grid)
        assert np.abs(populations(traj.register_factors(-1))
                      - populations(u @ rho0.factor)).max() <= 1e-14


@pytest.mark.parametrize("num_qubits", range(2, 7))
@pytest.mark.parametrize("tied", [False, True])
def test_propagate_applies_the_total_propagator(num_qubits, tied):
    # propagate multiplies the steps only on the support of the factors it
    # is given; its U F is the register propagator's, whatever the support:
    # the training states (one or two spin blocks), random pure states (all
    # of them) and a rank-2 mixed state.
    sched = perturbed_default(FourierSchedule, num_qubits, tied=tied)
    grid = TimeGrid(sched.T, 200)
    d = 2**num_qubits
    rng = np.random.default_rng(70 + num_qubits)
    u = total_propagator(sched, grid)
    states = [pair.rho0 for pair in build_training_set(num_qubits)]
    states += [DensityMatrix.from_state_vector(rng.normal(size=d)
                                               + 1j * rng.normal(size=d))
               for _ in range(2)]
    states.append(random_mixed_state(rng, d, 2))
    for rho0 in states:
        want = u @ rho0.factor
        got = qcore.propagate(sched, grid, rho0.factor)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_time_grid():
    g = TimeGrid(10.0, 4)
    assert g.dt == 2.5
    assert np.allclose(g.times, [0.0, 2.5, 5.0, 7.5, 10.0])
    assert np.allclose(g.midpoints, [1.25, 3.75, 6.25, 8.75])
    # Computed once per grid and shared, so it is read-only.
    assert g.midpoints is g.midpoints
    with pytest.raises(ValueError, match="read-only"):
        g.midpoints[0] = 0.0
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_time_grid_rejects_a_time_outside_zero_to_infinity(T):
    # NaN fails every comparison, so `T <= 0` alone let it through.
    with pytest.raises(ValueError, match="final time"):
        TimeGrid(T, 5)


@pytest.mark.parametrize("steps", [0, -3, 2.5, 4.0, True, "5", None])
def test_time_grid_rejects_steps_that_are_not_a_positive_int(steps):
    with pytest.raises(ValueError, match="steps must be an integer >= 1"):
        TimeGrid(10.0, steps)


# -- expectation values ------------------------------------------------------


def test_expectation_bell_zz():
    assert zz_expectation(populations(bell_state().factor)) == pytest.approx(1.0)


def test_expectation_antialigned():
    rho = DensityMatrix.from_state_vector([0.0, 1.0, 0.0, 0.0])  # |01>
    assert zz_expectation(populations(rho.factor)) == pytest.approx(-1.0)


def test_expectation_maximally_mixed():
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
    assert zz_expectation(populations(rho.factor)) == pytest.approx(0.0)


@pytest.mark.parametrize("num_qubits", range(2, 7))
def test_zz_expectation_equals_dense_trace(num_qubits):
    # The parity readout against tr(rho Z_0 Z_1) from dense krons, on a
    # random full-rank mixed state.
    d = 2**num_qubits
    rng = np.random.default_rng(num_qubits)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    ref = np.trace(rho.matrix @ zz(num_qubits))
    assert abs(zz_expectation(populations(rho.factor)) - ref) <= 1e-14


def random_unitary(rng, d):
    """Haar-like unitary: Q of the QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("num_qubits", range(2, 7))
def test_populations_equal_the_conjugated_diagonal(num_qubits):
    # The one readout: populations(U F) is diag(U rho U^dag), real by
    # construction, for pure states (F = psi) and mixed ones (F from eigh).
    d = 2**num_qubits
    rng = np.random.default_rng(40 + num_qubits)
    u = random_unitary(rng, d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    states = [DensityMatrix.from_state_vector(psi)]
    for rank in (2, d):
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        states.append(DensityMatrix(g @ g.conj().T / np.linalg.norm(g) ** 2))
    for rho in states:
        p = populations(u @ rho.factor)
        assert p.dtype == float and p.shape == (d,)
        ref = np.diagonal(u @ rho.matrix @ u.conj().T)
        assert np.abs(p - ref).max() <= 1e-14


def test_populations_square_the_float_view_once():
    # The float view's squares, paired, are |Re F|^2 + |Im F|^2 bit for bit,
    # on factors of one and several columns, stacked ones, strided ones
    # (the copy an F-ordered eigh factor takes) and real ones.
    rng = np.random.default_rng(9)
    for shape in ((4, 1), (16, 1), (8, 3), (64, 5), (3, 8, 2)):
        f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for factor in (f, np.asfortranarray(f), f[..., ::-1],
                       np.repeat(f, 2, axis=-1)[..., ::2], f.real):
            ref = (factor.real * factor.real
                   + factor.imag * factor.imag).sum(axis=-1)
            assert np.array_equal(populations(factor), ref)


def test_output_value_squares_the_correlation():
    p = populations(DensityMatrix.from_state_vector([0.0, 1.0, 0.0, 0.0]).factor)
    assert zz_expectation(p) == pytest.approx(-1.0)
    assert output_value(p) == pytest.approx(1.0)
    p = np.array([0.8, 0.2, 0.0, 0.0])  # <zz> = 0.6
    assert output_value(p) == pytest.approx(0.36)


# -- evolution ---------------------------------------------------------------


def constant_schedule(num_qubits, T, tunneling=0.0, bias=0.0, coupling=0.0):
    return FourierSchedule.initialized(
        num_qubits, T, n_max=0, tied=True,
        tunneling=tunneling, bias=bias, coupling=coupling)


def test_prefix_products_match_the_running_product():
    rng = np.random.default_rng(5)
    for m in [*range(10), 200]:
        g = rng.normal(size=(m, 5, 5)) + 1j * rng.normal(size=(m, 5, 5))
        us = np.linalg.qr(g)[0]  # unitary steps, so every product has norm 1
        p = qcore.prefix_products(us)
        assert p.shape == (m + 1, 5, 5)
        assert np.array_equal(p[0], np.eye(5))
        running = np.eye(5)
        for k, u in enumerate(us):
            running = u @ running
            assert np.abs(p[k + 1] - running).max() <= 1e-13


def real_form(u):
    """R(U) = [[C, S], [-S, C]] of U = C - iS, built independently."""
    c, s = u.real, -u.imag
    return np.block([[c, s], [-s, c]])


@pytest.mark.parametrize("n", range(1, 17))
def test_real_form_products_equal_the_complex_products(n):
    # R(U) R(V) = R(UV): the products and the scan of the real forms read
    # back the complex products, for every stack length from the empty
    # scan through odd and even ones.  Every product is unitary, so the
    # bound is relative.
    rng = np.random.default_rng(60 + n)
    for m in (0, 1, 2, 3, 6, 7, 200):
        g = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
        us = np.linalg.qr(g)[0]
        p = qcore.prefix_products(real_form(us))
        assert p.dtype == np.float64 and p.shape == (m + 1, 2 * n, 2 * n)
        assert np.array_equal(p[0], np.eye(2 * n))
        want = qcore.prefix_products(us)
        assert np.abs(qcore.complex_form(p) - want).max() <= 1e-13
        if m:
            product = qcore.ordered_product(real_form(us))
            assert product.dtype == np.float64
            assert np.abs(qcore.complex_form(product)
                          - qcore.ordered_product(us)).max() <= 1e-13


@pytest.mark.parametrize("num_qubits", range(2, 7))
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("steps", [4, 200])
def test_solves_equal_the_complex_step_product(num_qubits, tied, steps):
    # propagate and evolve run their products on real forms for short
    # sides and long stacks, and on complex ones otherwise (4 steps, the
    # untied registers from N = 3, the tied superposition's support from
    # N = 4).  Each equals the complex running product of the reference
    # steps, taken one step at a time on the register.
    sched = perturbed_default(FourierSchedule, num_qubits, tied=tied)
    grid = TimeGrid(sched.T, steps)
    us = register_steps(sched, grid)
    sizes = set()
    for pair in build_training_set(num_qubits):
        f = pair.rho0.factor
        traj = evolve(pair.rho0, sched, grid)
        assert traj.propagators.dtype == traj.factors.dtype == complex
        sizes.add(traj.basis.size)
        running = f
        assert np.abs(traj.register_factors(0) - f).max() <= 1e-15
        for k, u in enumerate(us):
            running = u @ running
            assert np.abs(traj.register_factors(k + 1) - running).max() <= (
                1e-13)
        assert np.abs(qcore.propagate(sched, grid, f) - running).max() <= (
            1e-13)
    assert (min(sizes) <= qcore.REAL_FORM_MAX_SIDE) == (tied
                                                        or num_qubits == 2)


def test_evolve_zero_hamiltonian_is_static():
    grid = TimeGrid(10.0, 50)
    traj = evolve(bell_state(), constant_schedule(2, 10.0), grid)
    assert np.allclose(traj.states, traj.states[0][None], atol=1e-14)
    assert np.allclose(lift(traj.basis, traj.propagators), np.eye(4)[None],
                       atol=1e-14)


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
    # A pure state with all of its population on |10> is |10><10|.
    p = final_populations(rho0, sched, TimeGrid(T, 64))
    assert np.abs(p - [0.0, 0.0, 1.0, 0.0]).max() < 1e-10


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
    props = traj.propagators  # every product U_{k-1} ... U_0
    assert np.abs(props @ props.conj().swapaxes(-1, -2) - eye).max() < 1e-12
    for rho in traj.states:
        assert np.abs(rho - rho.conj().T).max() < qcore.HERMITICITY_TOL
        assert abs(np.trace(rho).real - 1.0) < qcore.TRACE_TOL
        assert np.linalg.eigvalsh(rho).min() > -qcore.POSITIVITY_TOL


def test_evolve_second_order_convergence():
    # Smooth time-dependent schedule: midpoint sampling converges at O(dt^2).
    T = 50.0
    sched = FourierSchedule.initialized(2, T, n_max=2, tied=True,
                                        tunneling=0.02, coupling=0.01)
    sched.coeffs["tunneling"][0, 1] = 0.01  # the sin(pi t / T) term
    rho0 = bell_state()
    def zz_at(steps):
        return zz_expectation(final_populations(rho0, sched, TimeGrid(T, steps)))

    ref = zz_at(3200)
    errs = [abs(zz_at(m) - ref) for m in (100, 200, 400)]
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
        sched.eval_many((np.arange(segs) + 0.5) * tau),
        qcore.generators(2, False))
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
    f = evolve(rho0, sched, grid).register_factors(-1)
    assert np.abs(u @ rho0.matrix @ u.conj().T - f @ f.conj().T).max() < 1e-12


def test_solve_counter_ticks():
    qcore.solve_count = 0
    sched = constant_schedule(2, 1.0, tunneling=0.1)
    grid = TimeGrid(1.0, 5)
    evolve(bell_state(), sched, grid)
    total_propagator(sched, grid)
    final_populations(bell_state(), sched, grid)
    assert qcore.solve_count == 3
