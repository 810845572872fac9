"""Circuit mode: compilation, shot sampling, noise models and RL training."""

import numpy as np
import pytest

from qdynlearn import circuit, qcore, rl
from qdynlearn.circuit import (
    CircuitRLConfig,
    SegmentedCircuit,
    ShotBackend,
    compile_segments,
    estimate_output,
    run_shots,
    train_circuit_rl,
)
from qdynlearn.qcore import (
    DensityMatrix,
    IDENTITY_MAP,
    SQUARE_MAP,
    TimeGrid,
)
from qdynlearn.schedules import PiecewiseSchedule, list_trainable
from qdynlearn.train import descend
from qdynlearn.witness import build_training_set, ghz_family_state


def zero_schedule(T=2.0, segments=4):
    return PiecewiseSchedule.initialized(2, T, segments=segments, tied=False,
                                         tunneling=0.0, bias=0.0, coupling=0.0)


def random_schedule(rng, T=2.0, segments=4, scale=0.5):
    s = PiecewiseSchedule.initialized(2, T, segments=segments, tied=False)
    for kind in ("tunneling", "bias", "coupling"):
        s.coeffs[kind][:] = rng.normal(scale=scale,
                                       size=s.coeffs[kind].shape)
    return s


# -- compilation -------------------------------------------------------------


def test_compile_zero_parameters_gives_identities():
    c = compile_segments(zero_schedule())
    assert c.unitary.shape == (4, 4)
    assert np.abs(c.unitary - np.eye(4)).max() < 1e-14


def test_compile_coupling_only_diagonal_unitary():
    T = 2.0
    s = PiecewiseSchedule.initialized(2, T, segments=1, tied=False,
                                      tunneling=0.0, bias=0.0, coupling=0.3)
    c = compile_segments(s)
    phi = 0.3 * T
    expected = np.diag(np.exp(-1j * phi * np.array([1, -1, -1, 1])))
    assert np.abs(c.unitary - expected).max() < 1e-12


def test_compile_agrees_with_continuum_evolution():
    rng = np.random.default_rng(0)
    s = random_schedule(rng)
    u_circuit = compile_segments(s).unitary
    # continuum grid aligned with the segments (many steps per segment)
    u_cont = qcore.total_propagator(s, TimeGrid(s.T, 8 * s.segments))
    assert np.abs(u_circuit - u_cont).max() < 1e-9


def test_segmented_circuit_rejects_non_unitary():
    s = zero_schedule()
    with pytest.raises(ValueError):
        SegmentedCircuit(np.ones((4, 4), dtype=complex), s)


# -- backend and sampling ----------------------------------------------------


def test_backend_validation():
    with pytest.raises(ValueError):
        ShotBackend(shots=0)
    with pytest.raises(ValueError):
        ShotBackend(p_dep=1.5)
    with pytest.raises(ValueError):
        ShotBackend(p_ro=-0.1)
    assert ShotBackend().exact
    assert not ShotBackend(shots=100).exact


def test_identity_circuit_counts_concentrate():
    c = compile_segments(zero_schedule())
    rho = DensityMatrix.from_state_vector([0, 1, 0, 0])  # |01>
    counts = run_shots(c, rho, ShotBackend(shots=1000, seed=0))
    assert counts.dtype.kind == "i"
    assert np.array_equal(counts, [0, 1000, 0, 0])


def test_exact_mode_returns_diagonal():
    rng = np.random.default_rng(1)
    s = random_schedule(rng)
    c = compile_segments(s)
    rho = ghz_family_state(2, 0.6, 0.8)
    probs = run_shots(c, rho, ShotBackend())
    u = np.eye(4, dtype=complex)
    for seg in qcore.step_unitaries(s, TimeGrid(s.T, s.segments)):
        u = seg @ u
    expected = np.diag(u @ rho.matrix @ u.conj().T).real
    assert np.abs(probs - expected).max() < 1e-12
    assert probs.sum() == pytest.approx(1.0)
    # The count readout and the density-matrix readout share one parity.
    rho_f = qcore.final_state(rho, s, TimeGrid(s.T, s.segments))
    assert abs(estimate_output(probs, IDENTITY_MAP)
               - qcore.output_value(rho_f, IDENTITY_MAP)) <= 1e-14


def test_fully_randomized_readout_is_uniform():
    c = compile_segments(zero_schedule())
    rho = DensityMatrix.from_state_vector([1, 0, 0, 0])
    probs = run_shots(c, rho, ShotBackend(p_ro=0.5))
    assert np.allclose(probs, 0.25)


def kron_readout(num_qubits, p_ro):
    f1 = np.array([[1.0 - p_ro, p_ro], [p_ro, 1.0 - p_ro]])
    f = np.eye(1)
    for _ in range(num_qubits):
        f = np.kron(f, f1)
    return f


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 6])
@pytest.mark.parametrize("p_ro", [0.0, 0.01, 0.5])
def test_cached_readout_matrix_is_the_read_only_kron(num_qubits, p_ro):
    f = circuit._readout_matrix(num_qubits, p_ro)
    assert np.array_equal(f, kron_readout(num_qubits, p_ro))
    assert not f.flags.writeable
    with pytest.raises(ValueError):
        f[0, 0] = 2.0
    assert circuit._readout_matrix(num_qubits, p_ro) is f


def test_cached_readout_keeps_the_seeded_draws():
    # The same rng stream, drawn from the same probabilities, as a run that
    # builds the readout matrix afresh.
    s = random_schedule(np.random.default_rng(5))
    c = compile_segments(s)
    rho = ghz_family_state(2, 0.6, 0.8)
    backend = ShotBackend(shots=8192, p_ro=0.01, seed=9)
    got = [run_shots(c, rho, backend) for _ in range(3)]
    exact = run_shots(c, rho, ShotBackend())  # p_ro = 0: before readout
    rng = np.random.default_rng(9)
    for counts in got:
        ref = rng.multinomial(8192, kron_readout(2, 0.01) @ exact)
        assert np.array_equal(counts, ref)


def test_determinism_under_fixed_seed():
    rng = np.random.default_rng(2)
    s = random_schedule(rng)
    c = compile_segments(s)
    rho = ghz_family_state(2, 1.0, 1.0)
    a = run_shots(c, rho, ShotBackend(shots=5000, seed=42))
    b = run_shots(c, rho, ShotBackend(shots=5000, seed=42))
    assert np.array_equal(a, b)


def test_shot_noise_scales_as_inverse_sqrt_shots():
    # Sample-variance regression across four decades of shot counts.
    rng = np.random.default_rng(3)
    s = random_schedule(rng)
    c = compile_segments(s)
    rho = ghz_family_state(2, 0.6, 0.8)
    shot_counts = [100, 1000, 10_000, 100_000]
    sigmas = []
    for shots in shot_counts:
        backend = ShotBackend(shots=shots, seed=7)
        ests = [estimate_output(run_shots(c, rho, backend), SQUARE_MAP)
                for _ in range(200)]
        sigmas.append(np.std(ests))
    slope = np.polyfit(np.log(shot_counts), np.log(sigmas), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.08)


def test_depolarizing_noise_shrinks_correlation():
    rng = np.random.default_rng(4)
    s = random_schedule(rng)
    c = compile_segments(s)
    rho = ghz_family_state(2, 1.0, 1.0)
    clean = estimate_output(run_shots(c, rho, ShotBackend()), SQUARE_MAP)
    noisy = estimate_output(run_shots(c, rho, ShotBackend(p_dep=0.1)),
                            SQUARE_MAP)
    assert noisy <= clean + 1e-12


@pytest.mark.parametrize("num_qubits", [2, 3])
@pytest.mark.parametrize("p_dep", [0.02, 0.3, 1.0])
@pytest.mark.parametrize("segments", range(1, 7))
def test_closed_form_depolarizing_equals_per_segment_channels(
        num_qubits, p_dep, segments):
    # run_shots applies the S channels as one formula; the reference
    # conjugates by each segment and depolarizes after it.
    rng = np.random.default_rng(10 * segments + num_qubits)
    s = PiecewiseSchedule.initialized(num_qubits, 2.0, segments=segments,
                                      tied=False)
    for kind in ("tunneling", "bias", "coupling"):
        s.coeffs[kind][:] = rng.normal(scale=0.5, size=s.coeffs[kind].shape)
    d = 2**num_qubits
    rho0 = DensityMatrix.from_state_vector(rng.normal(size=d)
                                           + 1j * rng.normal(size=d))
    rho = rho0.matrix
    for u in qcore.step_unitaries(s, TimeGrid(s.T, segments)):
        rho = u @ rho @ u.conj().T
        rho = (1.0 - p_dep) * rho + p_dep * np.trace(rho).real * np.eye(d) / d
    probs = run_shots(compile_segments(s), rho0, ShotBackend(p_dep=p_dep))
    assert np.abs(probs - np.diag(rho).real).max() <= 1e-14


# -- output estimation -------------------------------------------------------


def test_estimate_output_examples():
    assert estimate_output([800, 0, 0, 0], SQUARE_MAP) == pytest.approx(1.0)
    assert estimate_output([500, 500, 0, 0], SQUARE_MAP) == pytest.approx(0.0)
    assert estimate_output([0, 300, 300, 0], SQUARE_MAP) == pytest.approx(1.0)
    # exact-mode Bell through identity circuit
    c = compile_segments(zero_schedule())
    probs = run_shots(c, ghz_family_state(2, 1.0, 1.0), ShotBackend())
    assert estimate_output(probs, SQUARE_MAP) == pytest.approx(1.0)


def test_estimate_output_rejects_bad_input():
    for counts in (np.zeros(4, dtype=int),  # no shots
                   np.array([0.5, 0.5]),  # one qubit: no pair to measure
                   np.ones(6, dtype=int),  # not a power of 2
                   np.ones((2, 4), dtype=int)):  # not one vector
        with pytest.raises(ValueError):
            estimate_output(counts)


def test_estimate_output_measures_designated_pair_of_larger_register():
    # three qubits: parity of the first two only
    probs = np.zeros(8)
    probs[0b011] = 1.0  # qubits (0, 1) anti-aligned
    assert estimate_output(probs, SQUARE_MAP) == pytest.approx(1.0)
    probs = np.zeros(8)
    probs[0b110] = 1.0
    assert estimate_output(probs, SQUARE_MAP) == pytest.approx(1.0)
    for n in range(4, 7):
        for index in range(2**n):
            probs = np.zeros(2**n)
            probs[index] = 1.0
            aligned = (index >> (n - 1) & 1) == (index >> (n - 2) & 1)
            assert estimate_output(probs, IDENTITY_MAP) == (
                1.0 if aligned else -1.0)


# -- training ----------------------------------------------------------------


def test_exact_mode_training_matches_continuum_loop():
    # The circuit pipeline and the continuum integrator drive the same
    # finite-difference sweep identically when measurement is exact.
    pairs = build_training_set(2, SQUARE_MAP)
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
    cfg_a = CircuitRLConfig(epochs=20)
    _, log_circuit = train_circuit_rl(pairs, s, cfg_a, ShotBackend(),
                                      SQUARE_MAP)

    sched = s.copy()
    cfg_b = CircuitRLConfig(epochs=20)
    cids = list_trainable(sched, cfg_b.learning_rates)
    grid = TimeGrid(s.T, 4 * s.segments)
    err = lambda sc: np.sqrt(np.mean(
        [2.0 * rl.pair_error(p, sc, SQUARE_MAP, grid) for p in pairs]))
    rms_cont = []
    for _ in range(20):
        for cid in cids:
            g = rl.fd_gradient(cid, sched, err, err(sched), cfg_b)
            descend(sched, [cid], [g], cfg_b.learning_rates)
        rms_cont.append(err(sched))
    assert np.abs(log_circuit.rms - np.array(rms_cont)).max() < 1e-9


def test_training_reduces_error_exact_mode():
    pairs = build_training_set(2, SQUARE_MAP)
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
    cfg = CircuitRLConfig(epochs=400, rms_target=0.2)
    trained, log = train_circuit_rl(pairs, s, cfg, ShotBackend(), SQUARE_MAP)
    assert log.rms[-1] < log.rms[0]
    assert log.rms[-1] <= 0.2


def test_twenty_trainable_weights():
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
    assert len(list_trainable(s, CircuitRLConfig().learning_rates)) == 20


def test_training_empty_set_raises():
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4)
    with pytest.raises(ValueError):
        train_circuit_rl([], s, CircuitRLConfig(epochs=1), ShotBackend())
