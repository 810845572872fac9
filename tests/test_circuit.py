"""Circuit mode: compilation, shot sampling, noise models and RL training."""

from pathlib import Path

import numpy as np
import pytest
from step_reference import register_steps

from qdynlearn import circuit, qcore, rl
from qdynlearn.circuit import (
    CircuitRLConfig,
    ShotBackend,
    compile_segments,
    estimate_output,
    run_shots,
    train_circuit_rl,
)
from qdynlearn.qcore import (
    DensityMatrix,
    TimeGrid,
)
from qdynlearn.schedules import (
    FourierSchedule,
    PiecewiseSchedule,
    list_trainable,
    load_schedule,
)
from qdynlearn.train import descend
from qdynlearn.witness import (
    build_training_set,
    evaluate_witness,
    ghz_family_state,
    theta_sweep_states,
)

PERFBENCH = Path(__file__).parents[1] / "perfbench"


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
    u = compile_segments(zero_schedule())
    assert u.shape == (4, 4)
    assert np.abs(u - np.eye(4)).max() < 1e-14


def test_compile_coupling_only_diagonal_unitary():
    T = 2.0
    s = PiecewiseSchedule.initialized(2, T, segments=1, tied=False,
                                      tunneling=0.0, bias=0.0, coupling=0.3)
    u = compile_segments(s)
    phi = 0.3 * T
    expected = np.diag(np.exp(-1j * phi * np.array([1, -1, -1, 1])))
    assert np.abs(u - expected).max() < 1e-12


def test_compile_agrees_with_continuum_evolution():
    rng = np.random.default_rng(0)
    s = random_schedule(rng)
    u_circuit = compile_segments(s)
    # continuum grid aligned with the segments (many steps per segment)
    u_cont = qcore.total_propagator(s, TimeGrid(s.T, 8 * s.segments))
    assert np.abs(u_circuit - u_cont).max() < 1e-9


@pytest.mark.parametrize("num_qubits", [2, 3, 4])
@pytest.mark.parametrize("segments", [1, 4, 7])
def test_compile_segments_is_unitary(num_qubits, segments):
    # Random piecewise schedules, with pulse areas up to a few radians per
    # segment: the compiled product stays unitary to round-off.
    rng = np.random.default_rng(10 * num_qubits + segments)
    for scale in (0.1, 1.0, 3.0):
        s = PiecewiseSchedule.initialized(num_qubits, 2.0, segments=segments,
                                          tied=bool(rng.integers(2)))
        s.params[:] = rng.normal(scale=scale, size=s.params.shape)
        u = compile_segments(s)
        assert u.shape == (2**num_qubits,) * 2
        assert np.abs(u @ u.conj().T - np.eye(len(u))).max() <= 1e-12


def test_compile_and_readout_count_no_solve():
    # A set evaluation reads one compiled unitary, not a trajectory: a
    # circuit epoch counts no solve.
    pairs = build_training_set(2)
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
    qcore.solve_count = 0
    compile_segments(PiecewiseSchedule.initialized(3, 2.0, segments=4,
                                                   tied=True))
    for backend in (ShotBackend(),
                    ShotBackend(shots=1000, p_dep=0.05, p_ro=0.01, seed=1)):
        circuit.set_rms_error(pairs, s, backend)  # compiles, then measures
    assert qcore.solve_count == 0


# -- backend and sampling ----------------------------------------------------


def test_backend_validation():
    with pytest.raises(ValueError):
        ShotBackend(shots=0)
    with pytest.raises(ValueError):
        ShotBackend(p_dep=1.5)
    with pytest.raises(ValueError):
        ShotBackend(p_ro=-0.1)
    # The generator is built on the first draw; its seed is checked here.
    for seed in (-1, 1.5, True, "1"):
        with pytest.raises(ValueError, match="seed"):
            ShotBackend(shots=100, seed=seed)
    # Shots follow seed's rule, an integer and not a bool: 2.9 would draw
    # 2 shots and True one.
    for shots in (2.9, 1.0, True, np.float64(3.0), "8"):
        with pytest.raises(ValueError, match="shots must be an integer"):
            ShotBackend(shots=shots)
    assert ShotBackend(shots=np.int64(8192)).shots == 8192
    # The noise probabilities are numbers: True would be probability 1.
    for name in ("p_dep", "p_ro"):
        for p in (True, False, "0.5", None, float("nan")):
            with pytest.raises(ValueError, match=f"{name}={p!r}"):
                ShotBackend(**{name: p})
        assert getattr(ShotBackend(**{name: np.float64(0.5)}), name) == 0.5
    assert ShotBackend().exact
    assert not ShotBackend(shots=100).exact


def test_identity_circuit_counts_concentrate():
    c = compile_segments(zero_schedule())
    rho = DensityMatrix.from_state_vector([0, 1, 0, 0])  # |01>
    counts = run_shots(c, rho, ShotBackend(shots=1000, seed=0), 4)
    assert counts.dtype.kind == "i"
    assert np.array_equal(counts, [0, 1000, 0, 0])


def test_exact_mode_returns_diagonal():
    rng = np.random.default_rng(1)
    s = random_schedule(rng)
    c = compile_segments(s)
    rho = ghz_family_state(2, 0.6, 0.8)
    probs = run_shots(c, rho, ShotBackend(), s.segments)
    u = np.eye(4, dtype=complex)
    for seg in register_steps(s, TimeGrid(s.T, s.segments)):
        u = seg @ u
    expected = np.diag(u @ rho.matrix @ u.conj().T).real
    assert np.abs(probs - expected).max() < 1e-12
    assert probs.sum() == pytest.approx(1.0)
    # The count readout and the density-matrix readout share one parity.
    assert abs(estimate_output(probs) - qcore.output_value(expected)) <= 1e-14


def test_fully_randomized_readout_is_uniform():
    c = compile_segments(zero_schedule())
    rho = DensityMatrix.from_state_vector([1, 0, 0, 0])
    probs = run_shots(c, rho, ShotBackend(p_ro=0.5), 4)
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
    got = [run_shots(c, rho, backend, s.segments) for _ in range(3)]
    exact = run_shots(c, rho, ShotBackend(), s.segments)  # before readout
    rng = np.random.default_rng(9)
    for counts in got:
        ref = rng.multinomial(8192, kron_readout(2, 0.01) @ exact)
        assert np.array_equal(counts, ref)


def test_determinism_under_fixed_seed():
    rng = np.random.default_rng(2)
    s = random_schedule(rng)
    c = compile_segments(s)
    rho = ghz_family_state(2, 1.0, 1.0)
    a = run_shots(c, rho, ShotBackend(shots=5000, seed=42), s.segments)
    b = run_shots(c, rho, ShotBackend(shots=5000, seed=42), s.segments)
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
        ests = [estimate_output(run_shots(c, rho, backend, s.segments))
                for _ in range(200)]
        sigmas.append(np.std(ests))
    slope = np.polyfit(np.log(shot_counts), np.log(sigmas), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.08)


def test_depolarizing_noise_shrinks_correlation():
    rng = np.random.default_rng(4)
    s = random_schedule(rng)
    c = compile_segments(s)
    rho = ghz_family_state(2, 1.0, 1.0)
    clean = estimate_output(run_shots(c, rho, ShotBackend(), s.segments))
    noisy = estimate_output(run_shots(c, rho, ShotBackend(p_dep=0.1),
                                      s.segments))
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
    for u in register_steps(s, TimeGrid(s.T, segments)):
        rho = u @ rho @ u.conj().T
        rho = (1.0 - p_dep) * rho + p_dep * np.trace(rho).real * np.eye(d) / d
    probs = run_shots(compile_segments(s), rho0, ShotBackend(p_dep=p_dep),
                      segments)
    assert np.abs(probs - np.diag(rho).real).max() <= 1e-14


# -- output estimation -------------------------------------------------------


def test_estimate_output_examples():
    assert estimate_output([800, 0, 0, 0]) == pytest.approx(1.0)
    assert estimate_output([500, 500, 0, 0]) == pytest.approx(0.0)
    assert estimate_output([0, 300, 300, 0]) == pytest.approx(1.0)
    # exact-mode Bell through identity circuit
    c = compile_segments(zero_schedule())
    probs = run_shots(c, ghz_family_state(2, 1.0, 1.0), ShotBackend(), 4)
    assert estimate_output(probs) == pytest.approx(1.0)


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
    assert estimate_output(probs) == pytest.approx(1.0)
    probs = np.zeros(8)
    probs[0b110] = 1.0
    assert estimate_output(probs) == pytest.approx(1.0)
    # 3/4 on one outcome and 1/4 on |0..0>: <zz> is 1 if the outcome's
    # qubits (0, 1) are aligned and -1/2 if not, read as 1 or 1/4.
    for n in range(4, 7):
        for index in range(2**n):
            probs = np.zeros(2**n)
            probs[index] += 0.75
            probs[0] += 0.25
            aligned = (index >> (n - 1) & 1) == (index >> (n - 2) & 1)
            assert estimate_output(probs) == (1.0 if aligned else 0.25)


# -- one readout -------------------------------------------------------------


def test_pure_state_readouts_never_call_eigh(monkeypatch):
    # Every solve-only readout reads populations(U F), and a pure state's
    # factor is its state vector, so none of these diagonalises anything:
    # the N = 2 eval sweep's concurrence oracle reads psi from the factor.
    calls = []
    for name in ("eigh", "eigvalsh", "eigvals"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, name=name, real=real, **k:
                            calls.append((name, a[0].shape)) or real(*a, **k))
    for n in range(2, 7):
        build_training_set(n)
    for n in (2, 3):
        thetas, sweep = theta_sweep_states(n)
        sched = FourierSchedule.initialized(n, 250.0)
        report = evaluate_witness(sched, list(zip(map(str, thetas), sweep)),
                                  TimeGrid(250.0, 50))
        assert len(report.outputs) == 21
    pairs = build_training_set(2)
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
    for backend in (ShotBackend(), ShotBackend(shots=1000, p_ro=0.01, seed=1)):
        train_circuit_rl(pairs, s, CircuitRLConfig(epochs=1), backend)
    rl.train_rl_epoch(pairs, FourierSchedule.initialized(2, 250.0),
                      rl.RLConfig(), TimeGrid(250.0, 50))
    assert calls == []


# -- values pinned bit for bit ------------------------------------------------

# compile_segments and run_shots on the 4 training pairs, from criterion 5's
# default schedule and the benchmark's shot-mode start: the compiled unitary
# (row-major), the exact probabilities with readout error, and with
# depolarizing noise too, and 8192-shot counts from seed 1.  A fast path in
# either must reproduce them exactly: the circuit trajectories of
# test_trajectories.py are pinned with ==.  Re-recording the start file
# restates its values here.
PINNED = {
    "default": {
        "unitary": [
            0.9999838200865122-0.0005999946306839178j,
            -7.999957066758688e-07-0.003999957146804229j,
            -7.999957066758688e-07-0.003999957146804229j,
            -1.5999914346849788e-05+1.0666632234719285e-09j,
            -7.999957066758688e-07-0.003999957146804229j,
            0.9999839800856534+0.00019999893200340913j,
            -1.5999914346849788e-05-1.066663257605157e-09j,
            7.999957280091106e-07-0.00399995725347055j,
            -7.999957066758688e-07-0.003999957146804229j,
            -1.5999914346849788e-05-1.066663257605157e-09j,
            0.9999839800856533+0.00019999893200340913j,
            7.999957280091105e-07-0.00399995725347055j,
            -1.5999914346849788e-05+1.0666632234719285e-09j,
            7.999957280091106e-07-0.00399995725347055j,
            7.999957280091105e-07-0.00399995725347055j,
            0.9999839800856534+0.000199996798676928j],
        "exact": [
            [0.980068954013096, 0.009915366071366739,
             0.009915366071366739, 0.0001003138441705138],
            [0.49006926785893073, 0.009930732142323711,
             0.009930732142323711, 0.49006926785642185],
            [0.4949937123333352, 0.4949906077507093,
             0.00500785565403717, 0.0050078242619182095],
            [0.35287427287807194, 0.009930117499616557,
             0.009930117499616557, 0.627265492122695]],
        "depolarized": [
            [0.8446457259746294, 0.05444956513616617,
             0.05444956513616617, 0.046455143753038414],
            [0.4455379191040232, 0.054462080896998576,
             0.054462080896998576, 0.44553791910197965],
            [0.4495489099062036, 0.44954638120425117,
             0.05045236722931114, 0.050452341660234046],
            [0.33379173822339503, 0.05446158026667206,
             0.054461580266672055, 0.5572851012432607]],
        "shots": [
            [8032, 72, 88, 0],
            [3990, 85, 70, 4047],
            [4093, 4010, 53, 36],
            [2922, 76, 81, 5113]],
    },
    "circuit_start.json": {
        "unitary": [
            0.9791636788226968-0.013240888804078272j,
            0.0014244552749098143-0.19687753502921318j,
            0.00023778550570684978+0.04702066984210486j,
            0.009453688670754502-6.246791995042582e-05j,
            -0.001923070150374979-0.19687328781616686j,
            0.9791940946620028+0.0107609796132202j,
            0.009453995615032518-3.6280579339747885e-05j,
            0.0002533658750747603+0.04702013503636608j,
            -0.0001622615327665408+0.04702103381132246j,
            0.009451420030304351+0.00020682352298031603j,
            0.9791830625003694+0.01166815312491227j,
            0.0015822497654587476-0.19687941673694928j,
            0.009453234918726638-0.00010809167902175369j,
            -0.0003288884465903298+0.047019710129331156j,
            -0.0010836204413669625-0.196882784412639j,
            0.9792094951081589-0.009188199834183092j],
        "exact": [
            [0.9402596376179984, 0.04748599068394588,
             0.011665240693183091, 0.0005891310048725548],
            [0.4793153262211957, 0.020684690399713126,
             0.020685080434446362, 0.4793149029446448],
            [0.49775525668331827, 0.489990394133787,
             0.00617434718986678, 0.006080001993028011],
            [0.3474058195816125, 0.016025413259239892,
             0.02605579608135998, 0.6105129710777877]],
        "depolarized": [
            [0.8122207889625946, 0.0850510736995157,
             0.05587484895235197, 0.0468532883855375],
            [0.43677876642795277, 0.06322124710988138,
             0.06322156479560934, 0.43677842166655656],
            [0.45179820503891693, 0.4454736759619328,
             0.051402481875816454, 0.051325637123333795],
            [0.3293376488355957, 0.05942623675848379,
             0.06759604625699324, 0.5436400681489272]],
        "shots": [
            [7712, 393, 84, 3],
            [3902, 173, 153, 3964],
            [4116, 3970, 46, 60],
            [2877, 124, 211, 4980]],
    },
}
PINNED_BACKENDS = {"exact": {"p_ro": 0.01},
                   "depolarized": {"p_dep": 0.05, "p_ro": 0.01},
                   "shots": {"shots": 8192, "p_ro": 0.01, "seed": 1}}


@pytest.mark.parametrize("start", sorted(PINNED))
def test_compile_and_readout_equal_their_pinned_values(start):
    sched = (PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
             if start == "default" else load_schedule(PERFBENCH / start))
    pinned = PINNED[start]
    u = compile_segments(sched)
    assert np.array_equal(u.ravel(), pinned["unitary"])
    for name, args in PINNED_BACKENDS.items():
        backend = ShotBackend(**args)
        got = [run_shots(u, pair.rho0, backend, sched.segments)
               for pair in build_training_set(2)]
        assert np.array_equal(got, pinned[name]), name

# -- training ----------------------------------------------------------------


def test_exact_mode_training_matches_continuum_loop():
    # The circuit pipeline and the continuum integrator drive the same
    # finite-difference sweep identically when measurement is exact.
    pairs = build_training_set(2)
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
    cfg_a = CircuitRLConfig(epochs=20)
    _, log_circuit = train_circuit_rl(pairs, s, cfg_a, ShotBackend())

    sched = s.copy()
    cfg_b = CircuitRLConfig(epochs=20)
    idx = list_trainable(sched, cfg_b.learning_rates)
    rates = sched.per_index(cfg_b.learning_rates)
    floors = sched.per_index(cfg_b.delta_abs)
    grid = TimeGrid(s.T, 4 * s.segments)
    err = lambda sc: np.sqrt(np.mean(
        [2.0 * rl.pair_error(p, sc, grid) for p in pairs]))
    rms_cont = []
    for _ in range(20):
        for i in idx:
            delta = cfg_b.perturbation(sched.params[i], floors[i])
            g = rl.fd_gradient(i, sched, err, err(sched), delta)
            descend(sched, i, g, rates)
        rms_cont.append(err(sched))
    assert np.abs(log_circuit.rms - np.array(rms_cont)).max() < 1e-9


def test_training_reduces_error_exact_mode():
    pairs = build_training_set(2)
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
    cfg = CircuitRLConfig(epochs=400, rms_target=0.2)
    trained, log = train_circuit_rl(pairs, s, cfg, ShotBackend())
    assert log.rms[-1] < log.rms[0]
    assert log.rms[-1] <= 0.2


def test_twenty_trainable_weights():
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
    assert len(list_trainable(s, CircuitRLConfig().learning_rates)) == 20


def test_training_empty_set_raises():
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4)
    with pytest.raises(ValueError):
        train_circuit_rl([], s, CircuitRLConfig(epochs=1), ShotBackend())
