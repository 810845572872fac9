"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output) and asserts the same condition.  Criteria and tolerances:

1. Adjoint gradients match central finite differences on random 2-qubit
   problems (M = 1000): relative error <= 1e-4, absolute 1e-10 near zero.
2. Evolution preserves density-matrix invariants over 1000 random steps.
3. Circuit exact mode equals continuum evolution on segment-aligned grids
   (<= 1e-9, 100 random piecewise schedules).
4. 2-qubit RL training with the published defaults reaches RMS <= 0.05
   within 2000 epochs.
5. Circuit 20-weight training: exact mode reaches RMS <= 0.03 by 2000
   epochs; with 8192 shots and 1% readout error the RMS plateaus in
   [0.01, 0.10].
6. Staging: a 3-qubit run started from a staged 2-qubit schedule reaches
   RMS <= 0.1 in fewer epochs than from the default initialization.
7. Cost structure: RL costs pairs x (1 + n_coeffs) solves per epoch versus
   backprop's 2 x pairs, an 11x ratio at 21 coefficients.
8. A trained 2-qubit witness ranks the cos(theta)|00> + sin(theta)|11>
   sweep with Spearman >= 0.95 against concurrence.
9. Concurrence oracle: closed-form values to 1e-12 and local-unitary
   invariance to 1e-10.
"""

import numpy as np
import pytest
from scipy.stats import spearmanr

from qdynlearn import backprop, circuit, qcore, rl, staging, witness
from qdynlearn.qcore import (
    DensityMatrix,
    SQUARE_MAP,
    TimeGrid,
    evolve,
)
from qdynlearn.schedules import FourierSchedule, PiecewiseSchedule, list_trainable
from qdynlearn.witness import TrainingPair, build_training_set, concurrence

KIND_SCALES = {"tunneling": 2.5e-3, "bias": 1e-4, "coupling": 1e-4}


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def random_fourier(rng, num_qubits=2, T=250.0, n_max=3, scales=KIND_SCALES):
    s = FourierSchedule.initialized(num_qubits, T, n_max=n_max, tied=False)
    for kind, scale in scales.items():
        s.coeffs[kind][:] = rng.normal(scale=scale, size=s.coeffs[kind].shape)
    return s


def random_state(rng, num_qubits=2):
    d = 2**num_qubits
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return DensityMatrix.from_state_vector(psi)


def test_criterion_1_adjoint_vs_central_difference():
    rng = np.random.default_rng(2024)
    T = 250.0
    grid = TimeGrid(T, 1000)
    worst_rel, checked = 0.0, 0
    for _ in range(20):
        sched = random_fourier(rng, T=T)
        pair = TrainingPair(random_state(rng), rng.uniform())
        traj = evolve(pair.rho0, sched, grid)
        a_final = backprop.adjoint_boundary(traj.final(), pair.target,
                                            SQUARE_MAP)
        field = backprop.adjoint_evolve_backward(a_final, traj)
        cids = list_trainable(sched, {"tunneling": 1.0, "coupling": 1.0})
        assert len(cids) == 21
        for cid in cids:
            g = backprop.all_gradients([cid], traj, field, sched, grid)[0]
            h = 1e-4 * KIND_SCALES[cid.kind]
            v = sched.get(cid)
            sched.set(cid, v + h)
            ep = rl.pair_error(pair, sched, SQUARE_MAP, grid)
            sched.set(cid, v - h)
            em = rl.pair_error(pair, sched, SQUARE_MAP, grid)
            sched.set(cid, v)
            fd = (ep - em) / (2 * h)
            checked += 1
            if abs(fd) < 1e-10:
                assert abs(g - fd) <= 1e-10
            else:
                worst_rel = max(worst_rel, abs(g - fd) / abs(fd))
    report(1, worst_rel <= 1e-4,
           f"20 draws x 21 coefficients at M=1000, worst relative error "
           f"{worst_rel:.2e} <= 1e-4, {checked} gradients")


def test_criterion_2_invariants_over_random_steps():
    rng = np.random.default_rng(7)
    total_steps = 0
    worst_h, worst_t, worst_p = 0.0, 0.0, 0.0
    while total_steps < 1000:
        n = int(rng.integers(2, 5))
        steps = int(rng.integers(10, 40))
        T = float(rng.uniform(20.0, 400.0))
        sched = random_fourier(rng, num_qubits=n, T=T,
                               scales={k: 10 ** rng.uniform(-4, -1.5)
                                       for k in KIND_SCALES})
        traj = evolve(random_state(rng, n), sched, TimeGrid(T, steps))
        for rho in traj.states[1:]:
            worst_h = max(worst_h, np.abs(rho - rho.conj().T).max())
            worst_t = max(worst_t, abs(np.trace(rho).real - 1.0))
            worst_p = max(worst_p, -np.linalg.eigvalsh(rho).min())
        total_steps += steps
    ok = (worst_h <= 1e-12 and worst_t <= 1e-10 and worst_p <= 1e-9)
    report(2, ok,
           f"{total_steps} random steps: hermiticity {worst_h:.1e} <= 1e-12, "
           f"trace {worst_t:.1e} <= 1e-10, min eigenvalue >= -{worst_p:.1e}")


def test_criterion_3_circuit_equals_continuum():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        segments = int(rng.integers(1, 7))
        T = float(rng.uniform(0.5, 8.0))
        sched = PiecewiseSchedule.initialized(2, T, segments=segments,
                                              tied=False)
        for kind in KIND_SCALES:
            sched.coeffs[kind][:] = rng.normal(
                scale=0.5, size=sched.coeffs[kind].shape)
        compiled = circuit.compile_segments(sched)
        rho = random_state(rng)
        probs = circuit.run_shots(compiled, rho, circuit.ShotBackend())
        steps_per = int(rng.integers(1, 5))
        grid = TimeGrid(T, segments * steps_per)
        u = qcore.total_propagator(sched, grid)
        ref = np.diag(u @ rho.matrix @ u.conj().T).real
        worst = max(worst, np.abs(probs - ref).max())
    report(3, worst <= 1e-9,
           f"100 random piecewise schedules, exact-mode vs continuum "
           f"max deviation {worst:.1e} <= 1e-9")


def test_criterion_4_rl_training_defaults():
    pairs = build_training_set(2)
    T = 250.0
    sched = FourierSchedule.initialized(2, T, n_max=3, tied=True,
                                        tunneling=2.5e-3, bias=1e-4,
                                        coupling=1e-4)
    cfg = rl.RLConfig(epochs=2000, rms_target=0.05)  # published rates/deltas
    trained, log = rl.train_rl(pairs, sched, cfg, SQUARE_MAP, TimeGrid(T, 200))
    ok = log.rms[-1] <= 0.05 and log.rms[-1] < log.rms[0]
    report(4, ok,
           f"RMS {log.rms[0]:.4f} -> {log.rms[-1]:.4f} "
           f"in {len(log.records)} epochs (<= 2000)")


def test_criterion_5_circuit_training_exact_and_shots():
    pairs = build_training_set(2)
    sched = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)

    cfg = circuit.CircuitRLConfig(epochs=2000, rms_target=0.03)
    _, log_exact = circuit.train_circuit_rl(pairs, sched, cfg,
                                            circuit.ShotBackend(), SQUARE_MAP)
    exact_ok = log_exact.rms.min() <= 0.03 and len(log_exact.records) <= 2000

    cfg_shots = circuit.CircuitRLConfig(epochs=800)
    backend = circuit.ShotBackend(shots=8192, p_ro=0.01, seed=1)
    _, log_shots = circuit.train_circuit_rl(pairs, sched, cfg_shots, backend,
                                            SQUARE_MAP)
    plateau = float(np.median(log_shots.rms[-200:]))
    shots_ok = 0.01 <= plateau <= 0.10
    report(5, exact_ok and shots_ok,
           f"exact RMS {log_exact.rms.min():.4f} <= 0.03 in "
           f"{len(log_exact.records)} epochs; shots=8192 p_ro=0.01 plateau "
           f"{plateau:.4f} in [0.01, 0.10]")


def test_criterion_6_staging_benefit():
    # Both three-qubit runs share the same configuration; only the
    # initialization differs (staged-from-trained-2-qubit vs default).
    # Coupling-dominant learning rates: entanglement detection beyond two
    # qubits rides on the pair couplings, so the staged coupling head start
    # is what the comparison must expose.
    T = 250.0
    grid = TimeGrid(T, 200)
    rates = {"tunneling": 2e-8, "bias": 0.0, "coupling": 4e-6}
    pairs2 = build_training_set(2)
    sched2 = FourierSchedule.initialized(2, T, n_max=3, tied=True)
    cfg2 = rl.RLConfig(epochs=2000, rms_target=0.05,
                       learning_rates=dict(rates))
    trained2, log2 = rl.train_rl(pairs2, sched2, cfg2, SQUARE_MAP, grid)
    assert log2.rms[-1] <= 0.05, "2-qubit witness did not converge"

    pairs3 = build_training_set(3)
    epochs = {}
    for label, init in (("staged", staging.stage_up(trained2)),
                        ("default", FourierSchedule.initialized(
                            3, T, n_max=3, tied=True))):
        cfg3 = rl.RLConfig(epochs=2000, rms_target=0.1,
                           learning_rates=dict(rates))
        _, log3 = rl.train_rl(pairs3, init, cfg3, SQUARE_MAP, grid)
        assert log3.rms[-1] <= 0.1, f"{label} 3-qubit run missed RMS 0.1"
        epochs[label] = len(log3.records)
    report(6, epochs["staged"] < epochs["default"],
           f"epochs to RMS <= 0.1: staged {epochs['staged']} < "
           f"default {epochs['default']}")


def test_criterion_7_cost_structure():
    pairs = build_training_set(2)
    T = 250.0
    grid = TimeGrid(T, 50)
    sched = FourierSchedule.initialized(2, T, n_max=3, tied=False)
    rates = {"tunneling": 2e-7, "bias": 0.0, "coupling": 4e-7}
    n_coeffs = len(list_trainable(sched, rates))
    assert n_coeffs == 21

    qcore.solve_count = 0
    rl.train_rl_epoch(pairs, sched.copy(), rl.RLConfig(learning_rates=rates),
                      SQUARE_MAP, grid)
    rl_solves = qcore.solve_count

    qcore.solve_count = 0
    backprop.train_backprop(pairs, sched,
                            backprop.BackpropConfig(learning_rates=rates,
                                                    epochs=1),
                            SQUARE_MAP, grid)
    bp_solves = qcore.solve_count

    ok = (rl_solves == len(pairs) * (1 + n_coeffs)
          and bp_solves == 2 * len(pairs)
          and rl_solves == 11 * bp_solves)
    report(7, ok,
           f"RL {rl_solves} = pairs x (1 + {n_coeffs}) solves/epoch vs "
           f"backprop {bp_solves} = 2 x pairs; ratio "
           f"{rl_solves / bp_solves:.0f}x")


def test_criterion_8_trained_witness_spearman():
    pairs = build_training_set(2)
    T = 250.0
    grid = TimeGrid(T, 200)
    sched = FourierSchedule.initialized(2, T, n_max=3, tied=True)
    cfg = rl.RLConfig(epochs=2000, rms_target=0.05)
    trained, _ = rl.train_rl(pairs, sched, cfg, SQUARE_MAP, grid)
    thetas, states = witness.theta_sweep_states(2)
    assert len(states) == 21
    rep = witness.evaluate_witness(trained, [("s", st) for st in states],
                                   SQUARE_MAP, grid)
    oracle = [concurrence(st) for st in states]
    rho_s = spearmanr(rep.outputs, oracle).statistic
    report(8, rho_s >= 0.95,
           f"Spearman {rho_s:.4f} >= 0.95 on the 21-point theta sweep")


def test_criterion_9_concurrence_oracle():
    bell = witness.ghz_family_state(2, 1.0, 1.0)
    zeros = DensityMatrix.from_state_vector([1, 0, 0, 0])
    prod = DensityMatrix.from_state_vector([1, 1, 0, 0])
    partial = witness.ghz_family_state(2, 0.6, 0.8)
    closed_form_ok = (
        abs(concurrence(bell) - 1.0) <= 1e-12
        and abs(concurrence(zeros)) <= 1e-12
        and abs(concurrence(prod)) <= 1e-12
        and abs(concurrence(partial) - 0.96) <= 1e-12
    )

    rng = np.random.default_rng(3)
    worst = 0.0
    c0 = concurrence(partial)
    for _ in range(100):
        a, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        b, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        u = np.kron(a, b)
        worst = max(worst, abs(concurrence(u @ partial.matrix @ u.conj().T)
                               - c0))
    report(9, closed_form_ok and worst <= 1e-10,
           f"closed forms within 1e-12; local-unitary deviation "
           f"{worst:.1e} <= 1e-10 over 100 random rotations")
