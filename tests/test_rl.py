"""Finite-difference RL: quotient correctness, bookkeeping, convergence."""

import numpy as np
import pytest

from qdynlearn import backprop, qcore
from qdynlearn.config import RunConfig
from qdynlearn.qcore import DensityMatrix, SQUARE_MAP, TimeGrid
from qdynlearn.rl import RLConfig, fd_gradient, pair_error, train_rl, train_rl_epoch
from qdynlearn.schedules import FourierSchedule, list_trainable
from qdynlearn.witness import TrainingPair, build_training_set


def quotient(cid, pair, sched, cfg, grid):
    """The RL loop's difference quotient for one pair's error."""
    error_fn = lambda s: pair_error(pair, s, SQUARE_MAP, grid)
    return fd_gradient(cid, sched, error_fn, error_fn(sched), cfg)


def default_problem(T=250.0, steps=200):
    pairs = build_training_set(2)
    sched = FourierSchedule.initialized(2, T, n_max=3, tied=True)
    return pairs, sched, TimeGrid(T, steps)


# -- config validation -------------------------------------------------------


def test_config_defaults():
    cfg = RLConfig()
    assert cfg.delta_rel == pytest.approx(2e-4)
    assert cfg.delta_abs["tunneling"] == pytest.approx(2e-4 * 2.5e-3)
    assert cfg.learning_rates == {"tunneling": 2e-7, "bias": 0.0,
                                  "coupling": 4e-7}


@pytest.mark.parametrize("delta_rel", [2e-4, 1e-3])
@pytest.mark.parametrize("init", [{}, {"tunneling": 0.0, "bias": 0.0}])
def test_delta_abs_default_is_one_rule(delta_rel, init):
    # The loop config and the run config resolve the same floor: delta_rel
    # times each kind's Fourier initialization scale, for any configured
    # delta_rel and whatever init values the run starts from.
    expected = {k: delta_rel * s for k, s in FourierSchedule.INIT.items()}
    assert RLConfig(delta_rel=delta_rel).delta_abs == expected
    run = RunConfig(mode="rl", delta_rel=delta_rel, init=init)
    assert run.delta_abs == expected
    assert run.train_config().delta_abs == expected


def test_config_validation():
    with pytest.raises(ValueError):
        RLConfig(delta_rel=0.0)
    with pytest.raises(ValueError):
        RLConfig(delta_abs={"tunneling": -1e-7, "bias": 1e-7, "coupling": 1e-7})
    with pytest.raises(ValueError):
        RLConfig(learning_rates={"tunneling": -1.0})


def test_perturbation_floor():
    cfg = RLConfig()
    # large value: relative perturbation wins
    assert cfg.perturbation("tunneling", 1.0) == pytest.approx(2e-4)
    # zero value: absolute floor keeps the perturbation nonzero
    assert cfg.perturbation("tunneling", 0.0) == pytest.approx(5e-7)
    assert cfg.perturbation("coupling", 0.0) == pytest.approx(2e-8)


# -- error and quotient ------------------------------------------------------


def test_pair_error_closed_form():
    # Zero Hamiltonian leaves |00> alone: output f(<zz>) = 1, so the error
    # against target d is (d - 1)^2 / 2.
    sched = FourierSchedule.initialized(2, 10.0, n_max=0, tied=True,
                                        tunneling=0.0, bias=0.0, coupling=0.0)
    pair = TrainingPair(DensityMatrix.from_state_vector([1, 0, 0, 0]), 0.25)
    e = pair_error(pair, sched, SQUARE_MAP, TimeGrid(10.0, 5))
    assert e == pytest.approx(0.5 * 0.75**2)


def test_fd_gradient_restores_schedule_bit_identically():
    pairs, sched, grid = default_problem(steps=50)
    cfg = RLConfig()
    before = {k: sched.coeffs[k].copy() for k in sched.coeffs}
    for cid in list_trainable(sched, cfg.learning_rates):
        quotient(cid, pairs[1], sched, cfg, grid)
    for kind, c in before.items():
        assert np.array_equal(sched.coeffs[kind], c)


def test_fd_gradient_agrees_with_adjoint():
    # The one-sided quotient is a first-order approximation of the true
    # gradient; at the default perturbation it should sit within ~1% wherever
    # the gradient is appreciable.
    rng = np.random.default_rng(8)
    T = 250.0
    grid = TimeGrid(T, 200)
    sched = FourierSchedule.initialized(2, T, n_max=3, tied=False)
    for kind, scale in (("tunneling", 2.5e-3), ("bias", 1e-4),
                        ("coupling", 1e-4)):
        sched.coeffs[kind][:] = rng.normal(scale=scale,
                                           size=sched.coeffs[kind].shape)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    pair = TrainingPair(DensityMatrix.from_state_vector(psi), 0.3)
    cfg = RLConfig()

    traj = qcore.evolve(pair.rho0, sched, grid)
    a_final = backprop.adjoint_boundary(traj.final(), pair.target,
                                        SQUARE_MAP)
    field = backprop.adjoint_evolve_backward(a_final, traj)
    for cid in list_trainable(sched, cfg.learning_rates):
        exact = backprop.all_gradients([cid], traj, field, sched, grid)[0]
        quot = quotient(cid, pair, sched, cfg, grid)
        if abs(exact) > 1e-4:
            assert quot == pytest.approx(exact, rel=1e-2)


def test_fd_gradient_first_order_in_delta():
    pairs, sched, grid = default_problem(steps=100)
    pair = pairs[3]
    cid = list_trainable(sched, RLConfig().learning_rates)[0]
    traj = qcore.evolve(pair.rho0, sched, grid)
    a_final = backprop.adjoint_boundary(traj.final(), pair.target,
                                        SQUARE_MAP)
    field = backprop.adjoint_evolve_backward(a_final, traj)
    exact = backprop.all_gradients([cid], traj, field, sched, grid)[0]
    errs = []
    for drel in (1e-3, 1e-4, 1e-5):
        cfg = RLConfig(delta_rel=drel,
                       delta_abs={k: drel * s
                                  for k, s in FourierSchedule.INIT.items()})
        errs.append(abs(quotient(cid, pair, sched, cfg, grid) - exact))
    # error shrinks roughly linearly with the perturbation
    assert errs[0] > errs[1] > errs[2]
    assert 4.0 < errs[0] / errs[1] < 25.0


# -- epoch bookkeeping -------------------------------------------------------


def test_epoch_zero_rates_leaves_schedule_unchanged():
    pairs, sched, grid = default_problem(steps=50)
    cfg = RLConfig(learning_rates={"tunneling": 0.0, "bias": 0.0,
                                   "coupling": 0.0})
    before = {k: sched.coeffs[k].copy() for k in sched.coeffs}
    train_rl_epoch(pairs, sched, cfg, SQUARE_MAP, grid)
    for kind, c in before.items():
        assert np.array_equal(sched.coeffs[kind], c)


def test_epoch_solve_count_deferred():
    pairs, sched, grid = default_problem(steps=20)
    cfg = RLConfig()
    n = len(list_trainable(sched, cfg.learning_rates))
    qcore.solve_count = 0
    train_rl_epoch(pairs, sched, cfg, SQUARE_MAP, grid)
    assert qcore.solve_count == len(pairs) * (1 + n)


def test_epoch_rms_matches_direct_evaluation():
    pairs, sched, grid = default_problem(steps=50)
    expected = np.sqrt(np.mean([2.0 * pair_error(p, sched, SQUARE_MAP, grid)
                                for p in pairs]))
    rms = train_rl_epoch(pairs, sched.copy(),
                         RLConfig(learning_rates={"tunneling": 0.0,
                                                  "bias": 0.0,
                                                  "coupling": 0.0}),
                         SQUARE_MAP, grid)
    assert rms == pytest.approx(expected, abs=1e-12)


def test_train_is_deterministic():
    pairs, sched, grid = default_problem(steps=50)
    cfg = RLConfig(epochs=5)
    _, log_a = train_rl(pairs, sched, cfg, SQUARE_MAP, grid)
    _, log_b = train_rl(pairs, sched, cfg, SQUARE_MAP, grid)
    assert np.array_equal(log_a.rms, log_b.rms)


def test_train_empty_set_raises():
    _, sched, grid = default_problem()
    with pytest.raises(ValueError):
        train_rl([], sched, RLConfig(epochs=1), SQUARE_MAP, grid)


# -- convergence -------------------------------------------------------------


def test_train_reaches_target_quickly():
    pairs, sched, grid = default_problem()
    cfg = RLConfig(epochs=100, rms_target=0.05)
    trained, log = train_rl(pairs, sched, cfg, SQUARE_MAP, grid)
    assert log.rms[-1] <= 0.05
    assert log.rms[-1] < log.rms[0]
