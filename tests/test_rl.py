"""Finite-difference RL: quotient correctness, bookkeeping, convergence."""

import numpy as np
import pytest

from qdynlearn import backprop, qcore
from qdynlearn.config import RunConfig
from qdynlearn.qcore import DensityMatrix, TimeGrid
from qdynlearn.rl import RLConfig, fd_gradient, pair_error, train_rl, train_rl_epoch
from qdynlearn.schedules import FourierSchedule, list_trainable
from qdynlearn.witness import TrainingPair, build_training_set


def quotient(i, pair, sched, cfg, grid):
    """The RL loop's difference quotient of `params[i]` for one pair's error."""
    error_fn = lambda s: pair_error(pair, s, grid)
    delta = cfg.perturbation(sched.params[i], sched.per_index(cfg.delta_abs)[i])
    return fd_gradient(i, sched, error_fn, error_fn(sched), delta)


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
    assert run.loop.delta_abs == expected


@pytest.mark.parametrize("mode", ["rl", "circuit"])
def test_partial_delta_abs_takes_the_mode_defaults(mode):
    # Every trained coefficient needs a floor: the run config fills the kinds
    # a config leaves out, and the loop config rejects an incomplete dict.
    default = RunConfig(mode=mode).delta_abs
    run = RunConfig(mode=mode, delta_abs={"tunneling": 1e-6})
    assert run.delta_abs == {**default, "tunneling": 1e-6}
    assert run.loop.delta_abs == run.delta_abs
    with pytest.raises(ValueError, match="per kind"):
        RLConfig(delta_abs={"tunneling": 1e-6})


def test_config_validation():
    with pytest.raises(ValueError):
        RLConfig(delta_rel=0.0)
    with pytest.raises(ValueError):
        RLConfig(delta_abs={"tunneling": -1e-7, "bias": 1e-7, "coupling": 1e-7})
    with pytest.raises(ValueError):
        RLConfig(learning_rates={"tunneling": -1.0})


@pytest.mark.parametrize("field, value, match", [
    ("learning_rates", {"tunelling": 1e-7}, "learning_rates.tunelling"),
    ("learning_rates", {"tunneling": True}, "learning_rates.tunneling"),
    ("learning_rates", {"tunneling": "1e-7"}, "learning_rates.tunneling"),
    ("delta_abs", {"tunneling": True, "bias": 1e-7, "coupling": 1e-7},
     "delta_abs.tunneling"),
    ("delta_abs", {"tunneling": 1e-7, "bias": 1e-7, "coupling": 1e-7,
                   "tunelling": 1e-7}, "delta_abs.tunelling"),
    ("delta_rel", True, "delta_rel"), ("delta_rel", "2e-4", "delta_rel")])
def test_loop_config_applies_the_run_config_rules(field, value, match):
    # A misspelt kind would be read as rate 0 by per_index, so training
    # ran and changed nothing; True would count as 1.  The loop configs
    # reject both, as RunConfig does for the same fields of a file.
    with pytest.raises(ValueError, match=match):
        RLConfig(**{field: value})
    with pytest.raises(ValueError, match=match):
        RunConfig(mode="rl", **{field: value})


RATES = {"tunneling": 2e-7, "bias": 0.0, "coupling": 4e-7}
FLOORS = {"tunneling": 1e-7, "bias": 1e-7, "coupling": 1e-7}


@pytest.mark.parametrize("fields,name", [
    ({"learning_rates": {**RATES, "tunneling": np.nan}},
     "learning_rates.tunneling"),
    ({"learning_rates": {**RATES, "coupling": np.inf}},
     "learning_rates.coupling"),
    ({"delta_rel": np.nan}, "delta_rel"),
    ({"delta_rel": np.inf}, "delta_rel"),
    ({"delta_abs": {**FLOORS, "tunneling": np.inf}}, "delta_abs"),
    ({"delta_abs": {**FLOORS, "bias": np.nan}}, "delta_abs"),
])
def test_non_finite_loop_settings_rejected(fields, name):
    # A NaN passes `v < 0` and `v <= 0`: each would train on NaN steps.
    with pytest.raises(ValueError, match=name):
        RLConfig(**fields)


def test_perturbation_floor():
    cfg = RLConfig()
    # large value: relative perturbation wins
    floor = cfg.delta_abs
    assert cfg.perturbation(1.0, floor["tunneling"]) == pytest.approx(2e-4)
    # zero value: absolute floor keeps the perturbation nonzero
    assert cfg.perturbation(0.0, floor["tunneling"]) == pytest.approx(5e-7)
    assert cfg.perturbation(0.0, floor["coupling"]) == pytest.approx(2e-8)


# -- error and quotient ------------------------------------------------------


def test_pair_error_closed_form():
    # Zero Hamiltonian leaves |00> alone: output <zz>^2 = 1, so the error
    # against target d is (d - 1)^2 / 2.
    sched = FourierSchedule.initialized(2, 10.0, n_max=0, tied=True,
                                        tunneling=0.0, bias=0.0, coupling=0.0)
    pair = TrainingPair(DensityMatrix.from_state_vector([1, 0, 0, 0]), 0.25)
    e = pair_error(pair, sched, TimeGrid(10.0, 5))
    assert e == pytest.approx(0.5 * 0.75**2)


def test_pair_error_solves_once_on_the_occupied_blocks(monkeypatch):
    # A tied N = 4 error exponentiates only the spin blocks its state
    # occupies: the symmetric block (2j+1 = 5) for |0..0>, GHZ and the
    # partial state, and that plus one copy of 2j+1 = 3 for the
    # superposition.  Each error counts one solve.
    sched = FourierSchedule.initialized(4, 250.0, n_max=3, tied=True)
    grid = TimeGrid(250.0, 200)
    pairs = build_training_set(4)
    qcore.block_basis(4, True)  # built before the spy
    shapes, expm = [], qcore.expm_hermitian
    monkeypatch.setattr(qcore, "expm_hermitian",
                        lambda h, dt: shapes.append(h.shape) or expm(h, dt))
    want = {"product_zeros": 5, "ghz": 5, "product_superposition": 8,
            "partial": 5}
    for pair in pairs:
        shapes.clear()
        qcore.solve_count = 0
        pair_error(pair, sched, grid)
        r = want[pair.label]
        assert shapes == [(200, r, r)]
        assert qcore.solve_count == 1


def test_fd_gradient_restores_schedule_bit_identically():
    pairs, sched, grid = default_problem(steps=50)
    cfg = RLConfig()
    before = {k: sched.coeffs[k].copy() for k in sched.coeffs}
    for i in list_trainable(sched, cfg.learning_rates):
        quotient(i, pairs[1], sched, cfg, grid)
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
    a_final = backprop.adjoint_boundary(
        qcore.populations(traj.register_factors(-1)), pair.target)
    field = backprop.adjoint_evolve_backward(a_final, traj)
    for i in list_trainable(sched, cfg.learning_rates):
        exact = backprop.all_gradients([i], traj, field, sched, grid)[0]
        quot = quotient(i, pair, sched, cfg, grid)
        if abs(exact) > 1e-4:
            assert quot == pytest.approx(exact, rel=1e-2)


def test_fd_gradient_first_order_in_delta():
    pairs, sched, grid = default_problem(steps=100)
    pair = pairs[3]
    i = list_trainable(sched, RLConfig().learning_rates)[0]
    traj = qcore.evolve(pair.rho0, sched, grid)
    a_final = backprop.adjoint_boundary(
        qcore.populations(traj.register_factors(-1)), pair.target)
    field = backprop.adjoint_evolve_backward(a_final, traj)
    exact = backprop.all_gradients([i], traj, field, sched, grid)[0]
    errs = []
    for drel in (1e-3, 1e-4, 1e-5):
        cfg = RLConfig(delta_rel=drel,
                       delta_abs={k: drel * s
                                  for k, s in FourierSchedule.INIT.items()})
        errs.append(abs(quotient(i, pair, sched, cfg, grid) - exact))
    # error shrinks roughly linearly with the perturbation
    assert errs[0] > errs[1] > errs[2]
    assert 4.0 < errs[0] / errs[1] < 25.0


# -- epoch bookkeeping -------------------------------------------------------


def test_epoch_zero_rates_leaves_schedule_unchanged():
    pairs, sched, grid = default_problem(steps=50)
    cfg = RLConfig(learning_rates={"tunneling": 0.0, "bias": 0.0,
                                   "coupling": 0.0})
    before = {k: sched.coeffs[k].copy() for k in sched.coeffs}
    train_rl_epoch(pairs, sched, cfg, grid)
    for kind, c in before.items():
        assert np.array_equal(sched.coeffs[kind], c)


def test_epoch_solve_count_deferred():
    pairs, sched, grid = default_problem(steps=20)
    cfg = RLConfig()
    n = len(list_trainable(sched, cfg.learning_rates))
    qcore.solve_count = 0
    train_rl_epoch(pairs, sched, cfg, grid)
    assert qcore.solve_count == len(pairs) * (1 + n)


def test_epoch_rms_matches_direct_evaluation():
    pairs, sched, grid = default_problem(steps=50)
    expected = np.sqrt(np.mean([2.0 * pair_error(p, sched, grid)
                                for p in pairs]))
    rms = train_rl_epoch(pairs, sched.copy(),
                         RLConfig(learning_rates={"tunneling": 0.0,
                                                  "bias": 0.0,
                                                  "coupling": 0.0}), grid)
    assert rms == pytest.approx(expected, abs=1e-12)


def test_train_is_deterministic():
    pairs, sched, grid = default_problem(steps=50)
    cfg = RLConfig(epochs=5)
    _, log_a = train_rl(pairs, sched, cfg, grid)
    _, log_b = train_rl(pairs, sched, cfg, grid)
    assert np.array_equal(log_a.rms, log_b.rms)


def test_train_empty_set_raises():
    _, sched, grid = default_problem()
    with pytest.raises(ValueError):
        train_rl([], sched, RLConfig(epochs=1), grid)


# -- convergence -------------------------------------------------------------


def test_train_reaches_target_quickly():
    pairs, sched, grid = default_problem()
    cfg = RLConfig(epochs=100, rms_target=0.05)
    trained, log = train_rl(pairs, sched, cfg, grid)
    assert log.rms[-1] <= 0.05
    assert log.rms[-1] < log.rms[0]
