"""Concurrence oracle, training-set construction and witness evaluation."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings, strategies as st

from qdynlearn.qcore import (
    DensityMatrix,
    IDENTITY_MAP,
    SQUARE_MAP,
    TimeGrid,
)
from qdynlearn.schedules import FourierSchedule
from qdynlearn.witness import (
    TrainingPair,
    build_training_set,
    concurrence,
    evaluate_witness,
    ghz_family_state,
    spearman_rho,
    theta_sweep_states,
)


def random_local_unitary(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(a)
    return q


# -- oracle ------------------------------------------------------------------


def test_concurrence_bell():
    assert concurrence(ghz_family_state(2, 1.0, 1.0)) == pytest.approx(
        1.0, abs=1e-12)


def test_concurrence_product_states():
    assert concurrence(DensityMatrix.from_state_vector(
        [1, 0, 0, 0])) == pytest.approx(0.0, abs=1e-12)
    assert concurrence(DensityMatrix.from_state_vector(
        [1, 1, 0, 0])) == pytest.approx(0.0, abs=1e-12)
    # arbitrary product state |psi_A> (x) |psi_B>
    rng = np.random.default_rng(0)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert concurrence(DensityMatrix.from_state_vector(
        np.kron(a, b))) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_partial():
    assert concurrence(ghz_family_state(2, 0.6, 0.8)) == pytest.approx(
        0.96, abs=1e-12)


def test_concurrence_family_closed_form():
    for theta in np.linspace(0.0, np.pi / 2, 11):
        rho = ghz_family_state(2, np.cos(theta), np.sin(theta))
        assert concurrence(rho) == pytest.approx(abs(np.sin(2 * theta)),
                                                 abs=1e-12)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(1)
    rho = ghz_family_state(2, 0.6, 0.8)
    c0 = concurrence(rho)
    for _ in range(100):
        u = np.kron(random_local_unitary(rng), random_local_unitary(rng))
        assert abs(concurrence(u @ rho.matrix @ u.conj().T) - c0) < 1e-10


def test_concurrence_werner_state_closed_form():
    # Werner state p|Bell><Bell| + (1-p) I/4: C = max(0, (3p - 1)/2).
    bell = ghz_family_state(2, 1.0, 1.0).matrix
    for p in (0.1, 1 / 3, 0.5, 0.9):
        rho = p * bell + (1 - p) * np.eye(4) / 4
        assert concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2),
                                                 abs=1e-12)


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        concurrence(DensityMatrix.from_state_vector([1, 0]))


# -- training set ------------------------------------------------------------


def test_training_pair_target_range():
    rho = ghz_family_state(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        TrainingPair(rho, 1.5)
    with pytest.raises(ValueError):
        TrainingPair(rho, -0.1)


def test_training_set_two_qubits():
    pairs = build_training_set(2)
    assert len(pairs) == 4
    assert [p.label for p in pairs] == [
        "product_zeros", "bell", "product_superposition", "partial"]
    assert [p.target for p in pairs] == [0.0, 1.0, 0.0, pytest.approx(0.9216)]


def test_training_set_targets_match_oracle():
    # With the square map, each target is the squared concurrence of its state.
    for pair in build_training_set(2, SQUARE_MAP):
        assert pair.target == pytest.approx(concurrence(pair.rho0) ** 2,
                                            abs=1e-12)
    for pair in build_training_set(2, IDENTITY_MAP):
        assert pair.target == pytest.approx(concurrence(pair.rho0), abs=1e-12)


def test_training_set_three_qubits():
    pairs = build_training_set(3)
    assert [p.label for p in pairs] == [
        "product_zeros", "ghz", "product_superposition", "partial"]
    assert pairs[1].rho0.dim == 8
    assert pairs[1].target == 1.0
    assert pairs[3].target == pytest.approx(0.9216)


def test_training_set_bad_sizes():
    with pytest.raises(ValueError):
        build_training_set(1)
    with pytest.raises(ValueError):
        build_training_set(7)


# -- rank correlation --------------------------------------------------------


@st.composite
def tied_pairs(draw):
    """Two equal-length vectors drawn from a few values, so ties are common."""
    n = draw(st.integers(2, 40))
    values = st.sampled_from([-np.inf, -1.5, 0.0, 0.25, 0.25 + 1e-12, 3.0,
                              np.inf])
    return (draw(st.lists(values, min_size=n, max_size=n)),
            draw(st.lists(values | st.floats(-10, 10), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(pair=tied_pairs())
def test_spearman_rho_equals_scipy_with_ties(pair):
    a, b = pair
    got = spearman_rho(a, b)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on a constant input
        ref = scipy.stats.spearmanr(a, b).statistic
    if np.isnan(ref):
        assert np.isnan(got)
    else:
        assert got == pytest.approx(ref, abs=1e-12)


def test_spearman_rho_average_ranks_and_bad_input():
    assert spearman_rho([1, 2, 2, 3], [10, 20, 20, 30]) == pytest.approx(1.0)
    assert spearman_rho([3, 2, 1], [1, 2, 3]) == pytest.approx(-1.0)
    assert np.isnan(spearman_rho([1, 1, 1], [1, 2, 3]))  # constant input
    assert np.isnan(spearman_rho([1, np.nan, 3], [1, 2, 3]))
    with pytest.raises(ValueError):
        spearman_rho([1, 2, 3], [1, 2])


# -- evaluation --------------------------------------------------------------


def test_theta_sweep_shape():
    thetas, states = theta_sweep_states(2)
    assert len(thetas) == len(states) == 21
    assert thetas[0] == 0.0
    assert thetas[-1] == pytest.approx(np.pi / 2)
    assert thetas[1] == pytest.approx(np.pi / 40)


def test_zero_schedule_does_not_discriminate():
    # H = 0 leaves every state alone: |00> and Bell both give output 1.
    sched = FourierSchedule.initialized(2, 10.0, n_max=0, tied=True,
                                        tunneling=0.0, bias=0.0, coupling=0.0)
    states = [("zeros", ghz_family_state(2, 1.0, 0.0)),
              ("bell", ghz_family_state(2, 1.0, 1.0))]
    rep = evaluate_witness(sched, states, SQUARE_MAP, TimeGrid(10.0, 5))
    assert rep.outputs == pytest.approx([1.0, 1.0])


def test_outputs_bounded_for_square_map():
    rng = np.random.default_rng(5)
    sched = FourierSchedule.initialized(2, 100.0, n_max=2, tied=False)
    for kind in ("tunneling", "bias", "coupling"):
        sched.coeffs[kind][:] = rng.normal(scale=5e-3,
                                           size=sched.coeffs[kind].shape)
    _, states = theta_sweep_states(2)
    rep = evaluate_witness(sched, [("s", st) for st in states],
                           SQUARE_MAP, TimeGrid(100.0, 100))
    assert np.all(rep.sweep_outputs >= 0.0)
    assert np.all(rep.sweep_outputs <= 1.0)
    assert np.all(rep.outputs >= 0.0) and np.all(rep.outputs <= 1.0)


def test_witness_output_continuity_in_input_state():
    sched = FourierSchedule.initialized(2, 100.0, n_max=1, tied=True,
                                        tunneling=3e-3, coupling=2e-3)
    grid = TimeGrid(100.0, 100)
    rho = ghz_family_state(2, 0.6, 0.8)
    eps = 1e-8
    rho_p = DensityMatrix((1 - eps) * rho.matrix + eps * np.eye(4) / 4)
    assert np.abs(rho_p.matrix - rho.matrix).max() <= 1e-8
    rep = evaluate_witness(sched, [("a", rho), ("b", rho_p)],
                           SQUARE_MAP, grid)
    assert abs(rep.outputs[0] - rep.outputs[1]) <= 1e-6
