"""Pinned training trajectories: the first 20 epoch RMS values of each mode.

The acceptance criteria assert bounds (an RMS <= 0.05, fewer epochs than
another run), so a change that moved every trajectory a little would still
pass them.  These literals make "the same numbers" a test.  The circuit
runs must reproduce them bit for bit: compilation and readout are exact
products of a few 4 x 4 matrices and a seeded multinomial draw.  That holds
on BLAS kernels that round with fused multiply-adds, such as OpenBLAS's
SkylakeX and Haswell kernels; one without them rounds the complex 4 x 4
products otherwise and moves the exact-mode values by an ulp.  The
continuum runs may move by round-off (another product order or block
basis) within 1e-9 relative, far below a model change such as another
integrator (about 1e-5).  A change to the model restates them openly.
"""

import numpy as np
import pytest

from qdynlearn import backprop, circuit, rl
from qdynlearn.qcore import TimeGrid
from qdynlearn.schedules import FourierSchedule, PiecewiseSchedule
from qdynlearn.train import TrainConfig
from qdynlearn.witness import build_training_set

EPOCHS = 20

CIRCUIT_EXACT = [
    0.5014494166239697, 0.5014367331095633, 0.5014225158767909,
    0.5014066048116795, 0.5013888242329148, 0.5013689814731418,
    0.5013468653450318, 0.50132224448551, 0.5012948655718004,
    0.5012644514033642, 0.5012306988444903, 0.5011932766232561,
    0.5011518229838878, 0.5011059431913069, 0.5010552068889064,
    0.5009991453134899, 0.500937248374937, 0.5008689616126395,
    0.500793683046267, 0.500710759945101]

CIRCUIT_SHOTS = [
    0.46298075130485394, 0.4671067656597205, 0.46614527468787487,
    0.46220278742575804, 0.46480012577685864, 0.459772801882767,
    0.4642408535004059, 0.4634563791060319, 0.4644800431776929,
    0.46403019267581763, 0.4635765397874209, 0.46067757904614254,
    0.46276501415810556, 0.46306221011602916, 0.4653527903979532,
    0.45946312125455546, 0.46189031773354694, 0.46222163532961613,
    0.4647138199274649, 0.46424503271159334]

RL_N2 = [
    0.22052430112993263, 0.13710158224354294, 0.09785075772378948,
    0.07587887780189485, 0.061965887694114145, 0.05239847754187201,
    0.04542720965681123, 0.04012645781149503, 0.03596235152413184,
    0.03260595123153616, 0.029843762079560854, 0.027531276426848755,
    0.025567240956994093, 0.023878625125315595, 0.02241144231182134,
    0.0211249301662316, 0.01998773983189601, 0.018975369809893766,
    0.018068395092025968, 0.01725121837673942]

BACKPROP_N4 = [
    0.6725873800359109, 0.6709491294816112, 0.6687584523175822,
    0.6657673427941299, 0.6615947604130179, 0.6556550414741044,
    0.6470705588468587, 0.6346317502904261, 0.6170259760497879,
    0.5937888172316538, 0.567085774242415, 0.5423357693476585,
    0.5247879788823637, 0.5153511777077777, 0.5114663595173595,
    0.5103386253002413, 0.5102853591504058, 0.51054357608125,
    0.5108289246163341, 0.511058907300895]


@pytest.mark.parametrize("backend_args, expected", [
    ({}, CIRCUIT_EXACT),
    ({"shots": 8192, "p_ro": 0.01, "seed": 1}, CIRCUIT_SHOTS),
], ids=["exact", "shots"])
def test_circuit_trajectory_is_pinned(backend_args, expected):
    # Criterion 5's setting: the default 4-segment schedule at N = 2.
    sched = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
    _, log = circuit.train_circuit_rl(
        build_training_set(2), sched, circuit.CircuitRLConfig(epochs=EPOCHS),
        circuit.ShotBackend(**backend_args))
    assert log.rms.tolist() == expected


def test_rl_trajectory_is_pinned():
    # Criterion 4's start, with the published rates and perturbations.
    T = 250.0
    sched = FourierSchedule.initialized(2, T, n_max=3, tied=True,
                                        tunneling=2.5e-3, bias=1e-4,
                                        coupling=1e-4)
    _, log = rl.train_rl(build_training_set(2), sched,
                         rl.RLConfig(epochs=EPOCHS), TimeGrid(T, 200))
    np.testing.assert_allclose(log.rms, RL_N2, rtol=1e-9, atol=0)


def test_tied_backprop_trajectory_is_pinned():
    T = 250.0
    sched = FourierSchedule.initialized(4, T, tied=True)
    _, log = backprop.train_backprop(build_training_set(4), sched,
                                     TrainConfig(epochs=EPOCHS),
                                     TimeGrid(T, 200))
    np.testing.assert_allclose(log.rms, BACKPROP_N4, rtol=1e-9, atol=0)
