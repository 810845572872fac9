"""Staging: structural copy semantics when growing a schedule by one qubit."""

import numpy as np
import pytest

from qdynlearn.staging import stage_up
from qdynlearn.schedules import FourierSchedule, PiecewiseSchedule


def random_fourier(rng, num_qubits=2, tied=True):
    s = FourierSchedule.initialized(num_qubits, 250.0, n_max=3, tied=tied)
    for kind in ("tunneling", "bias", "coupling"):
        s.coeffs[kind][:] = rng.normal(scale=1e-3, size=s.coeffs[kind].shape)
    return s


def test_dimensions_after_staging():
    rng = np.random.default_rng(0)
    s3 = stage_up(random_fourier(rng, 2, tied=False))
    assert s3.num_qubits == 3
    assert s3.coeffs["tunneling"].shape == (3, 7)
    assert s3.coeffs["bias"].shape == (3, 7)
    assert s3.coeffs["coupling"].shape == (3, 7)  # three pairs


def test_tied_source_copies_shared_rows():
    rng = np.random.default_rng(1)
    s = random_fourier(rng, 3, tied=True)
    up = stage_up(s)
    assert up.num_qubits == 4
    assert up.tied
    for kind in ("tunneling", "bias", "coupling"):
        assert np.array_equal(up.coeffs[kind], s.coeffs[kind])


def test_untied_source_tiles_first_row():
    rng = np.random.default_rng(2)
    s = random_fourier(rng, 2, tied=False)
    up = stage_up(s)
    for kind in ("tunneling", "bias"):
        for row in up.coeffs[kind]:
            assert np.array_equal(row, s.coeffs[kind][0])
    for row in up.coeffs["coupling"]:
        assert np.array_equal(row, s.coeffs["coupling"][0])


def test_eval_restriction_reproduces_source():
    rng = np.random.default_rng(3)
    s = random_fourier(rng, 2, tied=True)
    up = stage_up(s)
    ts = np.linspace(0.0, s.T, 17)
    # Tied: one column per kind, which drives every qubit and every pair of
    # the larger system with the trained values.
    assert np.allclose(up.eval_many(ts), s.eval_many(ts))


def test_double_staging_uniform_rows():
    rng = np.random.default_rng(4)
    s = random_fourier(rng, 2, tied=False)
    up2 = stage_up(stage_up(s))
    assert up2.num_qubits == 4
    for kind in ("tunneling", "bias", "coupling"):
        rows = up2.coeffs[kind]
        assert np.array_equal(rows, np.tile(rows[0], (rows.shape[0], 1)))


def test_preserves_structure_fields():
    s = FourierSchedule.initialized(2, 123.0, n_max=2, tied=True)
    up = stage_up(s)
    assert isinstance(up, FourierSchedule)
    assert up.T == 123.0
    assert up.n_max == 2

    p = PiecewiseSchedule.initialized(2, 4.0, segments=5, tied=False)
    upp = stage_up(p)
    assert isinstance(upp, PiecewiseSchedule)
    assert upp.segments == 5
    assert upp.T == 4.0
    assert upp.num_qubits == 3


def test_unsupported_type_rejected():
    with pytest.raises(TypeError):
        stage_up(object())
