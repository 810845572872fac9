"""Schedule evaluation, coefficient bookkeeping and serialization."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdynlearn.schedules import (
    FAMILIES,
    KIND_ORDER,
    FourierSchedule,
    PiecewiseSchedule,
    ScheduleError,
    list_trainable,
    load_schedule,
    save_schedule,
    schedule_from_dict,
)
from qdynlearn.qcore import TimeGrid
from qdynlearn.reporting import TraceWriter

ALL_RATES = {"tunneling": 1.0, "bias": 1.0, "coupling": 1.0}


def random_fourier(rng, num_qubits=2, T=100.0, n_max=3, tied=False):
    s = FourierSchedule.initialized(num_qubits, T, n_max=n_max, tied=tied)
    for kind in ("tunneling", "bias", "coupling"):
        s.coeffs[kind][:] = rng.normal(size=s.coeffs[kind].shape)
    return s


def random_piecewise(rng, num_qubits=2, T=8.0, segments=4, tied=False):
    s = PiecewiseSchedule.initialized(num_qubits, T, segments=segments, tied=tied)
    for kind in ("tunneling", "bias", "coupling"):
        s.coeffs[kind][:] = rng.normal(size=s.coeffs[kind].shape)
    return s


# -- evaluation --------------------------------------------------------------


def test_fourier_eval_at_zero_is_constant_plus_cosines():
    s = FourierSchedule.initialized(2, 100.0, n_max=2, tied=True,
                                    tunneling=2.5e-3)
    # add a cosine term: at t=0 every cos is 1 and every sin is 0
    s.coeffs["tunneling"][0, 3] = 1e-3  # cos(pi t/T)
    coef = s.eval_many([0.0])
    assert coef.shape == (1, 3)  # tied: one column per kind
    assert coef[0, 0] == pytest.approx(2.5e-3 + 1e-3)


def test_fourier_eval_midpoint_sine():
    T = 100.0
    s = FourierSchedule.initialized(1, T, n_max=1, tied=True, tunneling=2.5e-3,
                                    bias=0.0, coupling=0.0)
    s.coeffs["tunneling"][0, 1] = 1e-3  # sin(pi t/T), peaks at T/2
    assert s.eval_many([T / 2])[0, 0] == pytest.approx(3.5e-3)


def test_fourier_reconstruction_identity():
    # P(t) equals the sum of coefficients times their basis functions.
    rng = np.random.default_rng(0)
    s = random_fourier(rng)
    for t in rng.uniform(0.0, s.T, size=10):
        k = s.eval_many([t])[0]  # untied: tunneling of sites 0, 1 first
        basis = s.basis_row([t])[0]
        for site in range(2):
            total = sum(
                s.coeffs["tunneling"][site, b] * basis[b]
                for b in range(s.width)
            )
            assert k[site] == pytest.approx(total, abs=1e-14)


def segment_of(s, t):
    """The one segment whose indicator is 1 at time t."""
    (seg,) = np.flatnonzero(s.basis_row([t])[0])
    return seg


def test_piecewise_segment_lookup():
    s = PiecewiseSchedule.initialized(2, 8.0, segments=4)
    assert segment_of(s, 0.0) == 0
    assert segment_of(s, 2.3) == 1
    assert segment_of(s, 7.99) == 3
    assert segment_of(s, 8.0) == 3  # T maps into the last segment


def test_piecewise_segment_at_the_round_off_edges():
    # Times within round-off outside [0, T] are accepted; each maps to the
    # nearer end segment, never wrapping around to the other end.
    s = random_piecewise(np.random.default_rng(2))
    assert segment_of(s, -1e-13) == segment_of(s, 0.0) == 0
    assert segment_of(s, 8.0 + 1e-13) == 3
    assert np.array_equal(s.eval_many([-1e-13, 8.0 + 1e-13]),
                          s.eval_many([0.0, 8.0]))


def test_piecewise_eval_picks_segment_value():
    rng = np.random.default_rng(1)
    s = random_piecewise(rng)
    for t in (0.5, 3.1, 6.2, 7.9):
        seg = segment_of(s, t)
        k = s.eval_many([t])[0]
        assert k[0] == pytest.approx(s.coeffs["tunneling"][0, seg])
        assert k[1] == pytest.approx(s.coeffs["tunneling"][1, seg])


def test_basis_values_indicator():
    s = PiecewiseSchedule.initialized(2, 8.0, segments=4)
    assert s.basis_row([5.0])[0, 2] == 1.0
    assert s.basis_row([7.2])[0, 2] == 0.0


def test_eval_outside_domain_raises():
    s = FourierSchedule.initialized(2, 10.0)
    with pytest.raises(ScheduleError):
        s.eval_many([-0.5])
    with pytest.raises(ScheduleError):
        s.eval_many([10.5])


@pytest.mark.parametrize("family", [FourierSchedule, PiecewiseSchedule])
def test_basis_is_finite_at_the_largest_time(family):
    # t is scaled by T before anything else, so no accepted T overflows the
    # basis (the Fourier arguments n pi t / T, the piecewise index S t / T).
    T = 1e308
    s = family.initialized(2, T)
    ts = np.linspace(0.0, T, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = s.basis_row(ts)
    assert np.isfinite(rows).all()
    assert (np.abs(rows) <= 1.0).all()
    if family is FourierSchedule:  # sin(n pi) = 0, cos(n pi) = (-1)^n at t = T
        assert np.allclose(rows[-1], np.r_[1.0, np.zeros(3), [-1.0, 1.0, -1.0]],
                           atol=1e-12)


@pytest.mark.parametrize("family", [FourierSchedule, PiecewiseSchedule])
def test_grid_rows_are_the_basis_at_the_midpoints(family):
    # Computed once per (structure, T, grid), read-only, shared by every
    # schedule of that family, and bit-identical to `basis_row`.
    grid = TimeGrid(8.0, 40)
    a, b = family.initialized(2, 8.0), family.initialized(3, 8.0, tied=True)
    rows = a.grid_rows(grid)
    assert np.array_equal(rows, a.basis_row(grid.midpoints))
    assert b.grid_rows(TimeGrid(8.0, 40)) is rows
    assert not rows.flags.writeable
    assert family.initialized(2, 4.0).grid_rows(TimeGrid(4.0, 40)) is not rows
    # A grid longer than the schedule is out of range, as in `eval_many`.
    with pytest.raises(ScheduleError, match="outside"):
        family.initialized(2, 4.0).grid_rows(grid)


# -- the family contract -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(sorted(FAMILIES)), extra=st.integers(0, 8),
       u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_family_constant_columns_sum_to_one(mode, extra, u):
    family = FAMILIES[mode]
    s = family.initialized(2, 1.0, **{family.SIZE[0]: family.SIZE[2] + extra})
    rows = family.basis(np.asarray(u), s.size)
    assert rows.shape == (len(u), s.width)
    assert np.all(rows[:, family.CONSTANT].sum(axis=1) == 1.0)


@pytest.mark.parametrize("mode", sorted(FAMILIES))
def test_family_structure_keyword_is_checked(mode):
    family = FAMILIES[mode]
    name, default, low = family.SIZE
    s = family.initialized(2, 1.0)
    assert s.structure() == {name: default} and getattr(s, name) == default
    # Another family's keyword, e.g. FourierSchedule(..., segments=3).
    for other in {f.SIZE[0] for f in FAMILIES.values()} - {name}:
        with pytest.raises(TypeError):
            family.initialized(2, 1.0, **{other: 3})
        with pytest.raises(TypeError):
            family(2, 1.0, s.coeffs, tied=s.tied, **{name: default, other: 3})
    with pytest.raises(ScheduleError, match=name):
        family.initialized(2, 1.0, **{name: low - 1})


def test_tied_broadcast_is_uniform():
    s = FourierSchedule.initialized(3, 50.0, n_max=2, tied=True)
    s.coeffs["coupling"][0, 2] = 3e-4
    ts = np.linspace(0, 50.0, 7)
    assert s.eval_many(ts).shape == (7, 3)  # one column per kind
    # The trace repeats each kind's column over its sites.
    trace = TraceWriter(s, ts)
    trace.snapshot(0, s)
    rows = np.array(trace.rows, dtype=float)
    k, z = rows[:, 2:5], rows[:, 8:]
    assert trace.header[8:] == ["zeta_0_1", "zeta_0_2", "zeta_1_2"]
    assert np.array_equal(rows[:, 2:], np.repeat(s.eval_many(ts), 3, axis=1))
    assert np.allclose(k, k[:, :1])
    assert np.allclose(z, z[:, :1])
    assert z.shape == (7, 3)  # three pairs for 3 qubits


# -- coefficient vector ------------------------------------------------------


def test_list_trainable_counts_untied_fourier():
    s = FourierSchedule.initialized(2, 100.0, n_max=3, tied=False)
    rates = {"tunneling": 2e-7, "bias": 0.0, "coupling": 4e-7}
    idx = list_trainable(s, rates)
    # 2 qubits x 7 tunneling + 1 pair x 7 coupling; bias excluded by zero rate
    assert len(idx) == 21
    assert list(idx) == [*range(14), *range(28, 35)]  # bias holds 14..27


def test_list_trainable_counts_tied_fourier():
    s = FourierSchedule.initialized(4, 100.0, n_max=3, tied=True)
    rates = {"tunneling": 1e-7, "bias": 0.0, "coupling": 1e-7}
    assert len(list_trainable(s, rates)) == 14  # shared rows: 7 + 7


def test_list_trainable_counts_piecewise():
    s = PiecewiseSchedule.initialized(2, 2.0, segments=4, tied=False)
    idx = list_trainable(s, ALL_RATES)
    # (2 + 2) qubit rows x 4 segments + 1 pair x 4 segments
    assert len(idx) == 20


def test_list_trainable_deterministic_order():
    s = FourierSchedule.initialized(2, 10.0, n_max=1, tied=False)
    idx = list_trainable(s, ALL_RATES)
    # grouped by kind in declaration order, then site, then basis
    order = [(kind, site, basis) for kind in KIND_ORDER
             for site in range(s.rows(kind)) for basis in range(s.width)]
    kinds = [kind for kind, _, _ in order]
    assert kinds == (["tunneling"] * 6 + ["bias"] * 6 + ["coupling"] * 3)
    assert list(idx) == list(range(len(order)))
    for i, (kind, site, basis) in zip(idx, order):
        s.params[i] = i + 1.0
        assert s.coeffs[kind][site, basis] == i + 1.0


def test_params_has_one_entry_per_coefficient():
    for family in (FourierSchedule, PiecewiseSchedule):
        for tied in (True, False):
            for num_qubits in (1, 2, 4):
                s = family.initialized(num_qubits, 10.0, tied=tied)
                size = sum(s.rows(k) * s.width for k in KIND_ORDER)
                assert s.params.shape == (size,)
                with pytest.raises(IndexError):
                    s.params[size]


def test_coeffs_are_views_into_params():
    s = FourierSchedule.initialized(3, 10.0, n_max=2, tied=False)
    s.coeffs["bias"][1, 4] = 0.125
    i = s.rows("tunneling") * s.width + 1 * s.width + 4
    assert s.params[i] == 0.125
    s.params[-1] = -3.0
    assert s.coeffs["coupling"][-1, -1] == -3.0
    c = s.copy()
    assert not np.shares_memory(c.params, s.params)
    c.coeffs["bias"][1, 4] = 9.0
    c.params[0] = 7.0
    assert s.params[i] == 0.125 and s.params[0] == 2.5e-3
    assert c.params[i] == 9.0 and c.coeffs["tunneling"][0, 0] == 7.0


def test_copy_is_independent():
    s = FourierSchedule.initialized(2, 10.0)
    c = s.copy()
    c.params[0] = 9.0
    assert s.coeffs["tunneling"][0, 0] == 2.5e-3


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize("mode,tied", [
    pytest.param(mode, tied, id=mode + ("-tied" if tied else ""))
    for tied in (False, True) for mode in sorted(FAMILIES)])
def test_serialization_roundtrip(tmp_path, mode, tied):
    rng = np.random.default_rng(5)
    family = FAMILIES[mode]
    s = family.initialized(2, 8.0, tied=tied,
                           **{family.SIZE[0]: family.SIZE[2] + 2})
    s.params[:] = rng.normal(size=s.params.size)
    path = tmp_path / "sched.json"
    save_schedule(s, path)
    loaded = load_schedule(path)
    assert type(loaded) is family and loaded.mode == mode
    assert loaded.num_qubits == s.num_qubits
    assert loaded.T == s.T
    assert loaded.tied == s.tied
    assert loaded.structure() == s.structure()
    ts = rng.uniform(0.0, s.T, size=100)
    assert np.abs(s.eval_many(ts) - loaded.eval_many(ts)).max() < 1e-15


def test_schedule_from_dict_rejects_unknown_mode():
    with pytest.raises(ScheduleError):
        schedule_from_dict({"mode": "spline", "num_qubits": 2, "T_ns": 1.0,
                            "tied": True, "coefficients": {}})


@pytest.mark.parametrize("coefficient,key", [
    (False, "couplng"),
    (False, "segments"),  # the other family's size field
    (True, "couplng"),
])
def test_load_schedule_rejects_unknown_keys(tmp_path, coefficient, key):
    # A misspelt key would otherwise load silently, without the value the
    # file meant to give.
    path = tmp_path / "s.json"
    save_schedule(FourierSchedule.initialized(2, 250.0), path)
    data = json.loads(path.read_text())
    (data["coefficients"] if coefficient else data)[key] = [[0.0] * 7]
    path.write_text(json.dumps(data))
    name = f"coefficients.{key}" if coefficient else key
    with pytest.raises(ScheduleError, match=f"unknown schedule fields.*{name}"):
        load_schedule(path)


def test_benchmark_start_file_loads():
    path = Path(__file__).parents[1] / "perfbench" / "circuit_start.json"
    assert load_schedule(path).structure() == {"segments": 4}


@pytest.mark.parametrize("field,value", [
    ("num_qubits", 2.5), ("num_qubits", True), ("n_max", 3.7),
    ("n_max", False), ("tied", "no"), ("tied", 1), ("T_ns", True),
    ("T_ns", "250"),
])
def test_load_schedule_rejects_wrong_types(tmp_path, field, value):
    # Nothing is coerced: a float qubit count or basis size, a non-bool
    # `tied` or a bool T would otherwise load as some other schedule.
    path = tmp_path / "s.json"
    save_schedule(FourierSchedule.initialized(2, 250.0), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
    with pytest.raises(ScheduleError, match=field):
        load_schedule(path)


def test_non_numeric_coefficients_rejected():
    coeffs = {"tunneling": np.zeros((1, 3)), "bias": [[True, False, True]],
              "coupling": np.zeros((1, 3))}
    with pytest.raises(ScheduleError, match="bias coefficients"):
        FourierSchedule(2, 10.0, coeffs, tied=True, n_max=1)


@pytest.mark.parametrize("kind,coefficients", [
    ("coupling", np.zeros((2, 3))),
    # a ragged nested list, as a hand-edited schedule file may hold
    ("tunneling", [[1.0, 2.0], [3.0]]),
], ids=["wrong-shape", "ragged"])
def test_bad_coefficient_shape_rejected(kind, coefficients):
    coeffs = {k: np.zeros((1, 3)) for k in KIND_ORDER}
    with pytest.raises(ScheduleError, match=kind):
        FourierSchedule(2, 10.0, {**coeffs, kind: coefficients}, tied=True,
                        n_max=1)


values = st.one_of(st.none(), st.floats(-1.0, 1.0, allow_subnormal=False))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from([(FourierSchedule, "n_max", 0),
                               (PiecewiseSchedule, "segments", 1)]),
       tied=st.sampled_from([None, True, False]),
       num_qubits=st.integers(1, 4), T=st.floats(0.1, 500.0),
       size=st.integers(0, 5), ts=st.lists(st.floats(0.0, 1.0), min_size=1,
                                           max_size=8),
       tunneling=values, bias=values, coupling=values)
def test_initialized_is_constant_at_init_values(family, tied, num_qubits, T,
                                                size, ts, tunneling, bias,
                                                coupling):
    cls, structure, smallest = family
    s = cls.initialized(num_qubits, T, tied=tied, tunneling=tunneling,
                        bias=bias, coupling=coupling,
                        **{structure: smallest + size})
    assert s.tied == (cls.TIED if tied is None else tied)
    given_values = (tunneling, bias, coupling)
    evaluated = np.split(s.eval_many(np.asarray(ts) * T),
                         np.cumsum([s.rows(k) for k in KIND_ORDER])[:-1], axis=1)
    for kind, value, vals in zip(KIND_ORDER, given_values, evaluated):
        expected = cls.INIT[kind] if value is None else value
        assert vals.shape == (len(ts), s.rows(kind))
        assert np.all(vals == expected)
