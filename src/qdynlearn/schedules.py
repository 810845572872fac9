"""Time-dependent Hamiltonian parameter schedules.

Two families: truncated Fourier series (half-period basis sin/cos(n pi t / T))
and piecewise-constant segments.  Both hold every coefficient in one flat
vector, `params`, in (kind, site, basis) order, so the training loops read,
perturb and update coefficients by index.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .qcore import pair_indices

KIND_ORDER = ("tunneling", "bias", "coupling")


class ScheduleError(ValueError):
    pass


def _check_int(name, value, low):
    """Raise ScheduleError unless `value` is an int (not a bool) >= `low`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ScheduleError(f"{name} must be an integer >= {low}, got {value!r}")


def n_sites(num_qubits, kind):
    """Physical sites of a kind: one per qubit, or one per coupled pair."""
    return len(pair_indices(num_qubits)) if kind == "coupling" else num_qubits


class _Schedule:
    """Shared storage/evaluation machinery for both schedule families.

    All coefficients live in one vector, `params`, in (kind, site, basis)
    order; `coeffs[kind]` is its (rows, width) view: a row per site, or one
    shared row when the kind is tied.  Basis 0 is the Fourier constant term,
    then sines 1..n_max and cosines n_max+1..2*n_max; piecewise bases are the
    segments.  `params` is only ever written in place, so the views hold.
    """

    mode = None
    # Per-family defaults, set by each subclass: the initialization value of
    # each kind and whether a kind shares one row across its sites.
    INIT: dict
    TIED: bool

    def __init__(self, num_qubits, T, coeffs, tied=None, **structure):
        self._set_structure(**structure)
        _check_int("num_qubits", num_qubits, 1)
        if (isinstance(T, bool) or not isinstance(T, (int, float))
                or not 0 < T < math.inf):
            raise ScheduleError(f"T_ns must be a positive number, got {T!r}")
        if tied is not None and not isinstance(tied, bool):
            raise ScheduleError(f"tied must be a bool, got {tied!r}")
        self.num_qubits = num_qubits
        self.T = float(T)
        self.tied = self.TIED if tied is None else tied
        arrays = []
        for kind in KIND_ORDER:
            c = np.array(coeffs[kind])
            if c.dtype.kind not in "iuf":
                raise ScheduleError(f"{kind} coefficients must be numbers")
            c = c.astype(float)
            if c.ndim != 2 or c.shape != (self.rows(kind), self.width):
                raise ScheduleError(
                    f"{kind} coefficients must have shape "
                    f"({self.rows(kind)}, {self.width}), got {c.shape}"
                )
            if not np.isfinite(c).all():
                raise ScheduleError(f"non-finite {kind} coefficient")
            arrays.append(c.ravel())
        self.params = np.concatenate(arrays)
        parts = np.split(self.params, np.cumsum([a.size for a in arrays])[:-1])
        self.coeffs = {k: v.reshape(-1, self.width) for k, v in zip(KIND_ORDER, parts)}

    @classmethod
    def initialized(cls, num_qubits, T, tied=None, tunneling=None, bias=None,
                    coupling=None, **structure):
        """Parameters constant in time, at the family's INIT values unless given.

        Each kind's value sits on the family's constant basis functions
        (`_constant_basis`) in every row; all other coefficients are zero.
        """
        shell = cls.__new__(cls)
        shell._set_structure(**structure)
        given = {"tunneling": tunneling, "bias": bias, "coupling": coupling}
        tied = cls.TIED if tied is None else tied
        coeffs = {}
        for kind in KIND_ORDER:
            c = np.zeros((1 if tied else n_sites(num_qubits, kind), shell.width))
            c[:, shell._constant_basis()] = (
                cls.INIT[kind] if given[kind] is None else given[kind])
            coeffs[kind] = c
        return cls(num_qubits, T, coeffs, tied=tied, **structure)

    # -- structure ---------------------------------------------------------

    def _set_structure(self, **structure):
        """Store and validate the family's basis size (n_max or segments)."""
        raise NotImplementedError

    def structure(self):
        """The basis-size arguments that rebuild this schedule's family."""
        raise NotImplementedError

    @property
    def width(self):
        raise NotImplementedError

    def _constant_basis(self):
        """Mask of the basis functions that sum to the constant 1."""
        raise NotImplementedError

    def n_sites(self, kind):
        return n_sites(self.num_qubits, kind)

    def rows(self, kind):
        return 1 if self.tied else self.n_sites(kind)

    def per_index(self, values):
        """Each coefficient's kind's entry of `values` (0 if absent), as a vector."""
        return np.repeat([float(values.get(k, 0.0)) for k in KIND_ORDER],
                         [self.coeffs[k].size for k in KIND_ORDER])

    def copy(self):
        return type(self)(self.num_qubits, self.T, self.coeffs, tied=self.tied,
                          **self.structure())

    # -- evaluation --------------------------------------------------------

    def basis_row(self, ts):
        """Basis-function values at times ts, shape (len(ts), width)."""
        raise NotImplementedError

    def grid_rows(self, grid):
        """Read-only basis rows at `grid.midpoints`, shape (M, width).

        Computed (and range-checked) once per (family structure, T, grid)
        and shared by every schedule of that family: the solves and the
        gradient read them.
        """
        return _grid_rows(type(self), tuple(self.structure().items()), self.T,
                          grid)

    def eval_many(self, ts):
        """Each row of `params.reshape(-1, width)` at times ts, shape (M, rows).

        Column g multiplies row g of `qcore.generators(num_qubits, tied)`:
        per site, or one column per kind when tied.
        """
        rows = self.basis_row(_checked_times(ts, self.T))
        return rows @ self.params.reshape(-1, self.width).T

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        d = {
            "mode": self.mode,
            "num_qubits": self.num_qubits,
            "T_ns": self.T,
            "tied": self.tied,
            "coefficients": {k: self.coeffs[k].tolist() for k in KIND_ORDER},
        }
        d.update(self.structure())
        return d


class FourierSchedule(_Schedule):
    """P(t) = P_0 + sum_{n=1..n_max} S_n sin(n pi t / T) + C_n cos(n pi t / T)."""

    mode = "fourier"
    INIT = {"tunneling": 2.5e-3, "bias": 1.0e-4, "coupling": 1.0e-4}
    TIED = True

    def _set_structure(self, n_max=3):
        _check_int("n_max", n_max, 0)
        self.n_max = n_max

    def structure(self):
        return {"n_max": self.n_max}

    @property
    def width(self):
        return 1 + 2 * self.n_max

    def _constant_basis(self):
        return np.arange(self.width) == 0

    def basis_row(self, ts):
        ts = np.asarray(ts, dtype=float)
        ns = np.arange(1, self.n_max + 1)
        # Scale t by T first: no accepted T can overflow the arguments.
        args = np.outer(ts / self.T, np.pi * ns)  # (M, n_max)
        return np.concatenate(
            [np.ones((ts.size, 1)), np.sin(args), np.cos(args)], axis=1
        )


class PiecewiseSchedule(_Schedule):
    """Parameters held constant on S equal segments of [0, T]."""

    mode = "piecewise"
    INIT = {"tunneling": 2.0e-3, "bias": 1.0e-4, "coupling": 1.0e-4}
    TIED = False

    def _set_structure(self, segments=4):
        _check_int("segments", segments, 1)
        self.segments = segments

    def structure(self):
        return {"segments": self.segments}

    @property
    def width(self):
        return self.segments

    def _constant_basis(self):
        return np.ones(self.width, dtype=bool)

    def basis_row(self, ts):
        ts = np.asarray(ts, dtype=float)
        # t / T first, as in the Fourier basis: S t could overflow.
        idx = np.minimum(
            np.floor(ts / self.T * self.segments).astype(int), self.segments - 1
        )
        b = np.zeros((ts.size, self.segments))
        b[np.arange(ts.size), idx] = 1.0
        return b


def _checked_times(ts, T):
    """ts as a float array; raises ScheduleError if one lies outside [0, T]."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts.min() < -1e-12 or ts.max() > T + 1e-12):
        raise ScheduleError("evaluation time outside [0, T]")
    return ts


@functools.lru_cache(maxsize=64)
def _grid_rows(family, structure, T, grid):
    """`basis_row` of one family at a grid's midpoints, read-only."""
    shell = family.__new__(family)
    shell._set_structure(**dict(structure))
    shell.T = T
    rows = shell.basis_row(_checked_times(grid.midpoints, T))
    rows.flags.writeable = False
    return rows


def list_trainable(schedule, learning_rates) -> np.ndarray:
    """Ascending indices into `schedule.params` of kinds with a positive rate."""
    return np.flatnonzero(schedule.per_index(learning_rates) > 0.0)


def schedule_from_dict(d):
    common = dict(num_qubits=d["num_qubits"], T=d["T_ns"],
                  coeffs=d["coefficients"], tied=d["tied"])
    if d["mode"] == "fourier":
        return FourierSchedule(n_max=d["n_max"], **common)
    if d["mode"] == "piecewise":
        return PiecewiseSchedule(segments=d["segments"], **common)
    raise ScheduleError(f"unknown schedule mode {d['mode']!r}")


def save_schedule(schedule, path):
    with open(path, "w") as fh:
        json.dump(schedule.to_dict(), fh, indent=2)


def load_schedule(path):
    with open(path) as fh:
        return schedule_from_dict(json.load(fh))
