"""Time-dependent Hamiltonian parameter schedules.

Two families, listed by mode in `FAMILIES`: truncated Fourier series
(half-period basis sin/cos(n pi t / T)) and piecewise-constant segments.  A
family is class data (its basis-size field, defaults and constant columns)
plus one basis function of t / T; `_Schedule` derives the rest.  Both hold
every coefficient in one flat vector, `params`, in (kind, site, basis) order,
so the training loops read, perturb and update coefficients by index.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .qcore import is_integer, is_real, pair_indices

KIND_ORDER = ("tunneling", "bias", "coupling")


class ScheduleError(ValueError):
    pass


def n_sites(num_qubits, kind):
    """Physical sites of a kind: one per qubit, or one per coupled pair."""
    return len(pair_indices(num_qubits)) if kind == "coupling" else num_qubits


class _Schedule:
    """Storage and evaluation shared by every schedule family.

    A family is class data plus one basis function; all else is here.  Its
    data: `mode` (its key in `FAMILIES`), `SIZE` = (keyword, default, lowest
    value) of its basis-size attribute (`n_max` or `segments`), each kind's
    `INIT` value, whether kinds share one row across sites by default
    (`TIED`), the `CONSTANT` basis columns, which sum to 1, and whether the
    basis is constant on `size` equal segments of [0, T] (`SEGMENTED`).  Its
    `basis(u, size)` gives the basis functions at u = t / T, shape (M, width).
    `num_qubits` and the size are integers, T a positive real, never bools
    (`qcore.is_integer`, `is_real`); they are kept as int and float for JSON.
    `tied` is a required bool; `initialized` and `RunConfig` default it.

    All coefficients live in one vector, `params`, in (kind, site, basis)
    order; `coeffs[kind]` is its (rows, width) view: a row per site, or one
    shared row when the kind is tied.  `params` is only ever written in
    place, so the views hold.
    """

    def __init__(self, num_qubits, T, coeffs, tied, **structure):
        self.size, self.width = self._size_and_width(num_qubits, structure)
        setattr(self, self.SIZE[0], self.size)
        if not (is_real(T) and 0 < T < math.inf):
            raise ScheduleError(f"T_ns must be a positive number, got {T!r}")
        if not isinstance(tied, bool):
            raise ScheduleError(f"tied must be a bool, got {tied!r}")
        self.num_qubits = int(num_qubits)
        self.T = float(T)
        self.tied = tied
        arrays = []
        for kind in KIND_ORDER:
            try:
                c = np.array(coeffs[kind])
            except ValueError as exc:  # a ragged nested list
                raise ScheduleError(f"ragged {kind} coefficients") from exc
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
    def _size_and_width(cls, num_qubits, structure):
        """The basis size given by `structure`, and the basis width; raises
        ScheduleError unless the size and `num_qubits` are integers in range."""
        name, default, low = cls.SIZE
        check_keys(structure, (name,), (), TypeError,
                   what=f"{cls.__name__} structure")
        size = structure.get(name, default)
        for field, value, least in (("num_qubits", num_qubits, 1), (name, size, low)):
            if not is_integer(value) or value < least:
                raise ScheduleError(f"{field} must be an integer >= {least}, "
                                    f"got {value!r}")
        return int(size), cls.basis(np.zeros(0), size).shape[1]

    @classmethod
    def initialized(cls, num_qubits, T, tied=None, tunneling=None, bias=None,
                    coupling=None, **structure):
        """Parameters constant in time, at the family's INIT values unless given.

        Each kind's value sits on the family's CONSTANT basis columns in
        every row; all other coefficients are zero.
        """
        given = {"tunneling": tunneling, "bias": bias, "coupling": coupling}
        tied = cls.TIED if tied is None else tied
        width = cls._size_and_width(num_qubits, structure)[1]
        coeffs = {}
        for kind in KIND_ORDER:
            c = np.zeros((1 if tied else n_sites(num_qubits, kind), width))
            c[:, cls.CONSTANT] = (
                cls.INIT[kind] if given[kind] is None else given[kind])
            coeffs[kind] = c
        return cls(num_qubits, T, coeffs, tied=tied, **structure)

    # -- structure ---------------------------------------------------------

    def structure(self):
        """The basis-size argument that rebuilds this schedule's family."""
        return {self.SIZE[0]: self.size}

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
        # Scale t by T first: no accepted T can overflow a basis argument.
        return self.basis(np.asarray(ts, dtype=float) / self.T, self.size)

    def grid_rows(self, grid):
        """Read-only basis rows at `grid.midpoints`, shape (M, width).

        Computed (and range-checked) once per (basis, size, T, grid) and
        shared by every schedule of that family: the solves and the
        gradient read them.
        """
        return _grid_rows(self.basis, self.size, self.T, grid)

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
    SIZE = ("n_max", 3, 0)
    INIT = {"tunneling": 2.5e-3, "bias": 1.0e-4, "coupling": 1.0e-4}
    TIED = True
    CONSTANT = slice(0, 1)
    SEGMENTED = False

    @staticmethod
    def basis(u, n_max):
        # Columns: the constant, sines n = 1..n_max, cosines n = 1..n_max.
        args = np.outer(u, np.pi * np.arange(1, n_max + 1))
        return np.concatenate([np.ones((u.size, 1)), np.sin(args), np.cos(args)],
                              axis=1)


class PiecewiseSchedule(_Schedule):
    """Parameters held constant on S equal segments of [0, T]."""

    mode = "piecewise"
    SIZE = ("segments", 4, 1)
    INIT = {"tunneling": 2.0e-3, "bias": 1.0e-4, "coupling": 1.0e-4}
    TIED = False
    CONSTANT = slice(None)
    SEGMENTED = True

    @staticmethod
    def basis(u, segments):
        # Clipped at both ends: a time just outside [0, T] takes the nearer end.
        idx = np.clip(np.floor(u * segments).astype(int), 0, segments - 1)
        return np.eye(segments)[idx]


FAMILIES = {family.mode: family for family in (FourierSchedule, PiecewiseSchedule)}


def _checked_times(ts, T):
    """ts as a float array; raises ScheduleError if one lies outside [0, T]."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts.min() < -1e-12 or ts.max() > T + 1e-12):
        raise ScheduleError("evaluation time outside [0, T]")
    return ts


@functools.lru_cache(maxsize=64)
def _grid_rows(basis, size, T, grid):
    """`basis` of one size at a grid's midpoints on [0, T], read-only."""
    rows = basis(_checked_times(grid.midpoints, T) / T, size)
    rows.flags.writeable = False
    return rows


def list_trainable(schedule, learning_rates) -> np.ndarray:
    """Ascending indices into `schedule.params` of kinds with a positive rate."""
    return np.flatnonzero(schedule.per_index(learning_rates) > 0.0)


def read_json(path, error, build):
    """`build` of the JSON value in the file at `path`: every input file is
    read here.  A file that cannot be read, text that is not JSON, a NaN or
    infinite number, an integer beyond the float range, a key given twice in
    one object, and any ValueError that `build` raises end as `error`
    naming the file."""
    def finite(token, number=float):
        if not math.isfinite(float(token)):
            raise ValueError(f"non-finite number {token}")
        return number(token)

    def unique(pairs):
        keys = [k for k, _ in pairs]
        if len(set(keys)) < len(keys):
            raise ValueError(f"duplicate key {max(keys, key=keys.count)!r}")
        return dict(pairs)

    try:
        with open(path) as fh:
            return build(json.load(fh, parse_float=finite, parse_constant=finite,
                                   parse_int=lambda t: finite(t, int),
                                   object_pairs_hook=unique))
    except (OSError, ValueError) as exc:
        why = "not valid JSON: " if isinstance(exc, json.JSONDecodeError) else ""
        raise error(f"{path}: {why}{exc}") from exc


def check_keys(obj, allowed, required, error, prefix="", what="config"):
    """Raise `error` unless `obj` is a dict with only `allowed` keys and every
    `required` one; keys are named with the dotted `prefix`, as `what` fields."""
    if not isinstance(obj, dict):
        raise error(f"{prefix.rstrip('.') or what} must be a JSON object, "
                    f"got {type(obj).__name__}")
    for word, keys in (("unknown", obj.keys() - set(allowed)),
                       ("missing", set(required) - obj.keys())):
        if keys:
            raise error(f"{word} {what} fields: "
                        f"{sorted(f'{prefix}{k}' for k in keys)}")


def schedule_from_dict(d):
    """The schedule a `to_dict` record describes; raises ScheduleError
    naming any key that record would not hold or that it lacks."""
    # The mode comes first: it names the family, whose size field is required.
    check_keys(d, d, ("mode",), ScheduleError, what="schedule")
    family = FAMILIES.get(d["mode"]) if isinstance(d["mode"], str) else None
    if family is None:
        raise ScheduleError(f"unknown schedule mode {d['mode']!r}")
    size = family.SIZE[0]
    fields = ("mode", "num_qubits", "T_ns", "tied", "coefficients", size)
    check_keys(d, fields, fields, ScheduleError, what="schedule")
    check_keys(d["coefficients"], KIND_ORDER, KIND_ORDER, ScheduleError,
               "coefficients.", "schedule")
    return family(d["num_qubits"], d["T_ns"], d["coefficients"], tied=d["tied"],
                  **{size: d[size]})


def save_schedule(schedule, path):
    with open(path, "w") as fh:
        json.dump(schedule.to_dict(), fh, indent=2)


def load_schedule(path):
    return read_json(path, ScheduleError, schedule_from_dict)
