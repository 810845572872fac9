"""Run configuration: JSON in, fully resolved defaults and run objects out.

Field names carry units (ns, rad/ns).  Numeric defaults are the published
initializations and learning rates, read from the schedule families and the
loop configs that own them; the evolution time and grid resolution are
simulator choices.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from .circuit import CircuitRLConfig, ShotBackend
from .qcore import TimeGrid, check_num_qubits
from .rl import RLConfig
from .schedules import FAMILIES, check_keys, load_schedule
from .train import check_kinds

# Each mode's schedule family and loop-config defaults: smooth Fourier pulses
# in the continuum modes, piecewise-constant segments on the circuit.
MODES = {"rl": (FAMILIES["fourier"], RLConfig),
         "backprop": (FAMILIES["fourier"], RLConfig),
         "circuit": (FAMILIES["piecewise"], CircuitRLConfig)}


class ConfigError(ValueError):
    pass


# Default evolution times, calibrated so the published learning rates give
# stable, converging training: the witness needs a total tunneling pulse area
# near pi/4, and the gradient magnitudes the rates were tuned against scale
# with T.  The continuum modes use a long pulse; the circuit mode's much
# larger rates need a short one.
DEFAULT_T_NS = {"rl": 250.0, "backprop": 250.0, "circuit": 2.0}
DEFAULT_STEPS = 200

# The type of each word of a field's annotation.  A bool passes only where
# the annotation names bool: it is neither an int nor a float here.
JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
              "dict": dict, "None": type(None)}


@dataclass
class RunConfig:
    """Everything needed to reproduce one training run, and the run's
    `schedule` (its start), `grid`, `loop` config and shot `backend`, built
    once from the resolved fields by constructors that check what they take.
    """

    mode: str = "rl"
    num_qubits: int = 2
    T_ns: float | None = None  # default depends on mode
    steps: int = DEFAULT_STEPS
    epochs: int = RLConfig.epochs
    seed: int = 0
    n_max: int = FAMILIES["fourier"].SIZE[1]
    segments: int = FAMILIES["piecewise"].SIZE[1]
    tied: bool | None = None  # default: the schedule family's
    init: dict = field(default_factory=dict)
    learning_rates: dict = field(default_factory=dict)
    delta_rel: float | None = None  # default depends on mode
    # kinds not given: the mode's loop-config floor for this delta_rel
    delta_abs: dict | None = None
    shots: int | str = "exact"
    p_dep: float = 0.0
    p_ro: float = 0.0
    rms_target: float | None = None
    trace_every: int = 200
    initial_schedule: str | None = None  # path; overrides init values

    def __post_init__(self):
        for name, f in self.__dataclass_fields__.items():
            value, types = getattr(self, name), f.type.split(" | ")
            if (not any(isinstance(value, JSON_TYPES[t]) for t in types)
                    or isinstance(value, bool) and "bool" not in types):
                raise ConfigError(f"{name} must be {f.type}, got {value!r}")
        check_kinds("init", self.init, error=ConfigError)
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r} (expected {tuple(MODES)})")
        check_num_qubits(self.num_qubits, error=ConfigError)
        if self.trace_every < 0:
            raise ConfigError("trace_every must be >= 0")
        if isinstance(self.shots, str) and self.shots != "exact":
            raise ConfigError('shots must be a positive integer or "exact"')
        family, loop_cls = MODES[self.mode]
        if self.delta_rel is None:
            self.delta_rel = loop_cls.delta_rel
        if self.T_ns is None:
            self.T_ns = DEFAULT_T_NS[self.mode]
        self.init = {**family.INIT, **self.init}
        if self.tied is None:
            self.tied = family.TIED
        try:
            # The other family's size too: every mode checks both.
            other = next(f for f in FAMILIES.values() if f is not family)
            other._size_and_width(self.num_qubits,
                                  {other.SIZE[0]: getattr(self, other.SIZE[0])})
            self.schedule = self._start(family)
            self.grid = TimeGrid(self.T_ns, self.steps)
            defaults = loop_cls(delta_rel=self.delta_rel)
            self.learning_rates = {**defaults.learning_rates, **self.learning_rates}
            self.delta_abs = {**defaults.delta_abs, **(self.delta_abs or {})}
            self.loop = replace(defaults, epochs=self.epochs,
                                rms_target=self.rms_target,
                                learning_rates=self.learning_rates,
                                delta_abs=self.delta_abs)
            self.backend = ShotBackend(
                shots=None if self.shots == "exact" else self.shots,
                p_dep=self.p_dep, p_ro=self.p_ro, seed=self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _start(self, family):
        """The starting schedule: the family at the `init` values, or the
        `initial_schedule` file, which must match the config (ValueError)."""
        structure = {family.SIZE[0]: getattr(self, family.SIZE[0])}
        if self.initial_schedule is None:
            return family.initialized(self.num_qubits, self.T_ns,
                                      tied=self.tied, **self.init, **structure)
        sched = load_schedule(self.initial_schedule)
        have = (sched.num_qubits, sched.mode, sched.T, sched.structure(),
                sched.tied)
        want = (self.num_qubits, family.mode, self.T_ns, structure, self.tied)
        if have != want:
            raise ValueError("initial schedule has {} qubits, mode {}, T_ns {}, "
                             "structure {} and tied {}; config says {}, {}, "
                             "{}, {} and {}".format(*have, *want))
        return sched

    @classmethod
    def from_dict(cls, data, **overrides) -> "RunConfig":
        """A config from a JSON object of fields; non-None `overrides` replace them.

        Overrides are applied before any default is resolved, so each means
        exactly what the same field written in the file means.
        """
        check_keys(data, cls.__dataclass_fields__, (), ConfigError)
        return cls(**{**data, **{k: v for k, v in overrides.items()
                                 if v is not None}})

    def resolved(self) -> dict:
        return asdict(self)
