"""Run configuration: JSON in, fully resolved defaults out.

Field names carry units (ns, rad/ns).  Numeric defaults are the published
initializations and learning rates, read from the schedule families and the
loop configs that own them; the evolution time and grid resolution are
simulator choices.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .backprop import BackpropConfig
from .circuit import CircuitRLConfig, ShotBackend
from .qcore import OUTPUT_MAPS, TimeGrid
from .rl import RLConfig
from .schedules import KIND_ORDER, FourierSchedule, PiecewiseSchedule, load_schedule
from .train import TrainConfig

MODES = ("rl", "backprop", "circuit")


class ConfigError(ValueError):
    pass


def _finite_float(token):
    """JSON number parser that rejects NaN and infinities."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {token} in config")
    return value


# Default evolution times, calibrated so the published learning rates give
# stable, converging training: the witness needs a total tunneling pulse area
# near pi/4, and the gradient magnitudes the rates were tuned against scale
# with T.  The continuum modes use a long pulse; the circuit mode's much
# larger rates need a short one.
DEFAULT_T_NS = {"rl": 250.0, "backprop": 250.0, "circuit": 2.0}
DEFAULT_STEPS = 200
DEFAULT_SEGMENTS = 4


@dataclass
class RunConfig:
    """Everything needed to reproduce one training run."""

    mode: str = "rl"
    num_qubits: int = 2
    T_ns: float | None = None  # default depends on mode
    steps: int = DEFAULT_STEPS
    epochs: int = TrainConfig.epochs
    seed: int = 0
    n_max: int = 3
    segments: int = DEFAULT_SEGMENTS
    tied: bool | None = None  # default: the schedule family's
    init: dict = field(default_factory=dict)
    learning_rates: dict = field(default_factory=dict)
    delta_rel: float | None = None  # default depends on mode
    # default: the mode's loop-config floor for this delta_rel
    delta_abs: dict | None = None
    output_map: str = "square"
    shots: int | str = "exact"
    p_dep: float = 0.0
    p_ro: float = 0.0
    rms_target: float | None = None
    trace_every: int = 200
    initial_schedule: str | None = None  # path; overrides init values

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r} (expected {MODES})")
        if self.output_map not in OUTPUT_MAPS:
            raise ConfigError(f"unknown output map {self.output_map!r}")
        if self.num_qubits < 2 or self.num_qubits > 6:
            raise ConfigError("num_qubits must be in 2..6")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if isinstance(self.shots, str) and self.shots != "exact":
            raise ConfigError('shots must be a positive integer or "exact"')
        unknown = [f"{name}.{kind}" for name in ("init", "learning_rates", "delta_abs")
                   for kind in getattr(self, name) or {} if kind not in KIND_ORDER]
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        circuit = self.mode == "circuit"
        family = PiecewiseSchedule if circuit else FourierSchedule
        loop_cls = CircuitRLConfig if circuit else RLConfig
        if self.delta_rel is None:
            self.delta_rel = loop_cls.delta_rel
        loop = loop_cls(delta_rel=self.delta_rel)
        if self.T_ns is None:
            self.T_ns = DEFAULT_T_NS[self.mode]
        self.init = {**family.INIT, **self.init}
        self.learning_rates = {**loop.learning_rates, **self.learning_rates}
        if self.tied is None:
            self.tied = family.TIED
        if self.delta_abs is None:
            self.delta_abs = loop.delta_abs

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path, **overrides) -> "RunConfig":
        """Load a JSON config; non-None `overrides` replace fields of the file.

        Overrides are applied before any default is resolved, so each means
        exactly what the same field written in the file means.
        """
        with open(path) as fh:
            try:
                data = json.load(fh, parse_float=_finite_float,
                                 parse_constant=_finite_float)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_dict(data)

    def resolved(self) -> dict:
        return asdict(self)

    # -- derived objects ---------------------------------------------------

    def grid(self) -> TimeGrid:
        return TimeGrid(self.T_ns, self.steps)

    def build_schedule(self):
        if self.initial_schedule is not None:
            sched = load_schedule(self.initial_schedule)
            if sched.num_qubits != self.num_qubits:
                raise ConfigError(
                    f"initial schedule has {sched.num_qubits} qubits, "
                    f"config says {self.num_qubits}")
            return sched
        family = PiecewiseSchedule if self.mode == "circuit" else FourierSchedule
        structure = ({"segments": self.segments} if self.mode == "circuit"
                     else {"n_max": self.n_max})
        return family.initialized(
            self.num_qubits, self.T_ns, tied=self.tied,
            tunneling=self.init["tunneling"], bias=self.init["bias"],
            coupling=self.init["coupling"], **structure)

    def train_config(self) -> TrainConfig:
        """The training-loop config for this mode, from the resolved fields."""
        common = dict(learning_rates=dict(self.learning_rates),
                      epochs=self.epochs, rms_target=self.rms_target)
        if self.mode == "backprop":
            return BackpropConfig(**common)
        return RLConfig(delta_rel=self.delta_rel, delta_abs=dict(self.delta_abs),
                        **common)

    def backend(self) -> ShotBackend:
        shots = None if self.shots == "exact" else int(self.shots)
        return ShotBackend(shots=shots, p_dep=self.p_dep, p_ro=self.p_ro,
                           seed=self.seed)


def default_config(mode) -> RunConfig:
    return RunConfig(mode=mode)
