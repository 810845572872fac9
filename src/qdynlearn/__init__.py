"""Density-matrix simulator and trainer for learned entanglement witnesses."""

from .qcore import (
    DensityMatrix,
    TimeGrid,
    evolve,
    output_value,
    zz_expectation,
)
from .schedules import (
    FourierSchedule,
    PiecewiseSchedule,
    list_trainable,
    load_schedule,
    save_schedule,
)
from .witness import TrainingPair, build_training_set, concurrence, evaluate_witness
from .train import TrainConfig, TrainingDiverged, run_epochs
from .backprop import all_gradients, train_backprop
from .rl import RLConfig, fd_gradient, pair_error, train_rl, train_rl_epoch
from .circuit import (
    CircuitRLConfig,
    SegmentedCircuit,
    ShotBackend,
    compile_segments,
    estimate_output,
    run_shots,
    train_circuit_rl,
)
from .staging import stage_up

__version__ = "0.1.0"
