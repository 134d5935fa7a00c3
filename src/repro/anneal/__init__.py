"""Shared simulated-annealing engine (Kirkpatrick et al. [12])."""

from .annealer import (
    CHECKPOINT_VERSION,
    Annealer,
    AnnealingResult,
    AnnealingStats,
    FunctionMoveSet,
    IncrementalAnnealer,
    IncrementalEngine,
    MoveSet,
    StateEngine,
    WalkCheckpoint,
    WeightedMoveSet,
    checkpoint_from_payload,
    checkpoint_payload,
)
from .batch import BatchedAnnealer, BatchEngine
from .schedule import (
    CoolingSchedule,
    GeometricSchedule,
    LinearSchedule,
    initial_temperature_from_samples,
)
from .walk import AnnealConfig, AnnealingPlacer, CoordsEngine, PlacerResult

__all__ = [
    "CHECKPOINT_VERSION",
    "AnnealConfig",
    "Annealer",
    "AnnealingPlacer",
    "AnnealingResult",
    "AnnealingStats",
    "BatchEngine",
    "BatchedAnnealer",
    "CoolingSchedule",
    "CoordsEngine",
    "FunctionMoveSet",
    "GeometricSchedule",
    "IncrementalAnnealer",
    "IncrementalEngine",
    "LinearSchedule",
    "MoveSet",
    "PlacerResult",
    "StateEngine",
    "WalkCheckpoint",
    "WeightedMoveSet",
    "checkpoint_from_payload",
    "checkpoint_payload",
    "initial_temperature_from_samples",
]
