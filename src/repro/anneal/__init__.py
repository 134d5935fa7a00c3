"""Shared simulated-annealing engine (Kirkpatrick et al. [12]).

One loop, :class:`IncrementalAnnealer`, anneals every placer's engine
through the ``propose -> commit/rollback`` protocol
(:class:`IncrementalEngine`); the functional :class:`Annealer` is the
reference the incremental engines are checked against.
"""

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
