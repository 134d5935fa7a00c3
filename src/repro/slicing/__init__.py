"""Slicing floorplans (normalized Polish expressions) — the baseline
representation the paper argues against for analog layout (section I)."""

from .packing import pack_slicing, shape_function_of
from .placer import SlicingPlacer, SlicingPlacerConfig
from .polish import OPERATORS, PolishExpression

__all__ = [
    "OPERATORS",
    "PolishExpression",
    "SlicingPlacer",
    "SlicingPlacerConfig",
    "pack_slicing",
    "shape_function_of",
]
