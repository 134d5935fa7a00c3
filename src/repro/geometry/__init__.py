"""Geometric substrate: rectangles, modules, placements and nets."""

from .module import Module, ModuleSet, ShapeVariant
from .net import Net, clique_nets_from_pairs, total_hpwl
from .orientation import (
    ALL_ORIENTATIONS,
    PACKING_ORIENTATIONS,
    Orientation,
    oriented_size,
    oriented_sizes,
)
from .outline import WellReport, union_area, union_perimeter, well_report
from .placement import PlacedModule, Placement
from .rect import Point, Rect, any_overlap, total_area
from .summation import ordered_sum

__all__ = [
    "ALL_ORIENTATIONS",
    "PACKING_ORIENTATIONS",
    "Module",
    "ModuleSet",
    "Net",
    "Orientation",
    "PlacedModule",
    "Placement",
    "Point",
    "Rect",
    "ShapeVariant",
    "WellReport",
    "any_overlap",
    "clique_nets_from_pairs",
    "ordered_sum",
    "oriented_size",
    "oriented_sizes",
    "total_area",
    "total_hpwl",
    "union_area",
    "union_perimeter",
    "well_report",
]
