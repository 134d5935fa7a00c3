"""B*-tree, ASF-B*-tree and hierarchical B*-tree placement (section III)."""

from .asf import ASFBStarTree, ASFMoveSet
from .common_centroid import (
    CommonCentroidError,
    common_centroid_placement,
    grid_options,
    n_variants,
)
from .contour import Contour
from .count import catalan, count_bstar_trees, enumerate_bstar_trees
from .hb_tree import HBStarTreePlacement, HBState, LevelState
from .packing import pack, pack_sizes
from .perturb import BStarState
from .placer import BStarPlacer, BStarPlacerConfig, HierarchicalPlacer
from .tree import BStarTree

__all__ = [
    "ASFBStarTree",
    "ASFMoveSet",
    "BStarPlacer",
    "BStarPlacerConfig",
    "BStarState",
    "BStarTree",
    "CommonCentroidError",
    "Contour",
    "HBStarTreePlacement",
    "HBState",
    "HierarchicalPlacer",
    "LevelState",
    "catalan",
    "common_centroid_placement",
    "count_bstar_trees",
    "enumerate_bstar_trees",
    "grid_options",
    "n_variants",
    "pack",
    "pack_sizes",
]
