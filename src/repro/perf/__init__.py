"""Fast evaluation kernel for the annealing hot loops.

Two-tier design
===============

Every placer in this library is a simulated-annealing loop around a
``pack -> cost`` evaluation.  The *rich* object model — frozen
:class:`~repro.geometry.PlacedModule` records inside an immutable
:class:`~repro.geometry.Placement`, footprints re-validated on
construction — is exactly right at the API boundary, but it is pure
overhead when the annealer only needs a scalar cost: tens of thousands
of evaluations each allocated a full object graph just to fold it into
four floats.

This package is the lower tier.  Inside the loop a placement is nothing
but *flat coordinates* — ``name -> (x0, y0, x1, y1)`` — packed straight
from the B*-tree with precomputed footprints and evaluated by a cost
model whose net pins were resolved once up front.  The arithmetic is
bit-for-bit the same as the object path (verified by the equivalence
tests in ``tests/perf/``), so annealing trajectories are unchanged; a
real :class:`~repro.geometry.Placement` is materialized only for the
best/final state.

Modules
-------

``coords``
    The flat coordinate representation and conversions to/from the rich
    :class:`~repro.geometry.Placement`.
``kernel``
    The B*-tree packing kernel: iterative traversal, reusable skyline,
    per-(module, variant, orientation) footprint table.
``incremental``
    The dirty-suffix engine on top of the kernel: checkpointed skyline,
    partial repack from the earliest perturbed pre-order position, and
    the propose -> commit/rollback protocol the annealer drives; with
    ``FlatBStarEngine``, the set-up, committed state and in-place step
    that every flat B*-tree engine (the vector tier's included) shares.
``vector``
    The vector tier on that step: windowed multi-scale moves and the
    multi-candidate batch protocol (``propose_batch``/``accept``/
    ``reject_all`` driven by :class:`repro.anneal.BatchedAnnealer`),
    with a full-rescan scalar oracle twin, plus the numpy
    ``BatchCostEvaluator``.  Its two classes are served on first access
    by this package's ``__getattr__``, so the scalar tiers never import
    numpy (see ``docs/perf.md``, "Set-up").

The cost side of the loop (term catalog, :class:`~repro.cost.CostModel`,
delta HPWL) lives in :mod:`repro.cost`; ``DeltaHPWL`` / ``hpwl_of`` /
``resolve_nets`` are re-exported here for backwards compatibility.
"""

from .coords import (
    Coords,
    bounding_of,
    coords_to_placement,
    normalize_coords,
    placement_to_coords,
)
from ..cost.hpwl import DeltaHPWL, hpwl_of, resolve_nets
from .kernel import BStarKernel, Skyline, pack_tree_coords
from .incremental import FullRepackBStarEngine, IncrementalBStarEngine

#: names served from :mod:`repro.perf.vector` on first access
_VECTOR_TIER = ("BatchCostEvaluator", "VectorBStarEngine")


def __getattr__(name: str):
    if name in _VECTOR_TIER:
        from . import vector

        return getattr(vector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BStarKernel",
    "BatchCostEvaluator",
    "Coords",
    "DeltaHPWL",
    "FullRepackBStarEngine",
    "IncrementalBStarEngine",
    "Skyline",
    "VectorBStarEngine",
    "bounding_of",
    "coords_to_placement",
    "hpwl_of",
    "normalize_coords",
    "pack_tree_coords",
    "placement_to_coords",
    "resolve_nets",
]
