"""Unified cost subsystem: one declarative objective for every engine.

The paper's flow optimizes a single weighted objective — wirelength +
area/aspect + constraint penalties — no matter which topological
representation (sequence-pair, B*-tree forest, slicing tree) anneals
it.  This package makes that objective a first-class, *shared* layer:

``hpwl``
    Net resolution, full HPWL evaluation and :class:`DeltaHPWL` — the
    incremental per-net cache every delta path runs on.
``terms``
    The pluggable :class:`CostTerm` catalog: area, wirelength, aspect,
    outline, proximity and constraint-violation penalties, plus
    :class:`DeltaProximity`, the proximity term's incremental flags.
``model``
    :class:`CostModel` (ordered term composition, full + breakdown +
    boundary evaluation), :class:`CostEvaluator` (the delta-capable
    ``reset/propose/commit/rollback`` session), the
    :func:`model_for_config` builder every placer uses, and
    :func:`reference_model` — the engine-agnostic yardstick the
    portfolio ranks walks with.

All four placers, both incremental B*-tree engines, the packing kernel
and the portfolio consume this package; no placer-private cost code
remains.  Totals are bit-identical to the legacy per-placer objectives
(``tests/cost/`` locks this property-style), so annealed trajectories
are unchanged — one objective, four search engines.
"""

from .hpwl import DeltaHPWL, ResolvedNet, hpwl_of, net_hpwl, resolve_nets
from .model import (
    DEFAULT_TARGET_ASPECT,
    DEFAULT_WEIGHTS,
    OUTLINE_WEIGHT,
    TERM_NAMES,
    VIOLATION_WEIGHT,
    CostEvaluator,
    CostModel,
    area_scale_of,
    check_term_name,
    model_for_config,
    reference_model,
    weight_overrides,
)
from .terms import (
    AreaTerm,
    AspectTerm,
    CostTerm,
    DeltaProximity,
    HPWLTerm,
    OutlineTerm,
    ProximityTerm,
    ViolationTerm,
    proximity_satisfied,
)

__all__ = [
    "AreaTerm",
    "AspectTerm",
    "CostEvaluator",
    "CostModel",
    "CostTerm",
    "DEFAULT_TARGET_ASPECT",
    "DEFAULT_WEIGHTS",
    "DeltaHPWL",
    "DeltaProximity",
    "HPWLTerm",
    "OUTLINE_WEIGHT",
    "OutlineTerm",
    "ProximityTerm",
    "ResolvedNet",
    "TERM_NAMES",
    "VIOLATION_WEIGHT",
    "ViolationTerm",
    "area_scale_of",
    "check_term_name",
    "hpwl_of",
    "model_for_config",
    "net_hpwl",
    "proximity_satisfied",
    "reference_model",
    "resolve_nets",
    "weight_overrides",
]
