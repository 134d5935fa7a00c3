"""The unified cost model: one declarative objective, many engines.

:class:`CostModel` composes an ordered tuple of
:class:`~repro.cost.CostTerm`\\ s into the single weighted objective
every placer anneals (paper: wirelength + area/aspect + constraint
penalties, independent of the topological representation exploring it).
The same model instance serves three tiers:

* **hot loop** — :meth:`CostModel.evaluate` over a flat coordinate
  table, optionally fed precomputed inputs (a maintained HPWL total, a
  bounding box read off the packing skyline or a level extent, an
  explicit shape area, a maintained count of unsatisfied proximity
  groups);
* **delta protocol** — :meth:`CostModel.evaluator` returns a
  :class:`CostEvaluator` whose ``reset / propose / commit / rollback``
  calls keep every delta-capable term's cache in lockstep with the
  ``propose -> commit/rollback`` protocol of
  :class:`~repro.anneal.IncrementalAnnealer`;
* **boundary** — :meth:`CostModel.evaluate_placement` scores a rich
  :class:`~repro.geometry.Placement` (identical floats: the flattening
  mirrors the rich arithmetic bit for bit), which is how the portfolio
  ranks finished walks through :func:`reference_model`.

:func:`model_for_config` builds the per-placer default models: it reads
the weight fields off a placer config dataclass, so a config *is* the
declaration of its objective — `bstar`/`hbtree` get area + wirelength +
aspect + proximity, `seqpair` area + wirelength + aspect, `slicing`
area + wirelength — with totals bit-identical to the placer-private
cost code this module replaced (property-locked in ``tests/cost/``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Iterable, Sequence

from ..perf.coords import bounding_of, placement_to_coords
from .terms import (
    EMPTY_BOUNDING,
    AreaTerm,
    AspectTerm,
    CostTerm,
    HPWLTerm,
    OutlineTerm,
    ProximityTerm,
    ViolationTerm,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..circuit import Circuit, ProximityGroup
    from ..geometry import ModuleSet, Net, Placement
    from ..perf.coords import Coords

#: Canonical default weights of the paper's objective.  The placer
#: configs (`BStarPlacerConfig`, seqpair's `PlacerConfig`) default their
#: weight fields to these values, and :func:`reference_model` ranks
#: portfolio walks with them — one source of truth for "the" objective.
DEFAULT_WEIGHTS: dict[str, float] = {
    "area": 1.0,
    "wirelength": 0.5,
    "aspect": 0.1,
    "proximity": 2.0,
}

#: default aspect-ratio target (square)
DEFAULT_TARGET_ASPECT = 1.0

#: reference-model penalty per violated constraint — matches the weight
#: the default objective already charges for an unsatisfied proximity
#: group, so every constraint kind is charged exactly once at one rate
VIOLATION_WEIGHT = DEFAULT_WEIGHTS["proximity"]

#: reference-model weight of the fixed-outline term, charged only for
#: circuits that declare a die outline (``Circuit.outline``); same rate
#: as a violated constraint — spilling the die is a broken promise, not
#: a soft preference
OUTLINE_WEIGHT = VIOLATION_WEIGHT

#: weight fields a placer config may expose, in canonical term order
TERM_NAMES = ("area", "wirelength", "aspect", "proximity")


def check_term_name(term: str) -> str:
    """Validate a user-facing term name against the weight catalog.

    One message, one place: :func:`weight_overrides` and the CLI's
    ``--cost-weights`` parser both report unknown terms through this.
    """
    if term not in TERM_NAMES:
        raise ValueError(
            f"unknown cost term {term!r}; try: {', '.join(TERM_NAMES)}"
        )
    return term


def area_scale_of(modules: ModuleSet) -> float:
    """The normalization scale shared by every model over ``modules``."""
    return max(modules.total_module_area(), 1e-12)


class CostModel:
    """An ordered, declarative composition of cost terms.

    Construct directly from terms for bespoke objectives, or through
    :func:`model_for_config` / :func:`reference_model` for the standard
    ones.  Term order is evaluation order — float accumulation is not
    associative, and trajectories are bit-reproducible only because the
    order is part of the model's identity.
    """

    def __init__(self, terms: Iterable[CostTerm]) -> None:
        self._terms = tuple(terms)
        if not self._terms:
            raise ValueError("a cost model needs at least one term")
        by_name: dict[str, CostTerm] = {}
        for term in self._terms:
            if term.name in by_name:
                raise ValueError(f"duplicate cost term {term.name!r}")
            by_name[term.name] = term
        self._by_name = by_name
        # hot-loop fast path: a tuple of bound accumulate methods, so
        # evaluate() pays one call per term and no attribute lookups
        self._accumulators = tuple(t.accumulate for t in self._terms)
        hpwl_term = by_name.get("wirelength")
        self._hpwl_term = hpwl_term if isinstance(hpwl_term, HPWLTerm) else None
        proximity_term = by_name.get("proximity")
        self._proximity_term = (
            proximity_term if isinstance(proximity_term, ProximityTerm) else None
        )
        # bounding-box demand, resolved once: "always" terms force the
        # computation whenever active; "area" terms only when no
        # explicit area is supplied (the slicing model never computes a
        # bounding box, exactly like its legacy objective)
        self._bounding_always = any(
            t.bounding_role == "always" and t.active for t in self._terms
        )
        self._bounding_for_area = any(
            t.bounding_role == "area" and t.active for t in self._terms
        )

    # -- introspection -------------------------------------------------------

    @property
    def terms(self) -> tuple[CostTerm, ...]:
        return self._terms

    def term(self, name: str) -> CostTerm:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no cost term {name!r}; this model has: "
                f"{', '.join(t.name for t in self._terms)}"
            ) from None

    @property
    def weights(self) -> dict[str, float]:
        """Term name -> weight, in evaluation order."""
        return {t.name: t.weight for t in self._terms}

    @property
    def hpwl_term(self) -> HPWLTerm | None:
        """The wirelength term, when the model carries one."""
        return self._hpwl_term

    @property
    def proximity_term(self) -> ProximityTerm | None:
        """The proximity term, when the model carries one."""
        return self._proximity_term

    @property
    def tracks_wirelength(self) -> bool:
        """Whether an active wirelength term is worth maintaining
        incrementally (mirrors the engines' legacy ``track_wl`` gate)."""
        return self._hpwl_term is not None and self._hpwl_term.active

    @property
    def resolved_nets(self):
        """Pre-resolved nets of the wirelength term (``[]`` without one)."""
        return self._hpwl_term.resolved if self._hpwl_term is not None else []

    def describe(self) -> str:
        """One line per term, for reports and docs."""
        return "\n".join(t.describe() for t in self._terms)

    # -- full evaluation -----------------------------------------------------

    def _resolve_bounding(self, coords, bounding, area):
        """The bounding box the terms will consult, computed only when
        some active term demands it (shared by evaluate/breakdown)."""
        if bounding is None and (
            self._bounding_always or (area is None and self._bounding_for_area)
        ):
            return bounding_of(coords.values()) if coords else EMPTY_BOUNDING
        return bounding

    def evaluate(
        self,
        coords: Coords,
        hpwl: float | None = None,
        bounding: tuple[float, float, float, float] | None = None,
        area: float | None = None,
        placement: Placement | None = None,
        unsatisfied: int | None = None,
    ) -> float:
        """Total cost of ``coords``; precomputed inputs are trusted.

        A supplied ``hpwl`` must equal ``hpwl_of(resolved_nets,
        coords)`` bit for bit (:class:`~repro.cost.DeltaHPWL`
        guarantees this), a supplied ``bounding`` must equal
        ``bounding_of(coords.values())`` the same way (the B*-tree
        engines read it off a packing skyline), and a supplied
        ``unsatisfied`` must equal the number of the proximity term's
        groups ``coords`` leaves unsatisfied
        (:class:`~repro.cost.DeltaProximity` maintains it) — the
        result is then identical either way, just cheaper.
        """
        bounding = self._resolve_bounding(coords, bounding, area)
        total = 0.0
        for accumulate in self._accumulators:
            total = accumulate(total, coords, hpwl, bounding, area, placement, unsatisfied)
        return total

    def __call__(self, coords: Coords) -> float:
        return self.evaluate(coords)

    def breakdown(
        self,
        coords: Coords,
        hpwl: float | None = None,
        bounding: tuple[float, float, float, float] | None = None,
        area: float | None = None,
        placement: Placement | None = None,
    ) -> dict[str, float]:
        """Per-term weighted contributions, in evaluation order.

        Reporting tier: the dict's values sum to (within float
        reassociation) :meth:`evaluate`; authoritative totals always
        come from :meth:`evaluate` itself.
        """
        bounding = self._resolve_bounding(coords, bounding, area)
        return {
            t.name: t.contribution(coords, hpwl, bounding, area, placement)
            for t in self._terms
        }

    # -- boundary tier -------------------------------------------------------

    def evaluate_placement(self, placement: Placement) -> float:
        """Score a rich placement (same floats as the flat tier)."""
        return self.evaluate(placement_to_coords(placement), placement=placement)

    def breakdown_placement(self, placement: Placement) -> dict[str, float]:
        """Per-term contributions for a rich placement."""
        return self.breakdown(placement_to_coords(placement), placement=placement)

    # -- delta protocol ------------------------------------------------------

    def evaluator(self) -> "CostEvaluator":
        """A fresh delta-capable evaluation session over this model."""
        return CostEvaluator(self)


class CostEvaluator:
    """Delta-capable evaluation session: the model-side half of the
    ``propose -> delta-eval -> commit/rollback`` protocol.

    Owns one incremental helper per delta-capable term — the
    wirelength term's :class:`~repro.cost.DeltaHPWL` and, when the
    model has proximity groups, the proximity term's
    :class:`~repro.cost.DeltaProximity` — and keeps them in lockstep
    with the annealing engine's accept/reject decisions.
    Totals are bit-identical to :meth:`CostModel.evaluate` over the
    same table — the delta path changes cost, never answers
    (property-locked in ``tests/cost/``).

    Engines call:

    * :meth:`reset` when adopting a state (full rebuild);
    * :meth:`propose` once per perturbation — with ``moved`` when the
      engine tracked which modules changed (the dirty-suffix repack,
      the HB*-tree's copy-on-write level tables), or without it to
      diff wirelength against the last committed table and re-test
      every proximity group;
    * exactly one of :meth:`commit` / :meth:`rollback` afterwards.
      Both are safe to call when the pending proposal never reached
      :meth:`propose` (e.g. an infeasible pack scored ``inf``): the
      underlying caches no-op, exactly like the legacy engines'
      conditional bookkeeping.
    """

    def __init__(self, model: CostModel) -> None:
        self._model = model
        self._delta = model.hpwl_term.delta() if model.tracks_wirelength else None
        proximity = model.proximity_term
        # None for models without proximity groups: their propose()
        # takes exactly the wirelength-only path
        self._proximity = proximity.delta() if proximity is not None else None
        # pre-bound hot-loop methods: one annealing step costs exactly
        # one propose() here, so attribute chains are hoisted
        self._evaluate = model.evaluate
        self._delta_propose = self._delta.propose if self._delta is not None else None

    @property
    def model(self) -> CostModel:
        return self._model

    def reset(
        self,
        coords: Coords,
        *,
        bounding: tuple[float, float, float, float] | None = None,
        area: float | None = None,
    ) -> float:
        """Adopt ``coords`` as the committed state; return its cost."""
        delta = self._delta
        hpwl = delta.reset(coords) if delta is not None else None
        proximity = self._proximity
        unsatisfied = proximity.reset(coords) if proximity is not None else None
        return self._evaluate(coords, hpwl, bounding, area, None, unsatisfied)

    def propose(
        self,
        coords: Coords,
        moved: Collection[str] | None = None,
        bounding: tuple[float, float, float, float] | None = None,
        area: float | None = None,
    ) -> float:
        """Score a candidate table; follow with commit() or rollback().

        ``moved`` must name every module whose entry differs from the
        committed table (extra names only cost time); it is read once
        per delta-capable term, so pass a collection, not an iterator.
        """
        delta_propose = self._delta_propose
        hpwl = delta_propose(coords, moved) if delta_propose is not None else None
        proximity = self._proximity
        if proximity is None:
            return self._evaluate(coords, hpwl, bounding, area)
        unsatisfied = proximity.propose(coords, moved)
        return self._evaluate(coords, hpwl, bounding, area, None, unsatisfied)

    def commit(self) -> None:
        """Keep the pending proposal (no-op when none is pending)."""
        if self._delta is not None:
            self._delta.commit()
        if self._proximity is not None:
            self._proximity.commit()

    def rollback(self) -> None:
        """Drop the pending proposal, restoring every term cache."""
        if self._delta is not None:
            self._delta.rollback()
        if self._proximity is not None:
            self._proximity.rollback()


def model_for_config(
    modules: ModuleSet,
    nets: tuple[Net, ...],
    proximity: tuple[ProximityGroup, ...],
    config,
) -> CostModel:
    """The standard model a placer config declares.

    ``config`` is duck-typed: ``area_weight`` and ``wirelength_weight``
    are required; ``aspect_weight`` (with ``target_aspect``) and
    ``proximity_weight`` contribute their terms only when the config
    carries them.  Term order is the canonical area -> wirelength ->
    aspect -> proximity, matching the legacy accumulation order of
    every placer.
    """
    scale = area_scale_of(modules)
    names = modules.names()
    terms: list[CostTerm] = [
        AreaTerm(config.area_weight, scale),
        HPWLTerm(config.wirelength_weight, tuple(nets), names, scale),
    ]
    aspect_weight = getattr(config, "aspect_weight", None)
    if aspect_weight is not None:
        terms.append(
            AspectTerm(
                aspect_weight,
                getattr(config, "target_aspect", DEFAULT_TARGET_ASPECT),
            )
        )
    proximity_weight = getattr(config, "proximity_weight", None)
    if proximity_weight is not None:
        terms.append(ProximityTerm(proximity_weight, tuple(proximity)))
    return CostModel(terms)


def reference_model(
    circuit: Circuit, *, violation_weight: float = VIOLATION_WEIGHT
) -> CostModel:
    """One engine-agnostic yardstick over finished placements.

    Each engine anneals its *own* objective (slicing, for instance,
    carries no aspect or proximity terms), so internal best costs are
    not comparable across engines.  The portfolio therefore ranks
    placements with this model: area, wirelength and aspect under the
    canonical :data:`DEFAULT_WEIGHTS`, plus a :class:`ViolationTerm`
    charging ``violation_weight`` per violated constraint of *any*
    kind — so engines that ignore symmetry (flat ``bstar``,
    ``slicing``) cannot outrank a constraint-clean placement on raw
    compactness.  Proximity stays out of the weighted terms: the
    violation term already reports unsatisfied proximity groups, so
    each constraint is charged exactly once.

    Circuits that declare a fixed die outline (``circuit.outline``,
    e.g. the workload generator's fixed-outline scenarios) additionally
    carry an :class:`~repro.cost.OutlineTerm` at :data:`OUTLINE_WEIGHT`
    — outline-free circuits get the exact historical model.

    Evaluate through :meth:`CostModel.evaluate_placement` /
    :meth:`CostModel.breakdown_placement` (the violation term needs the
    rich placement).
    """
    modules = circuit.modules()
    scale = area_scale_of(modules)
    terms: list[CostTerm] = [
        AreaTerm(DEFAULT_WEIGHTS["area"], scale),
        HPWLTerm(
            DEFAULT_WEIGHTS["wirelength"], circuit.nets, modules.names(), scale
        ),
        AspectTerm(DEFAULT_WEIGHTS["aspect"], DEFAULT_TARGET_ASPECT),
    ]
    if circuit.outline is not None:
        terms.append(OutlineTerm(OUTLINE_WEIGHT, circuit.outline))
    terms.append(ViolationTerm(violation_weight, circuit.constraints()))
    return CostModel(terms)


def weight_overrides(
    spec: dict[str, float] | Sequence[tuple[str, float]], config_cls
) -> dict[str, float]:
    """Translate ``term -> weight`` into config-field overrides.

    Validates the term names against :data:`TERM_NAMES` and against the
    fields ``config_cls`` actually declares, so callers (the CLI's
    ``--cost-weights``) get one clean error instead of a dataclass
    ``TypeError``.
    """
    import dataclasses

    items = spec.items() if isinstance(spec, dict) else spec
    fields = {f.name for f in dataclasses.fields(config_cls)}
    supported = [t for t in TERM_NAMES if f"{t}_weight" in fields]
    out: dict[str, float] = {}
    for term, value in items:
        check_term_name(term)
        field = f"{term}_weight"
        if field not in fields:
            raise ValueError(
                f"{config_cls.__name__} has no {term!r} cost term; "
                f"it supports: {', '.join(supported)}"
            )
        out[field] = float(value)
    return out
