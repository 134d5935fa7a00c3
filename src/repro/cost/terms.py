"""The cost-term catalog: pluggable objectives for placement annealing.

A :class:`CostTerm` is one weighted component of a placement objective.
Terms are *declarative* — each carries its name, weight and whatever
precomputed scales it needs — and a :class:`~repro.cost.CostModel` is
nothing but an ordered tuple of them.  Two evaluation tiers:

* **full** — :meth:`CostTerm.accumulate` folds the term into a running
  total given a flat coordinate table (plus optional precomputed
  inputs: the bounding box, an explicit area, the incremental HPWL
  total, the rich placement for boundary-tier terms, the maintained
  count of unsatisfied proximity groups);
* **delta** — a term that can be maintained incrementally returns a
  stateful helper from :meth:`CostTerm.delta` (:class:`HPWLTerm` ->
  :class:`~repro.cost.DeltaHPWL`, :class:`ProximityTerm` ->
  :class:`DeltaProximity`); stateless terms return ``None`` and are
  simply recomputed, which is exact and — for area/aspect off a
  maintained bounding box — already O(1).

Bit-identity contract
=====================

``accumulate`` must reproduce the float operations of the legacy
per-placer objectives *operation for operation* (same multiplies, same
divides, same accumulation order), so that a model built from these
terms anneals the exact trajectories the placer-private cost code did.
That is why ``accumulate`` folds into the running total instead of
returning a contribution to be summed: :class:`ProximityTerm` adds its
weight once per unsatisfied group — separate additions, exactly like
the legacy loop — which is *not* the same float as adding
``weight * count`` in one step.  ``tests/cost/`` locks all of this
property-style against replicas of the legacy formulas.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Sequence

from ..circuit.constraints import ConstraintSet, ProximityGroup, rects_connected
from .hpwl import DeltaHPWL, hpwl_of, resolve_nets

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..geometry import Net, Placement
    from ..perf.coords import Coords

#: bounding box of an empty coordinate table (degenerate at the origin)
EMPTY_BOUNDING = (0.0, 0.0, 0.0, 0.0)


def proximity_satisfied(group: ProximityGroup, coords: Coords, *, tol: float = 1e-6) -> bool:
    """Coordinate-table twin of :meth:`ProximityGroup.is_satisfied`.

    Hands the table's entries to the same :func:`rects_connected` the
    boundary tier uses, so both tiers give the same answer.
    """
    rects = [coords[m] for m in group.members_ if m in coords]
    if len(rects) <= 1:
        return True
    return rects_connected(rects, group.margin + tol)


class DeltaProximity:
    """Incremental proximity satisfaction with commit/rollback semantics.

    Keeps one satisfied flag per group and a module -> groups
    adjacency.  A proposal re-tests only the groups with a moved member
    (every group when ``moved`` is ``None``), undo-logging the flags it
    flips, and returns the number of unsatisfied groups — the input
    :class:`ProximityTerm` adds its weight for, once per group.
    """

    def __init__(self, groups: Sequence[ProximityGroup]) -> None:
        self._groups = tuple(groups)
        of: dict[str, list[int]] = {}
        for i, group in enumerate(self._groups):
            for member in group.members_:
                of.setdefault(member, []).append(i)
        self._of = {member: tuple(ids) for member, ids in of.items()}
        self._ok = [True] * len(self._groups)
        self._unsatisfied = 0
        # indices whose flag the pending proposal flipped
        self._log: list[int] | None = None

    def reset(self, coords: Coords) -> int:
        """Test every group against ``coords``; return the unsatisfied count."""
        self._log = None
        self._ok = [proximity_satisfied(g, coords) for g in self._groups]
        self._unsatisfied = self._ok.count(False)
        return self._unsatisfied

    def propose(self, coords: Coords, moved: Collection[str] | None = None) -> int:
        """Re-test the groups ``moved`` touches; return the unsatisfied count.

        Must be followed by :meth:`commit` or :meth:`rollback` before
        the next proposal.
        """
        if self._log is not None:
            raise RuntimeError("previous proposal not committed or rolled back")
        if moved is None:
            affected = range(len(self._groups))
        else:
            of = self._of.get
            affected = set()
            for name in moved:
                ids = of(name)
                if ids:
                    affected.update(ids)
        ok = self._ok
        groups = self._groups
        log: list[int] = []
        for i in affected:
            now = proximity_satisfied(groups[i], coords)
            if now != ok[i]:
                ok[i] = now
                log.append(i)
                self._unsatisfied += -1 if now else 1
        self._log = log
        return self._unsatisfied

    def commit(self) -> None:
        """Keep the pending proposal (no-op when none is pending)."""
        self._log = None

    def rollback(self) -> None:
        """Restore the flags the pending proposal flipped."""
        if self._log:
            ok = self._ok
            for i in self._log:
                ok[i] = now = not ok[i]
                self._unsatisfied += -1 if now else 1
        self._log = None


class CostTerm:
    """One weighted component of a placement objective.

    Subclasses implement :meth:`accumulate`; everything else (naming,
    activity gating, delta support, description) has shared defaults.
    ``accumulate`` receives positional inputs so the hot loop pays no
    keyword overhead:

    ``coords``
        flat ``name -> (x0, y0, x1, y1)`` table (may be empty for
        area-only evaluations that pass ``area`` explicitly);
    ``hpwl``
        incrementally maintained weighted-HPWL total, or ``None``
        (terms that consume it must recompute when absent);
    ``bounding``
        ``(x0, y0, x1, y1)`` of the whole table, or ``None`` when no
        term in the model asked for it;
    ``area``
        explicit chip area overriding the bounding-box product (the
        slicing placer scores the selected shape's area);
    ``placement``
        rich :class:`~repro.geometry.Placement` for boundary-tier terms
        (:class:`ViolationTerm`); ``None`` inside annealing hot loops;
    ``unsatisfied``
        maintained count of unsatisfied proximity groups
        (:class:`DeltaProximity`), or ``None`` (:class:`ProximityTerm`
        then tests its groups against ``coords``).
    """

    #: how the term consumes the model-level bounding box:
    #: ``None`` (never), ``"area"`` (only when no explicit area is
    #: given) or ``"always"`` (whenever the term is active)
    bounding_role: str | None = None

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        self.weight = weight

    @property
    def active(self) -> bool:
        """Whether the term contributes at all (legacy gating parity:
        a zero weight skips the term's arithmetic entirely)."""
        return bool(self.weight)

    def accumulate(
        self,
        total: float,
        coords: Coords,
        hpwl: float | None,
        bounding: tuple[float, float, float, float] | None,
        area: float | None,
        placement: Placement | None,
        unsatisfied: int | None,
    ) -> float:
        """Fold this term into ``total`` and return the new total."""
        raise NotImplementedError

    def contribution(
        self,
        coords: Coords,
        hpwl: float | None = None,
        bounding: tuple[float, float, float, float] | None = None,
        area: float | None = None,
        placement: Placement | None = None,
        unsatisfied: int | None = None,
    ) -> float:
        """This term's weighted contribution in isolation (reporting
        tier; totals are always produced by :meth:`accumulate`)."""
        return self.accumulate(0.0, coords, hpwl, bounding, area, placement, unsatisfied)

    def delta(self) -> DeltaHPWL | DeltaProximity | None:
        """A fresh incremental helper, or ``None`` for stateless terms."""
        return None

    def describe(self) -> str:
        """One-line term description for reports and ``docs/cost.md``."""
        return f"{self.name} (weight {self.weight:g})"


class AreaTerm(CostTerm):
    """Chip area of the bounding box, normalized by total module area.

    ``weight * (width * height) / area_scale`` — or, when an explicit
    ``area`` is supplied (slicing scores the Stockmeyer-selected shape,
    not the union of blocks), ``weight * area / area_scale``.
    """

    bounding_role = "area"

    def __init__(self, weight: float, area_scale: float) -> None:
        super().__init__("area", weight)
        self.area_scale = area_scale

    @property
    def active(self) -> bool:
        # legacy parity: every placer computes its area term
        # unconditionally (a zero weight still multiplies through)
        return True

    def accumulate(self, total, coords, hpwl, bounding, area, placement, unsatisfied):
        if area is None:
            bx0, by0, bx1, by1 = bounding
            area = (bx1 - bx0) * (by1 - by0)
        return total + self.weight * area / self.area_scale


class HPWLTerm(CostTerm):
    """Weighted half-perimeter wirelength over module centers.

    Nets are resolved against the placeable names once; the scale is
    ``sqrt(area_scale) * net count`` so the weight stays
    size-independent.  Full evaluation is :func:`~repro.cost.hpwl_of`;
    the delta path is :class:`~repro.cost.DeltaHPWL`, handed in by the
    engines as the maintained ``hpwl`` input.
    """

    def __init__(
        self,
        weight: float,
        nets: tuple[Net, ...],
        names: Sequence[str],
        area_scale: float,
    ) -> None:
        super().__init__("wirelength", weight)
        nets = tuple(nets)
        self._names = tuple(names)
        self._has_nets = bool(nets)
        self.resolved = resolve_nets(nets, self._names)
        self.wl_scale = max(area_scale**0.5 * max(len(nets), 1), 1e-12)

    @property
    def active(self) -> bool:
        # legacy gate: `if nets and cfg.wirelength_weight:`
        return self._has_nets and bool(self.weight)

    def accumulate(self, total, coords, hpwl, bounding, area, placement, unsatisfied):
        if not (self._has_nets and self.weight):
            return total
        if hpwl is None:
            hpwl = hpwl_of(self.resolved, coords)
        return total + self.weight * hpwl / self.wl_scale

    def delta(self) -> DeltaHPWL:
        """A fresh per-net incremental HPWL cache for this term's nets."""
        return DeltaHPWL(self.resolved, self._names)


class AspectTerm(CostTerm):
    """Penalty for deviating from a target aspect ratio.

    ``weight * max(0, max(h/w, w/h) / target - 1)`` over the bounding
    box; inactive on degenerate (zero-extent) boxes.
    """

    bounding_role = "always"

    def __init__(self, weight: float, target_aspect: float = 1.0) -> None:
        super().__init__("aspect", weight)
        self.target_aspect = target_aspect

    def accumulate(self, total, coords, hpwl, bounding, area, placement, unsatisfied):
        if not self.weight:
            return total
        bx0, by0, bx1, by1 = bounding
        width = bx1 - bx0
        height = by1 - by0
        if width > 0 and height > 0:
            ratio = height / width
            deviation = max(ratio, 1.0 / ratio) / max(self.target_aspect, 1e-12)
            total = total + self.weight * max(0.0, deviation - 1.0)
        return total


class ProximityTerm(CostTerm):
    """Flat penalty per unsatisfied proximity group.

    Adds ``weight`` once per group whose members do not form a single
    connected cluster — separate additions, replicating the legacy
    accumulation bit for bit.  A supplied ``unsatisfied`` count is
    trusted (:class:`DeltaProximity` maintains it); otherwise every
    group is tested against ``coords``.
    """

    def __init__(self, weight: float, groups: tuple[ProximityGroup, ...]) -> None:
        super().__init__("proximity", weight)
        self.groups = tuple(groups)

    def accumulate(self, total, coords, hpwl, bounding, area, placement, unsatisfied):
        if self.weight:
            if unsatisfied is None:
                unsatisfied = 0
                for group in self.groups:
                    if not proximity_satisfied(group, coords):
                        unsatisfied += 1
            for _ in range(unsatisfied):
                total += self.weight
        return total

    def delta(self) -> DeltaProximity | None:
        """Per-group satisfaction flags, or ``None`` when the term never
        charges anything (no groups, or a zero weight)."""
        if not (self.groups and self.weight):
            return None
        return DeltaProximity(self.groups)


class OutlineTerm(CostTerm):
    """Penalty for spilling over a fixed die outline.

    ``weight * (max(0, w - W)/W + max(0, h - H)/H)`` for an outline of
    ``W x H`` — zero whenever the packing fits.  Not part of any
    placer's default objective (the paper's flow is outline-free); add
    it to a model to run fixed-outline floorplanning experiments.
    """

    bounding_role = "always"

    def __init__(self, weight: float, outline: tuple[float, float]) -> None:
        super().__init__("outline", weight)
        width, height = outline
        if width <= 0 or height <= 0:
            raise ValueError(f"outline must be positive, got {outline!r}")
        self.outline = (float(width), float(height))

    def accumulate(self, total, coords, hpwl, bounding, area, placement, unsatisfied):
        if not self.weight:
            return total
        bx0, by0, bx1, by1 = bounding
        max_w, max_h = self.outline
        excess = max(0.0, (bx1 - bx0) - max_w) / max_w + max(
            0.0, (by1 - by0) - max_h
        ) / max_h
        return total + self.weight * excess


class ViolationTerm(CostTerm):
    """Flat penalty per violated layout constraint (boundary tier).

    Charges ``weight * len(constraints.violations(placement))`` —
    symmetry, common-centroid and proximity groups alike — so engines
    that ignore constraint classes by construction cannot outrank a
    constraint-clean placement on raw compactness.  Needs the rich
    :class:`~repro.geometry.Placement` (constraint validators measure
    axes and centroids), so it belongs in boundary-tier models like
    :func:`~repro.cost.reference_model`, never in an annealing hot
    loop.
    """

    def __init__(self, weight: float, constraints: ConstraintSet) -> None:
        super().__init__("violations", weight)
        self.constraints = constraints

    def accumulate(self, total, coords, hpwl, bounding, area, placement, unsatisfied):
        if not self.weight:
            return total
        if placement is None:
            raise ValueError(
                "the 'violations' term needs a rich Placement: evaluate "
                "through CostModel.evaluate_placement(), not over raw coords"
            )
        return total + self.weight * len(self.constraints.violations(placement))
