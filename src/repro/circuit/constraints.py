"""Analog layout constraints.

Section III of the paper identifies three basic constraint classes
(Fig. 3) — *common-centroid*, *symmetry* and *proximity* — plus their
hierarchical variants.  This module models all of them and provides
placement validators used by tests and by the placers' legality checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..geometry import Placement


@dataclass(frozen=True, slots=True)
class SymmetryGroup:
    """A group of modules to be placed mirror-symmetrically about a
    common vertical axis.

    ``pairs`` are (left, right) symmetric device pairs; ``self_symmetric``
    modules must straddle the axis themselves.  This is exactly the
    symmetry-group structure of the sequence-pair S-F condition (paper
    property (1)) and of the ASF-B*-tree symmetry islands.
    """

    name: str
    pairs: tuple[tuple[str, str], ...] = ()
    self_symmetric: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        members = list(self.members())
        if len(members) != len(set(members)):
            raise ValueError(f"symmetry group {self.name!r} has duplicate members")
        if not members:
            raise ValueError(f"symmetry group {self.name!r} is empty")

    def members(self) -> Iterator[str]:
        for a, b in self.pairs:
            yield a
            yield b
        yield from self.self_symmetric

    def member_set(self) -> frozenset[str]:
        return frozenset(self.members())

    def sym(self, module: str) -> str:
        """The symmetric counterpart of ``module`` (itself when
        self-symmetric) — the ``sym(x)`` map of the paper."""
        for a, b in self.pairs:
            if module == a:
                return b
            if module == b:
                return a
        if module in self.self_symmetric:
            return module
        raise KeyError(f"{module!r} not in symmetry group {self.name!r}")

    @property
    def size(self) -> int:
        return 2 * len(self.pairs) + len(self.self_symmetric)

    def axis_of(self, placement: Placement) -> float:
        """Best-fit vertical axis of the group in ``placement``.

        Average of pair-midpoints and self-symmetric centers; raises if no
        member is placed.
        """
        centers: list[float] = []
        for a, b in self.pairs:
            if a in placement and b in placement:
                centers.append(
                    (placement[a].rect.center.x + placement[b].rect.center.x) / 2.0
                )
        for s in self.self_symmetric:
            if s in placement:
                centers.append(placement[s].rect.center.x)
        if not centers:
            raise ValueError(f"no member of group {self.name!r} is placed")
        return sum(centers) / len(centers)

    def symmetry_error(self, placement: Placement) -> float:
        """Total deviation from perfect symmetry about the best-fit axis.

        Sums, over pairs, |mirror mismatch in x| + |y mismatch| and, over
        self-symmetric modules, the center-to-axis distance.  Zero means
        the constraint is met exactly.
        """
        axis = self.axis_of(placement)
        err = 0.0
        for a, b in self.pairs:
            ra, rb = placement[a].rect, placement[b].rect
            mirrored = ra.mirrored_x(axis)
            err += abs(mirrored.x0 - rb.x0) + abs(mirrored.x1 - rb.x1)
            err += abs(ra.y0 - rb.y0) + abs(ra.y1 - rb.y1)
        for s in self.self_symmetric:
            err += 2.0 * abs(placement[s].rect.center.x - axis)
        return err

    def is_satisfied(self, placement: Placement, *, tol: float = 1e-6) -> bool:
        return self.symmetry_error(placement) <= tol


@dataclass(frozen=True, slots=True)
class CommonCentroidGroup:
    """Devices whose unit arrays must share a common centroid (Fig. 3a).

    ``units`` maps a device name to the names of its unit modules; the
    constraint requires all devices' unit-centroids to coincide.  Typical
    use: a current mirror or differential pair split into four units
    arranged ``A B / B A``.
    """

    name: str
    units: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        if len(self.units) < 2:
            raise ValueError(f"common-centroid group {self.name!r} needs >= 2 devices")
        all_units = [u for _, us in self.units for u in us]
        if len(all_units) != len(set(all_units)):
            raise ValueError(f"common-centroid group {self.name!r} reuses unit names")
        for dev, us in self.units:
            if not us:
                raise ValueError(f"device {dev!r} in group {self.name!r} has no units")

    def members(self) -> Iterator[str]:
        for _, us in self.units:
            yield from us

    def member_set(self) -> frozenset[str]:
        return frozenset(self.members())

    def centroids(self, placement: Placement) -> dict[str, tuple[float, float]]:
        """Per-device centroid of unit centers."""
        out = {}
        for dev, unit_names in self.units:
            xs = [placement[u].rect.center.x for u in unit_names]
            ys = [placement[u].rect.center.y for u in unit_names]
            out[dev] = (sum(xs) / len(xs), sum(ys) / len(ys))
        return out

    def centroid_error(self, placement: Placement) -> float:
        """Max pairwise distance between device centroids (0 = satisfied)."""
        cents = list(self.centroids(placement).values())
        err = 0.0
        for i, (xi, yi) in enumerate(cents):
            for xj, yj in cents[i + 1:]:
                err = max(err, abs(xi - xj) + abs(yi - yj))
        return err

    def is_satisfied(self, placement: Placement, *, tol: float = 1e-6) -> bool:
        return self.centroid_error(placement) <= tol


@dataclass(frozen=True, slots=True)
class ProximityGroup:
    """Modules that must form one connected cluster (Fig. 3c).

    Models shared wells / common guard rings: the union of the member
    rectangles (inflated by ``margin``) must be a single connected
    region.  The cluster outline need not be rectangular.
    """

    name: str
    members_: tuple[str, ...]
    margin: float = 0.0

    def __post_init__(self) -> None:
        if not self.members_:
            raise ValueError(f"proximity group {self.name!r} is empty")
        if len(set(self.members_)) != len(self.members_):
            raise ValueError(f"proximity group {self.name!r} has duplicates")

    def members(self) -> Iterator[str]:
        return iter(self.members_)

    def member_set(self) -> frozenset[str]:
        return frozenset(self.members_)

    def is_satisfied(self, placement: Placement, *, tol: float = 1e-6) -> bool:
        """True when the member rectangles form one connected component.

        Rectangles within ``margin`` (plus ``tol``) of each other are
        considered adjacent.
        """
        rects = []
        for m in self.members_:
            if m in placement:
                r = placement[m].rect
                rects.append((r.x0, r.y0, r.x1, r.y1))
        if len(rects) <= 1:
            return True
        return rects_connected(rects, self.margin + tol)


def rects_connected(
    rects: Sequence[tuple[float, float, float, float]], gap: float
) -> bool:
    """Union-find connectivity of ``(x0, y0, x1, y1)`` rectangles under
    a ``gap`` tolerance.

    Each rectangle grows by ``gap / 2`` on every side (the float
    operations of :meth:`Rect.inflated`) and two grown rectangles are
    adjacent when they overlap or touch (:meth:`Rect.overlaps` with
    ``strict=False``).  Flat tuples are what both tiers hold: the
    boundary tier (:meth:`ProximityGroup.is_satisfied`) unpacks its
    rects, and the annealing tier (:mod:`repro.cost`) passes coordinate
    table entries as they are, so no :class:`Rect` is built per step.
    """
    half = gap / 2.0
    grown = [(x0 - half, y0 - half, x1 + half, y1 + half) for x0, y0, x1, y1 in rects]
    n = len(grown)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for i in range(n):
        ax0, ay0, ax1, ay1 = grown[i]
        for j in range(i + 1, n):
            bx0, by0, bx1, by1 = grown[j]
            if ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1:
                union(i, j)
    root = find(0)
    return all(find(i) == root for i in range(n))


Constraint = SymmetryGroup | CommonCentroidGroup | ProximityGroup


@dataclass(frozen=True)
class ConstraintSet:
    """All layout constraints of one circuit."""

    symmetry: tuple[SymmetryGroup, ...] = ()
    common_centroid: tuple[CommonCentroidGroup, ...] = ()
    proximity: tuple[ProximityGroup, ...] = ()

    def __post_init__(self) -> None:
        names = [c.name for c in self.all()]
        if len(names) != len(set(names)):
            raise ValueError("duplicate constraint names")

    def all(self) -> tuple[Constraint, ...]:
        return (*self.symmetry, *self.common_centroid, *self.proximity)

    def constrained_modules(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.all():
            out |= c.member_set()
        return frozenset(out)

    def violations(self, placement: Placement, *, tol: float = 1e-6) -> list[str]:
        """Names of constraints not satisfied by ``placement``."""
        return [c.name for c in self.all() if not c.is_satisfied(placement, tol=tol)]

    def is_satisfied(self, placement: Placement, *, tol: float = 1e-6) -> bool:
        return not self.violations(placement, tol=tol)

    def merged_with(self, other: "ConstraintSet") -> "ConstraintSet":
        return ConstraintSet(
            self.symmetry + other.symmetry,
            self.common_centroid + other.common_centroid,
            self.proximity + other.proximity,
        )


def symmetry_group_of_pairs(name: str, *pairs: tuple[str, str], selfsym: Iterable[str] = ()) -> SymmetryGroup:
    """Convenience constructor used heavily in tests and examples."""
    return SymmetryGroup(name, tuple(pairs), tuple(selfsym))
