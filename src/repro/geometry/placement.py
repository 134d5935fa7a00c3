"""Placements: modules assigned to concrete rectangles.

A :class:`Placement` is the common output format of every placer in this
library (sequence-pair, B*-tree, hierarchical, deterministic).  It maps
module names to :class:`PlacedModule` records and offers the quality
metrics used throughout the paper: bounding-box area, dead space, the
Table-I *area usage* ratio, and constraint-compliance checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import copysign
from typing import Iterable, Iterator, Mapping

from .module import Module, ModuleSet
from .orientation import Orientation
from .rect import Rect, any_overlap


@dataclass(frozen=True, slots=True)
class PlacedModule:
    """A module fixed at a location, variant and orientation."""

    module: Module
    rect: Rect
    variant: int = 0
    orientation: Orientation = Orientation.R0

    def __post_init__(self) -> None:
        w, h = self.module.footprint(self.variant, self.orientation)
        if abs(w - self.rect.width) > 1e-6 or abs(h - self.rect.height) > 1e-6:
            raise ValueError(
                f"rect {self.rect.width:g}x{self.rect.height:g} does not match "
                f"module {self.module.name!r} footprint {w:g}x{h:g}"
            )

    @property
    def name(self) -> str:
        return self.module.name

    def translated(self, dx: float, dy: float) -> "PlacedModule":
        return PlacedModule(self.module, self.rect.translated(dx, dy), self.variant, self.orientation)

    def mirrored_x(self, axis: float) -> "PlacedModule":
        """Mirror about the vertical line ``x = axis`` (footprint unchanged)."""
        return PlacedModule(
            self.module,
            self.rect.mirrored_x(axis),
            self.variant,
            self.orientation.mirrored_y(),
        )


@dataclass(frozen=True)
class Placement:
    """An immutable placement of a set of modules."""

    placed: tuple[PlacedModule, ...]
    _by_name: dict[str, PlacedModule] = field(compare=False, hash=False, default_factory=dict)
    _bbox: "Rect | None" = field(compare=False, hash=False, default=None, repr=False)

    def __post_init__(self) -> None:
        by_name = {p.name: p for p in self.placed}
        if len(by_name) != len(self.placed):
            raise ValueError("duplicate modules in placement")
        object.__setattr__(self, "_by_name", by_name)

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, placed: Iterable[PlacedModule]) -> "Placement":
        return cls(tuple(placed))

    @classmethod
    def empty(cls) -> "Placement":
        return cls(())

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self.placed)

    def __iter__(self) -> Iterator[PlacedModule]:
        return iter(self.placed)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> PlacedModule:
        return self._by_name[name]

    def rects(self) -> list[Rect]:
        return [p.rect for p in self.placed]

    def positions(self) -> Mapping[str, Rect]:
        """Read-only name → rect view."""
        return {p.name: p.rect for p in self.placed}

    # -- metrics -------------------------------------------------------------

    def bounding_box(self) -> Rect:
        """Bounding rectangle of all placed modules (cached lazily —
        the placement is immutable, so one scan serves every later
        ``area``/``width``/``height`` access)."""
        bb = self._bbox
        if bb is None:
            if not self.placed:
                bb = Rect(0.0, 0.0, 0.0, 0.0)
            else:
                bb = Rect.bounding(p.rect for p in self.placed)
            object.__setattr__(self, "_bbox", bb)
        return bb

    @property
    def area(self) -> float:
        """Area of the bounding rectangle."""
        return self.bounding_box().area

    @property
    def width(self) -> float:
        return self.bounding_box().width

    @property
    def height(self) -> float:
        return self.bounding_box().height

    def module_area(self) -> float:
        """Sum of placed module footprints."""
        return sum(p.rect.area for p in self.placed)

    def area_usage(self) -> float:
        """Table-I metric: bounding-rectangle area / total module area.

        1.0 means a perfectly dense packing; the paper reports values such
        as 111.74% for this ratio.
        """
        module_area = self.module_area()
        if module_area == 0:
            return 1.0
        return self.area / module_area

    def dead_space(self) -> float:
        """Bounding-box area not covered by modules."""
        return self.area - self.module_area()

    # -- validity ------------------------------------------------------------

    def is_overlap_free(self, *, tol: float = 1e-9) -> bool:
        """True when no two modules overlap by more than ``tol``."""
        return not any_overlap(self.rects(), tol=tol)

    def overlapping_pairs(self, *, tol: float = 1e-9) -> list[tuple[str, str]]:
        """All pairs of module names whose rectangles overlap (O(n^2))."""
        out = []
        for i, a in enumerate(self.placed):
            for b in self.placed[i + 1:]:
                inter = a.rect.intersection(b.rect)
                if inter is not None and inter.width > tol and inter.height > tol:
                    out.append((a.name, b.name))
        return out

    # -- transforms ------------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Placement":
        return Placement.of(p.translated(dx, dy) for p in self.placed)

    def normalized(self) -> "Placement":
        """Translate so the bounding box has its lower-left corner at (0, 0).

        A placement already anchored at (+0.0, +0.0) — every kernel
        packing puts its root exactly there — is returned as is:
        translating by -0.0 changes no float.  (At -0.0 the translation
        by +0.0 would turn -0.0 coordinates into +0.0, so that case
        still builds the copy.)
        """
        if not self.placed:
            return self
        bb = self.bounding_box()
        if bb.x0 == bb.y0 == 0.0 and copysign(1.0, bb.x0) == copysign(1.0, bb.y0) == 1.0:
            return self
        return self.translated(-bb.x0, -bb.y0)

    def mirrored_x(self, axis: float) -> "Placement":
        return Placement.of(p.mirrored_x(axis) for p in self.placed)

    def merged_with(self, other: "Placement") -> "Placement":
        """Union of two placements over disjoint module sets."""
        return Placement(self.placed + other.placed)

    def subset(self, names: Iterable[str]) -> "Placement":
        """Placement restricted to the given module names."""
        wanted = set(names)
        return Placement.of(p for p in self.placed if p.name in wanted)

    def restricted_to_modules(self, modules: ModuleSet) -> "Placement":
        return self.subset(modules.names())
