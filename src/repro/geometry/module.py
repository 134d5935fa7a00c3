"""Placeable modules.

A *module* is the atomic unit of placement: a device, a device stack, or a
previously-placed sub-block.  Hard modules have a fixed footprint (up to
orientation); soft modules expose a discrete set of shape variants, as
produced e.g. by different folding factors of a MOS transistor or by the
shape function of a sub-block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .orientation import Orientation, oriented_size
from .summation import ordered_sum


@dataclass(frozen=True, slots=True)
class ShapeVariant:
    """One realizable footprint of a module.

    ``tag`` carries implementation information (e.g. the folding factor
    that produced this variant) so downstream consumers — notably the
    layout-aware sizing templates — can recover how to draw the module.
    """

    width: float
    height: float

    tag: str = ""

    def __post_init__(self) -> None:
        # `not (x > 0)` also catches NaN, which `x <= 0` would let through
        if not (self.width > 0 and self.height > 0):
            raise ValueError(f"non-positive shape variant {self.width}x{self.height}")

    @property
    def area(self) -> float:
        return self.width * self.height

    def oriented(self, orientation: Orientation) -> tuple[float, float]:
        """Footprint (w, h) of this variant under ``orientation``."""
        return oriented_size(self.width, self.height, orientation)


@dataclass(frozen=True, slots=True)
class Module:
    """A placeable block with one or more shape variants.

    Parameters
    ----------
    name:
        Unique identifier within a placement problem.
    variants:
        Non-empty tuple of realizable footprints.  A hard module has
        exactly one.
    rotatable:
        Whether the placer may apply width/height-swapping orientations.
        Analog devices whose matching depends on orientation (e.g. members
        of a common-centroid group) are typically not rotatable.
    """

    name: str
    variants: tuple[ShapeVariant, ...]
    rotatable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("module needs a non-empty name")
        if not self.variants:
            raise ValueError(f"module {self.name!r} needs at least one shape variant")

    # -- constructors ------------------------------------------------------

    @classmethod
    def hard(cls, name: str, width: float, height: float, *, rotatable: bool = True) -> "Module":
        """A module with a single fixed footprint."""
        return cls(name, (ShapeVariant(width, height),), rotatable)

    @classmethod
    def soft(
        cls,
        name: str,
        area: float,
        aspect_ratios: tuple[float, ...] = (0.5, 1.0, 2.0),
        *,
        rotatable: bool = True,
    ) -> "Module":
        """A module of fixed area realizable at several aspect ratios.

        ``aspect_ratios`` are height/width ratios; each yields one variant.
        """
        if area <= 0:
            raise ValueError("soft module needs positive area")
        variants = []
        for ar in aspect_ratios:
            if ar <= 0:
                raise ValueError(f"non-positive aspect ratio {ar}")
            width = (area / ar) ** 0.5
            variants.append(ShapeVariant(width, width * ar, tag=f"ar={ar:g}"))
        return cls(name, tuple(variants), rotatable)

    # -- queries -----------------------------------------------------------

    @property
    def is_hard(self) -> bool:
        return len(self.variants) == 1

    @property
    def width(self) -> float:
        """Width of the first (default) variant."""
        return self.variants[0].width

    @property
    def height(self) -> float:
        """Height of the first (default) variant."""
        return self.variants[0].height

    @property
    def area(self) -> float:
        """Area of the first (default) variant."""
        return self.variants[0].area

    def min_area(self) -> float:
        """Smallest variant area (for lower-bound computations)."""
        return min(v.area for v in self.variants)

    def footprint(self, variant: int = 0, orientation: Orientation = Orientation.R0) -> tuple[float, float]:
        """Footprint (w, h) of variant ``variant`` under ``orientation``."""
        return self.variants[variant].oriented(orientation)


@dataclass(frozen=True, slots=True)
class ModuleSet:
    """An ordered, name-indexed collection of modules."""

    modules: tuple[Module, ...]
    _index: dict[str, int] = field(compare=False, hash=False, default_factory=dict)

    def __post_init__(self) -> None:
        index = {m.name: i for i, m in enumerate(self.modules)}
        if len(index) != len(self.modules):
            raise ValueError("duplicate module names")
        # frozen dataclass: populate the cached index via object.__setattr__
        object.__setattr__(self, "_index", index)

    @classmethod
    def of(cls, modules: list[Module] | tuple[Module, ...]) -> "ModuleSet":
        return cls(tuple(modules))

    def __len__(self) -> int:
        return len(self.modules)

    def __iter__(self):
        return iter(self.modules)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Module:
        return self.modules[self._index[name]]

    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.modules)

    def total_module_area(self) -> float:
        """Sum of default-variant areas, added in module order on every
        interpreter — the denominator of Table I's *area usage* metric."""
        return ordered_sum(m.area for m in self.modules)
