"""Module orientations (the eight symmetries of the rectangle).

Analog placement only needs the subgroup that matters for packing —
whether width and height are swapped — plus mirror information used when
building symmetric placements.  We model the full dihedral group D4 so
layout templates and symmetry islands can express mirrored devices
exactly.
"""

from __future__ import annotations

from enum import Enum


class Orientation(Enum):
    """The eight axis-aligned orientations of a rectangle.

    Names follow the usual LEF/DEF convention:

    * ``R0``/``R90``/``R180``/``R270`` — counter-clockwise rotations;
    * ``MX`` — mirrored about the x axis, ``MY`` — about the y axis;
    * ``MX90``/``MY90`` — mirror then rotate by 90 degrees.
    """

    R0 = "R0"
    R90 = "R90"
    R180 = "R180"
    R270 = "R270"
    MX = "MX"
    MY = "MY"
    MX90 = "MX90"
    MY90 = "MY90"

    @property
    def swaps_wh(self) -> bool:
        """True if this orientation exchanges width and height."""
        return self in _SWAPPING

    @property
    def is_mirrored(self) -> bool:
        """True for the four reflected (improper) orientations."""
        return self in _MIRRORED

    def rotated_ccw(self) -> "Orientation":
        """Compose with a counter-clockwise quarter turn."""
        return _ROTATE_CCW[self]

    def mirrored_y(self) -> "Orientation":
        """Compose with a mirror about the y (vertical) axis."""
        return _MIRROR_Y[self]

    def mirrored_x(self) -> "Orientation":
        """Compose with a mirror about the x (horizontal) axis."""
        return _MIRROR_X[self]


_SWAPPING = {Orientation.R90, Orientation.R270, Orientation.MX90, Orientation.MY90}
#: (orientation, swaps_wh) for the whole group, for :func:`oriented_sizes`
_SWAP_FLAGS = tuple((o, o in _SWAPPING) for o in Orientation)
_MIRRORED = {Orientation.MX, Orientation.MY, Orientation.MX90, Orientation.MY90}

_ROTATE_CCW = {
    Orientation.R0: Orientation.R90,
    Orientation.R90: Orientation.R180,
    Orientation.R180: Orientation.R270,
    Orientation.R270: Orientation.R0,
    Orientation.MX: Orientation.MX90,
    Orientation.MX90: Orientation.MY,
    Orientation.MY: Orientation.MY90,
    Orientation.MY90: Orientation.MX,
}

_MIRROR_Y = {
    Orientation.R0: Orientation.MY,
    Orientation.MY: Orientation.R0,
    Orientation.R90: Orientation.MY90,
    Orientation.MY90: Orientation.R90,
    Orientation.R180: Orientation.MX,
    Orientation.MX: Orientation.R180,
    Orientation.R270: Orientation.MX90,
    Orientation.MX90: Orientation.R270,
}

_MIRROR_X = {
    Orientation.R0: Orientation.MX,
    Orientation.MX: Orientation.R0,
    Orientation.R90: Orientation.MX90,
    Orientation.MX90: Orientation.R90,
    Orientation.R180: Orientation.MY,
    Orientation.MY: Orientation.R180,
    Orientation.R270: Orientation.MY90,
    Orientation.MY90: Orientation.R270,
}

#: Orientations that only matter for packing (width/height swap or not).
PACKING_ORIENTATIONS = (Orientation.R0, Orientation.R90)

#: The full dihedral group, for template generation and symmetry islands.
ALL_ORIENTATIONS = tuple(Orientation)


def oriented_size(width: float, height: float, orientation: Orientation) -> tuple[float, float]:
    """Size of a ``width x height`` box under ``orientation``."""
    if orientation.swaps_wh:
        return height, width
    return width, height


def oriented_sizes(width: float, height: float) -> dict[Orientation, tuple[float, float]]:
    """:func:`oriented_size` under every orientation, as one map.

    An orientation keeps ``(width, height)`` or swaps it, so every value
    is one of two tuples, shared by the orientations that give it.
    """
    wh = (width, height)
    hw = (height, width)
    return {o: hw if swaps else wh for o, swaps in _SWAP_FLAGS}
