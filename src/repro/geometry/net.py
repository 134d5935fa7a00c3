"""Nets and wirelength estimation.

Analog placers optimize a weighted combination of area and estimated
wirelength.  We use the standard half-perimeter wirelength (HPWL) over
module centers, the same estimator used by the annealing placers the
paper surveys (ILAC, KOAN/ANAGRAM II, PUPPY-A, LAYLA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .placement import Placement
from .summation import ordered_sum


@dataclass(frozen=True, slots=True)
class Net:
    """A named net connecting two or more modules.

    ``weight`` allows critical nets (e.g. the differential signal path)
    to count more in the wirelength objective.
    """

    name: str
    pins: tuple[str, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if len(self.pins) < 2:
            raise ValueError(f"net {self.name!r} needs at least two pins")
        if self.weight < 0:
            raise ValueError(f"net {self.name!r} has negative weight")

    def hpwl(self, placement: Placement) -> float:
        """Half-perimeter wirelength over the pins placed in ``placement``.

        Pins on modules absent from the placement are ignored; a net with
        fewer than two placed pins contributes zero.
        """
        xs: list[float] = []
        ys: list[float] = []
        for pin in self.pins:
            if pin in placement:
                c = placement[pin].rect.center
                xs.append(c.x)
                ys.append(c.y)
        if len(xs) < 2:
            return 0.0
        return (max(xs) - min(xs)) + (max(ys) - min(ys))


def total_hpwl(nets: Iterable[Net], placement: Placement) -> float:
    """Weighted sum of HPWL over all nets, added in net order."""
    return ordered_sum(net.weight * net.hpwl(placement) for net in nets)


def clique_nets_from_pairs(pairs: Iterable[tuple[str, str]], *, prefix: str = "n") -> list[Net]:
    """Build two-pin nets from module-name pairs (test/benchmark helper)."""
    return [Net(f"{prefix}{i}", (a, b)) for i, (a, b) in enumerate(pairs)]
