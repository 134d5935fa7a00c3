"""Cooling schedules for simulated annealing.

The stochastic placers of sections II and III both use classic
Kirkpatrick-style annealing [12].  Schedules are small stateless policy
objects so placers can swap them without touching the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

from ..geometry import ordered_sum


class CoolingSchedule(Protocol):
    """Maps an iteration counter to a temperature."""

    def temperature(self, step: int) -> float:
        """Temperature at annealing step ``step`` (0-based)."""
        ...

    @property
    def total_steps(self) -> int:
        """Number of annealing steps the schedule spans."""
        ...


@dataclass(frozen=True, slots=True)
class GeometricSchedule:
    """Classic geometric cooling: ``T_k = T0 * alpha^k`` with ``k`` the
    epoch index (``steps_per_epoch`` moves per epoch)."""

    t_initial: float = 1.0
    t_final: float = 1e-4
    alpha: float = 0.95
    steps_per_epoch: int = 64

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.t_initial <= self.t_final:
            raise ValueError("t_initial must exceed t_final")
        if self.steps_per_epoch <= 0:
            raise ValueError("steps_per_epoch must be positive")

    @property
    def epochs(self) -> int:
        return max(1, math.ceil(math.log(self.t_final / self.t_initial) / math.log(self.alpha)))

    @property
    def total_steps(self) -> int:
        return self.epochs * self.steps_per_epoch

    def temperature(self, step: int) -> float:
        epoch = step // self.steps_per_epoch
        return self.t_initial * self.alpha**epoch


@dataclass(frozen=True, slots=True)
class LinearSchedule:
    """Temperature falls linearly from ``t_initial`` to ``t_final``."""

    t_initial: float = 1.0
    t_final: float = 1e-4
    steps: int = 10_000

    def __post_init__(self) -> None:
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.t_initial < self.t_final:
            raise ValueError("t_initial must be >= t_final")

    @property
    def total_steps(self) -> int:
        return self.steps

    def temperature(self, step: int) -> float:
        frac = min(1.0, step / self.steps)
        return self.t_initial + (self.t_final - self.t_initial) * frac


def initial_temperature_from_samples(deltas: Sequence[float], acceptance: float = 0.9) -> float:
    """Choose T0 so uphill moves of average magnitude are accepted with
    probability ``acceptance`` — the standard warm-up heuristic.

    ``deltas`` are sampled cost increases from random moves; only finite
    positive samples count.  A warmup move onto a state that cannot be
    packed (cost ``inf``, e.g. an unpackable sequence-pair code) yields
    an infinite delta: averaged in, it would make T0 — and with it every
    temperature of the walk — infinite, so Metropolis would accept every
    finite uphill move and the walk would never cool.  Samples are
    summed left to right (:func:`~repro.geometry.ordered_sum`), so T0 is
    the same on every interpreter.
    """
    if not (0.0 < acceptance < 1.0):
        raise ValueError("acceptance must be in (0, 1)")
    uphill = [d for d in deltas if 0 < d < math.inf]
    if not uphill:
        return 1.0
    avg = ordered_sum(uphill) / len(uphill)
    return -avg / math.log(acceptance)
