"""The walk API every annealing placer shares.

Sequence pairs (section II), flat and hierarchical B*-trees (section
III) and the slicing baseline all anneal the same way: seed an RNG,
draw an initial state, drive an incremental engine through the cooling
schedule, score the best state per term and materialize it.  This
module holds that walk once:

* :class:`AnnealConfig` — the annealing fields every placer config
  shares, and the :class:`~repro.anneal.GeometricSchedule` they define;
* :class:`AnnealingPlacer` — the base class that owns ``cost_model``,
  ``cost``, ``cost_breakdown``, ``schedule``, ``annealer`` and
  ``run``; a placer supplies only its representation;
* :class:`PlacerResult` — what ``run()`` returns, for every placer;
* :class:`CoordsEngine` — the incremental engine of placers whose
  packing is monolithic (sequence pairs, slicing).

``repro.parallel`` drives the same methods chunk by chunk, so a single
run and a portfolio walk are one trajectory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generic, Optional, TypeVar

from .annealer import AnnealingStats, IncrementalAnnealer
from .schedule import GeometricSchedule

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..cost import CostEvaluator, CostModel
    from ..geometry import Placement
    from ..perf.coords import Coords

State = TypeVar("State")

#: what a placer's ``_cost_inputs`` hook returns: the packed coordinate
#: table plus an explicit area (``None``: the bounding box's), or
#: ``None`` when the state cannot be packed (its cost is ``inf``)
CostInputs = Optional[tuple["Coords", Optional[float]]]


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing parameters shared by every placer config.

    ``BStarPlacerConfig``, seqpair's ``PlacerConfig`` and
    ``SlicingPlacerConfig`` extend it with the cost weights they
    declare.  Build configs by keyword: these fields come first.
    """

    seed: int = 0
    t_initial: float = 1.0
    t_final: float = 1e-4
    alpha: float = 0.93
    steps_per_epoch: int = 60

    def schedule(self) -> GeometricSchedule:
        """The geometric cooling schedule these fields define."""
        return GeometricSchedule(
            t_initial=self.t_initial,
            t_final=self.t_final,
            alpha=self.alpha,
            steps_per_epoch=self.steps_per_epoch,
        )


@dataclass
class PlacerResult(Generic[State]):
    """Best placement plus the state that produced it and run statistics."""

    placement: Placement
    state: State
    cost: float
    stats: AnnealingStats


class AnnealingPlacer(Generic[State]):
    """The walk every annealing placer runs (shared by ``run()`` and
    :mod:`repro.parallel`).

    A placer sets ``_config`` (an :class:`AnnealConfig`) and
    ``_cost_model`` (the :class:`~repro.cost.CostModel` its config
    declares) at construction and supplies:

    * ``engine()`` — a fresh incremental engine (``reset`` before use);
    * ``initial_state(rng)`` — the walk's random starting state;
    * ``finalize(state)`` — the rich :class:`~repro.geometry.Placement`
      of a state;
    * ``_cost_inputs(state)`` — see :data:`CostInputs`.

    Everything else — scoring, the schedule, the driver and the run
    itself — lives here once.
    """

    _config: AnnealConfig
    _cost_model: CostModel

    def engine(self):
        raise NotImplementedError

    def initial_state(self, rng: random.Random) -> State:
        raise NotImplementedError

    def finalize(self, state: State) -> Placement:
        raise NotImplementedError

    def _cost_inputs(self, state: State) -> CostInputs:
        raise NotImplementedError

    # -- cost -----------------------------------------------------------------

    @property
    def cost_model(self) -> CostModel:
        """The unified objective this placer anneals."""
        return self._cost_model

    def cost(self, state: State) -> float:
        """Cost of a state, evaluated on the coordinate tier.

        Bit-identical to the engine's incremental cost of the same
        state (``tests/perf/``); a state that cannot be packed scores
        ``inf``.
        """
        inputs = self._cost_inputs(state)
        if inputs is None:
            return math.inf
        coords, area = inputs
        return self._cost_model.evaluate(coords, area=area)

    def cost_breakdown(self, state: State) -> dict[str, float] | None:
        """Per-term contributions of a state (``None`` when it cannot
        be packed); reporting tier."""
        inputs = self._cost_inputs(state)
        if inputs is None:
            return None
        coords, area = inputs
        return self._cost_model.breakdown(coords, area=area)

    # -- walk -----------------------------------------------------------------

    def schedule(self) -> GeometricSchedule:
        """The cooling schedule this placer's config defines."""
        return self._config.schedule()

    def annealer(self, engine, rng: random.Random) -> IncrementalAnnealer:
        """The annealing driver for this placer's engine."""
        return IncrementalAnnealer(engine, self.schedule(), rng)

    def run(self) -> PlacerResult[State]:
        """One whole walk from the config's seed; the best state wins."""
        rng = random.Random(self._config.seed)
        engine = self.engine()
        engine.reset(self.initial_state(rng))
        outcome = self.annealer(engine, rng).run()
        outcome.stats.term_breakdown = self.cost_breakdown(outcome.best_state)
        return PlacerResult(
            placement=self.finalize(outcome.best_state),
            state=outcome.best_state,
            cost=outcome.best_cost,
            stats=outcome.stats,
        )


class CoordsEngine(Generic[State]):
    """Incremental-protocol adapter for placers whose packing is
    monolithic.

    Sequence-pair (LCS) and slicing (Stockmeyer) packing rebuild every
    coordinate of a candidate, so the increment lives on the cost side:
    the model's :class:`~repro.cost.CostEvaluator` diffs each candidate
    table against the last committed one and rescans only the nets of
    modules that moved, with commit/rollback keeping its caches in
    lockstep with accept/reject.  Costs are bit-identical to
    :meth:`AnnealingPlacer.cost`, so trajectories are unchanged.

    ``move(state, rng)`` draws a functional neighbour (the input state
    is never mutated); ``cost_inputs`` is the placer's
    :meth:`AnnealingPlacer._cost_inputs` hook.
    """

    def __init__(
        self,
        move: Callable[[State, random.Random], State],
        cost_inputs: Callable[[State], CostInputs],
        evaluator: CostEvaluator,
    ) -> None:
        self._move = move
        self._cost_inputs = cost_inputs
        self._eval = evaluator
        self._current: State | None = None
        self._candidate: State | None = None
        self._candidate_packed = False
        self._cost = math.inf
        self._pending_cost = math.inf

    def reset(self, state: State) -> float:
        self._current = state
        inputs = self._cost_inputs(state)
        if inputs is None:
            self._cost = math.inf
        else:
            coords, area = inputs
            self._cost = self._eval.reset(coords, area=area)
        return self._cost

    def initial_cost(self) -> float:
        return self._cost

    def propose(self, rng: random.Random) -> float:
        self._candidate = self._move(self._current, rng)
        inputs = self._cost_inputs(self._candidate)
        if inputs is None:
            # unpackable: infinite cost, nothing entered the caches
            self._candidate_packed = False
            self._pending_cost = math.inf
            return self._pending_cost
        coords, area = inputs
        self._candidate_packed = True
        self._pending_cost = self._eval.propose(coords, area=area)
        return self._pending_cost

    def commit(self) -> None:
        self._current = self._candidate
        self._candidate = None
        if self._candidate_packed:
            # the caches now describe the committed coords; an unpacked
            # (infinite-cost) commit leaves them on the last packed
            # baseline, which stays correct for diffing
            self._eval.commit()
        self._candidate_packed = False
        self._cost = self._pending_cost

    def rollback(self) -> None:
        self._candidate = None
        if self._candidate_packed:
            self._eval.rollback()
        self._candidate_packed = False

    def snapshot(self) -> State:
        return self._current  # states are immutable
