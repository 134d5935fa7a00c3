"""Generic simulated-annealing engine.

Both topological placers (sequence-pair, section II; B*-tree forests,
section III) share this engine.  The engine is deliberately ignorant of
layout: it manipulates opaque *states* through a :class:`MoveSet` and a
cost function, implementing stochastically controlled hill-climbing with
best-state tracking.

Two driving modes are provided:

* :class:`Annealer` — the classic functional loop: ``propose`` returns a
  brand-new state, the cost function evaluates it from scratch, and a
  rejected candidate is simply dropped.
* :class:`IncrementalAnnealer` — the incremental protocol: a single
  mutable *engine* owns the current state and evaluates each
  perturbation in place (``propose -> delta-eval -> commit/rollback``).
  Rejection rolls the perturbation back instead of discarding a copied
  state, so engines can reuse every cache that the move did not touch
  (see :mod:`repro.perf.incremental`).

Both loops consume randomness identically (one draw sequence per
proposal plus one acceptance draw per uphill move), so an engine that
mirrors a :class:`MoveSet`'s draws reproduces the functional loop's
trajectory bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Generic, Protocol, TypeVar

from ..telemetry import NULL_RECORDER
from .schedule import CoolingSchedule, GeometricSchedule, initial_temperature_from_samples

State = TypeVar("State")


class MoveSet(Protocol[State]):
    """Produces random neighbors of a state.

    Implementations must *not* mutate the input state; placers rely on
    rejected moves leaving the current state untouched.
    """

    def propose(self, state: State, rng: random.Random) -> State:
        """Return a random neighbor of ``state``."""
        ...


@dataclass
class AnnealingStats:
    """Counters collected during one annealing run."""

    steps: int = 0
    accepted: int = 0
    improved: int = 0
    best_cost: float = math.inf
    initial_cost: float = math.inf
    final_temperature: float = 0.0
    #: per-term contributions of ``best_cost`` under the placer's
    #: :class:`~repro.cost.CostModel` (filled by the placers' ``run()``;
    #: ``None`` for raw annealer drives or infeasible best states)
    term_breakdown: dict[str, float] | None = None

    @property
    def acceptance_ratio(self) -> float:
        return self.accepted / self.steps if self.steps else 0.0


@dataclass
class AnnealingResult(Generic[State]):
    """Best state found plus run statistics."""

    best_state: State
    best_cost: float
    stats: AnnealingStats


#: format version of a serialized :class:`WalkCheckpoint` envelope.
#: Bump whenever the checkpoint's fields (or the meaning of any field)
#: change, so persisted run directories from an incompatible build are
#: rejected with a clear error instead of resuming garbage.
CHECKPOINT_VERSION = 1


def checkpoint_payload(checkpoint: "WalkCheckpoint") -> dict:
    """Wrap a checkpoint in a versioned envelope for serialization.

    The envelope (not the raw checkpoint) is what
    :mod:`repro.parallel.persist` pickles into a run directory;
    :func:`checkpoint_from_payload` refuses envelopes written under a
    different :data:`CHECKPOINT_VERSION`.
    """
    return {"version": CHECKPOINT_VERSION, "checkpoint": checkpoint}


def checkpoint_from_payload(payload: object) -> "WalkCheckpoint":
    """Unwrap (and version-check) a :func:`checkpoint_payload` envelope."""
    if not isinstance(payload, dict) or "checkpoint" not in payload:
        raise ValueError("not a checkpoint envelope (missing 'checkpoint')")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint format version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    checkpoint = payload["checkpoint"]
    if not isinstance(checkpoint, WalkCheckpoint):
        raise ValueError(
            f"checkpoint envelope holds {type(checkpoint).__name__}, "
            "expected WalkCheckpoint"
        )
    return checkpoint


@dataclass
class WalkCheckpoint:
    """A resumable annealing walk, frozen between two steps.

    Everything a walk needs to continue lives here — the current and
    best states, their costs, the RNG state and the running statistics
    — so a walk can be paused, pickled across a process boundary and
    resumed elsewhere (``repro.parallel`` rebuilds the engine from the
    job spec and hands the checkpoint back to
    :meth:`IncrementalAnnealer.advance`).  Chunked execution is
    bit-identical to one monolithic :meth:`IncrementalAnnealer.run`:
    the checkpoint carries the exact RNG state and costs forward, so
    chunk boundaries never change a trajectory.
    """

    #: next step index to execute (0-based; ``total_steps`` when done)
    step: int
    #: schedule length this walk was started under
    total_steps: int
    #: warmup rescale applied to every schedule temperature
    t_scale: float
    #: engine snapshot of the *current* state
    state: object
    current_cost: float
    best_state: object
    best_cost: float
    #: ``random.Random.getstate()`` as of ``step``
    rng_state: object
    stats: AnnealingStats

    @property
    def finished(self) -> bool:
        return self.step >= self.total_steps


class Annealer(Generic[State]):
    """Simulated annealing over an arbitrary state space.

    Parameters
    ----------
    cost:
        State → non-negative cost; lower is better.
    moves:
        Neighbor generator.
    schedule:
        Cooling schedule; its initial temperature is rescaled from
        sampled uphill deltas (the warmup).
    rng:
        Source of randomness (callers pass a seeded instance for
        reproducibility).
    """

    def __init__(
        self,
        cost: Callable[[State], float],
        moves: MoveSet[State],
        schedule: CoolingSchedule | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self._cost = cost
        self._moves = moves
        self._schedule = schedule or GeometricSchedule()
        self._rng = rng or random.Random(0)

    def run(self, initial: State) -> AnnealingResult[State]:
        """Anneal from ``initial`` until the schedule is exhausted."""
        rng = self._rng
        current = initial
        current_cost = self._cost(current)
        best, best_cost = current, current_cost

        stats = AnnealingStats(initial_cost=current_cost, best_cost=current_cost)

        t_scale = self._warmup_scale(initial, current_cost)

        # Hot loop: hoist every attribute lookup that is invariant per
        # step; bookkeeping that only the final value of matters
        # (final_temperature) is folded out of the loop.
        temperature_at = self._schedule.temperature
        propose = self._moves.propose
        cost_of = self._cost
        random_unit = rng.random
        exp = math.exp
        temperature = 0.0

        total = self._schedule.total_steps
        for step in range(total):
            temperature = temperature_at(step) * t_scale
            candidate = propose(current, rng)
            candidate_cost = cost_of(candidate)
            delta = candidate_cost - current_cost

            if delta <= 0 or random_unit() < exp(-delta / max(temperature, 1e-300)):
                current, current_cost = candidate, candidate_cost
                stats.accepted += 1
                if current_cost < best_cost:
                    best, best_cost = current, current_cost
                    stats.improved += 1

        stats.steps = total
        if total:
            stats.final_temperature = temperature
        stats.best_cost = best_cost
        return AnnealingResult(best_state=best, best_cost=best_cost, stats=stats)

    def _warmup_scale(self, initial: State, initial_cost: float, samples: int = 32) -> float:
        """Rescale the schedule's T0 from sampled uphill move deltas."""
        deltas = []
        state, cost = initial, initial_cost
        for _ in range(samples):
            nxt = self._moves.propose(state, self._rng)
            nxt_cost = self._cost(nxt)
            deltas.append(nxt_cost - cost)
            state, cost = nxt, nxt_cost
        t0 = initial_temperature_from_samples(deltas)
        base_t0 = self._schedule.temperature(0)
        if base_t0 <= 0:
            return 1.0
        return t0 / base_t0


class IncrementalEngine(Protocol):
    """Mutable annealing state with propose/commit/rollback semantics.

    An engine owns the *current* state.  ``propose`` applies one random
    perturbation in place and returns the candidate cost (typically via
    an incremental evaluation that touches only what the move changed).
    Exactly one of ``commit`` / ``rollback`` follows every ``propose``:
    ``commit`` keeps the perturbation (O(1) — the mutation already
    happened), ``rollback`` restores exactly the entries the proposal
    overwrote.  ``snapshot`` returns an immutable copy of the current
    state for best-state tracking.
    """

    def initial_cost(self) -> float:
        """Cost of the current (initial) state."""
        ...

    def reset(self, state: object) -> float:
        """Adopt ``state`` as the current state; return its cost.

        Used by the annealer to restore the pre-warmup state (the
        warmup walk samples uphill deltas and is then discarded, exactly
        like the functional loop's)."""
        ...

    def propose(self, rng: random.Random) -> float:
        """Apply a random perturbation in place; return the candidate cost."""
        ...

    def commit(self) -> None:
        """Accept the pending perturbation."""
        ...

    def rollback(self) -> None:
        """Undo the pending perturbation, restoring the previous state."""
        ...

    def snapshot(self) -> object:
        """An immutable copy of the current state (for best tracking)."""
        ...


class StateEngine(Generic[State]):
    """Adapter: a functional ``MoveSet`` + cost as an incremental engine.

    ``propose`` builds a candidate state through the move set (the input
    state is never mutated), so ``rollback`` is O(1) — the candidate is
    simply dropped — and ``commit`` swaps one reference.  Used by placers
    whose packing is not (yet) incremental; it consumes randomness
    exactly like :class:`Annealer` over the same move set, keeping
    trajectories identical.
    """

    def __init__(self, cost: Callable[[State], float], moves: MoveSet[State], initial: State) -> None:
        self._cost_fn = cost
        self._moves = moves
        self._current = initial
        self._candidate: State | None = None

    @property
    def current(self) -> State:
        return self._current

    def initial_cost(self) -> float:
        return self._cost_fn(self._current)

    def reset(self, state: State) -> float:
        self._current = state
        self._candidate = None
        return self._cost_fn(state)

    def propose(self, rng: random.Random) -> float:
        self._candidate = self._moves.propose(self._current, rng)
        return self._cost_fn(self._candidate)

    def commit(self) -> None:
        self._current = self._candidate
        self._candidate = None

    def rollback(self) -> None:
        self._candidate = None

    def snapshot(self) -> State:
        return self._current


class IncrementalAnnealer:
    """Simulated annealing over an :class:`IncrementalEngine`.

    Drives the same accept/reject schedule as :class:`Annealer`, but the
    state lives inside the engine: every step is ``propose`` followed by
    ``commit`` (accepted) or ``rollback`` (rejected), with no state
    copies anywhere in the loop.  Randomness is consumed exactly like
    :class:`Annealer` (engine draws, then one acceptance draw for uphill
    moves), so an engine mirroring a move set's draws reproduces the
    functional trajectory bit for bit.
    """

    def __init__(
        self,
        engine: IncrementalEngine,
        schedule: CoolingSchedule | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self._engine = engine
        self._schedule = schedule or GeometricSchedule()
        self._rng = rng or random.Random(0)
        self._recorder = NULL_RECORDER

    def set_recorder(self, recorder) -> None:
        """Attach a telemetry recorder (``None`` detaches).

        Observation only: probes read values the loop already computed
        and never touch the rng, so a traced walk is byte-identical to
        an untraced one.  When the engine supports batch-side stats
        collection (``collect_stats``), it is flipped to match the
        recorder so untraced runs skip that bookkeeping entirely.
        """
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        engine = self._engine
        if hasattr(engine, "collect_stats"):
            engine.collect_stats = self._recorder.enabled

    def run(self, initial_cost: float | None = None) -> AnnealingResult:
        """Anneal the engine's current state until the schedule ends."""
        checkpoint = self.begin(initial_cost)
        # the engine already holds the post-warmup state: no reset needed
        checkpoint = self.advance(checkpoint, _engine_synced=True)
        return AnnealingResult(
            best_state=checkpoint.best_state,
            best_cost=checkpoint.best_cost,
            stats=checkpoint.stats,
        )

    def begin(self, initial_cost: float | None = None) -> WalkCheckpoint:
        """Warm up and freeze the walk at step 0 without annealing.

        The engine must already hold its initial state.  Returns the
        checkpoint :meth:`advance` resumes from; a full ``begin`` +
        ``advance`` chain reproduces :meth:`run` bit for bit however
        the steps are chunked.
        """
        engine = self._engine
        current_cost = (
            initial_cost if initial_cost is not None else engine.initial_cost()
        )
        stats = AnnealingStats(initial_cost=current_cost, best_cost=current_cost)

        start = engine.snapshot()
        # Sample uphill deltas by walking random moves, then restore
        # the starting state — the functional loop's warmup also
        # rescales T0 from a discarded walk, and matching it keeps
        # trajectories identical across the two drivers.
        t_scale = self._warmup(current_cost)
        current_cost = engine.reset(start)

        return WalkCheckpoint(
            step=0,
            total_steps=self._schedule.total_steps,
            t_scale=t_scale,
            state=start,
            current_cost=current_cost,
            best_state=start,
            best_cost=current_cost,
            rng_state=self._rng.getstate(),
            stats=stats,
        )

    def advance(
        self,
        checkpoint: WalkCheckpoint,
        max_steps: int | None = None,
        *,
        _engine_synced: bool = False,
    ) -> WalkCheckpoint:
        """Run up to ``max_steps`` annealing steps from ``checkpoint``.

        Restores the engine and RNG to exactly where the checkpoint
        froze them, so resuming — in this process or another — continues
        the identical trajectory.  Returns a fresh checkpoint (the input
        is never mutated); call again until :attr:`WalkCheckpoint.finished`.
        """
        if self._schedule.total_steps != checkpoint.total_steps:
            raise ValueError(
                f"schedule spans {self._schedule.total_steps} steps but the "
                f"checkpoint was taken under {checkpoint.total_steps}"
            )
        total = checkpoint.total_steps
        start = checkpoint.step
        stop = total if max_steps is None else min(total, start + max_steps)
        if start >= stop:
            return checkpoint

        rng = self._rng
        engine = self._engine
        if not _engine_synced:
            # reset recomputes the cost from scratch; it is bit-identical
            # to the carried current_cost (the perf-tier invariant), which
            # is what the monolithic loop propagates — so propagate that.
            engine.reset(checkpoint.state)
        rng.setstate(checkpoint.rng_state)

        current_cost = checkpoint.current_cost
        best, best_cost = checkpoint.best_state, checkpoint.best_cost
        stats = replace(checkpoint.stats)

        propose = engine.propose
        commit = engine.commit
        rollback = engine.rollback
        random_unit = rng.random
        exp = math.exp
        temperature = 0.0

        # telemetry: every per-step check is hoisted into `collecting`
        # (one falsy test per step when disabled); probes only read
        # values the loop already computed — never the rng
        recorder = self._recorder
        collecting = recorder.enabled
        sample = recorder.sample_interval if collecting else 0
        if collecting:
            track_moves = hasattr(engine, "last_move")
            fam_proposed: dict[str, int] = {}
            fam_accepted: dict[str, int] = {}
            repack_hist: dict[int, int] = {}

        # the schedule is stateless: materialize the chunk's temperature
        # curve once (same floats as calling temperature(step) in the loop)
        temperature_at = self._schedule.temperature
        t_scale = checkpoint.t_scale
        temperatures = [temperature_at(step) * t_scale for step in range(start, stop)]
        for step in range(start, stop):
            temperature = temperatures[step - start]
            candidate_cost = propose(rng)
            delta = candidate_cost - current_cost

            if delta <= 0 or random_unit() < exp(-delta / max(temperature, 1e-300)):
                commit()
                current_cost = candidate_cost
                stats.accepted += 1
                took = True
                if current_cost < best_cost:
                    best_cost = current_cost
                    best = engine.snapshot()
                    stats.improved += 1
            else:
                rollback()
                took = False
            if collecting:
                if track_moves:
                    kind = engine.last_move
                    fam_proposed[kind] = fam_proposed.get(kind, 0) + 1
                    if took:
                        fam_accepted[kind] = fam_accepted.get(kind, 0) + 1
                    length = engine.last_repack_len
                    if length:
                        bucket = length.bit_length()
                        repack_hist[bucket] = repack_hist.get(bucket, 0) + 1
                if sample and step % sample == 0:
                    recorder.event(
                        "anneal.sample",
                        step=step,
                        temperature=temperature,
                        cost=current_cost,
                        best=best_cost,
                        accepted=stats.accepted,
                    )

        stats.steps = stop
        stats.final_temperature = temperature
        stats.best_cost = best_cost
        if collecting:
            self._emit_chunk_summary(
                start, stop, temperature, current_cost, best_cost, stats,
                fam_proposed, fam_accepted, repack_hist,
            )
        return WalkCheckpoint(
            step=stop,
            total_steps=total,
            t_scale=t_scale,
            state=engine.snapshot(),
            current_cost=current_cost,
            best_state=best,
            best_cost=best_cost,
            rng_state=rng.getstate(),
            stats=stats,
        )

    def _emit_chunk_summary(
        self,
        start: int,
        stop: int,
        temperature: float,
        current_cost: float,
        best_cost: float,
        stats: AnnealingStats,
        fam_proposed: dict[str, int],
        fam_accepted: dict[str, int],
        repack_hist: dict[int, int],
    ) -> None:
        """One ``anneal.chunk`` event closing an :meth:`advance` call.

        Carries the chunk's move-family accept table, the dirty-suffix
        repack-length histogram (power-of-two buckets keyed by bucket
        floor) and — when the engine can produce one without a pending
        proposal — the per-term cost breakdown of the final state.  All
        fields are deterministic; the full rescan behind the breakdown
        runs once per chunk, never per step.
        """
        fields: dict = {
            "step_start": start,
            "step_end": stop,
            "accepted": stats.accepted,
            "improved": stats.improved,
            "cost": current_cost,
            "best": best_cost,
            "temperature": temperature,
            "families": {
                kind: [count, fam_accepted.get(kind, 0)]
                for kind, count in fam_proposed.items()
            },
            "repack_hist": {
                str(1 << (bucket - 1)): count
                for bucket, count in repack_hist.items()
            },
        }
        breakdown = getattr(self._engine, "cost_breakdown", None)
        if breakdown is not None:
            fields["terms"] = breakdown()
        self._recorder.event("anneal.chunk", **fields)

    def _warmup(self, initial_cost: float, samples: int = 32) -> float:
        """Sample uphill deltas by walking (and committing) random moves.

        Mirrors :meth:`Annealer._warmup_scale`: every sampled move is
        taken.  The caller restores the starting state afterwards.
        """
        engine = self._engine
        deltas = []
        cost = initial_cost
        for _ in range(samples):
            nxt_cost = engine.propose(self._rng)
            deltas.append(nxt_cost - cost)
            engine.commit()
            cost = nxt_cost
        t0 = initial_temperature_from_samples(deltas)
        base_t0 = self._schedule.temperature(0)
        if base_t0 <= 0:
            return 1.0
        return t0 / base_t0


class WeightedMoveSet(Generic[State]):
    """Combine several move generators with selection weights."""

    def __init__(self, moves: list[tuple[float, MoveSet[State]]]) -> None:
        if not moves:
            raise ValueError("need at least one move generator")
        weights = [w for w, _ in moves]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        self._moves = moves
        self._weights = weights
        self._generators = [m for _, m in moves]

    def propose(self, state: State, rng: random.Random) -> State:
        (chosen,) = rng.choices(self._generators, weights=self._weights, k=1)
        return chosen.propose(state, rng)


class FunctionMoveSet(Generic[State]):
    """Adapter turning a plain function into a :class:`MoveSet`."""

    def __init__(self, fn: Callable[[State, random.Random], State]) -> None:
        self._fn = fn

    def propose(self, state: State, rng: random.Random) -> State:
        return self._fn(state, rng)
