"""Batched multi-candidate annealing (the vector tier's driver).

:class:`BatchedAnnealer` drives a *batch engine* — an
:class:`~repro.anneal.IncrementalEngine` extended with::

    propose_batch(rng, k) -> list[float]   # k candidates, one committed base
    accept(j)                              # keep candidate j, drop the rest
    reject_all()                           # drop the whole batch, O(1)

Each kernel call proposes K candidate moves off the same committed
state and scores them (see :class:`repro.perf.vector.VectorBStarEngine`);
the driver then scans the batch in order and Metropolis-tests each
candidate exactly as the scalar loop would: candidate ``j`` is judged at the temperature of
schedule step ``step + j``, downhill moves accept outright, uphill
moves take one acceptance draw.  The **first acceptance wins** — the
remaining candidates are discarded untested, because accepting changes
the base state they were proposed from.  A tile therefore consumes
``j + 1`` schedule steps when candidate ``j`` accepts (all K when none
does), which keeps the step accounting, temperature curve, acceptance
counters and sampled costs aligned with the scalar drivers' semantics.

The batch width adapts to the measured acceptance ratio: near-certain
acceptance makes batching pure waste (only candidate 0 ever survives),
so K tracks the expected number of trials per acceptance, clamped to
``batch_max``.  A second candidate therefore needs the walk's
acceptance so far to fall below about 1/3
(``(step + 2) // (accepted + 1) >= 3``), and none of the measured
walks got there: perfbench's ``vector`` walk and full-schedule vector
walks on ``gen:n=200``, ``300`` and ``1000`` (walk seed 3) all ran one
candidate per tile, ending at 55%, 38% and 69% acceptance.  The width is derived *only* from checkpoint-carried
state (step count and acceptance count), never from wall-clock or
loop-local history — so chunked ``advance`` calls replay the identical
tile sequence and remain bit-identical to one monolithic run, the same
contract :class:`~repro.anneal.IncrementalAnnealer` keeps.  One wrinkle
from tiling: a tile that straddles ``max_steps`` runs to its own end,
so a chunk may overshoot its nominal boundary by up to K-1 steps; the
returned checkpoint records the true step and the next chunk picks up
from there (an already-passed boundary is a no-op, as in the base
class).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import Protocol

from .annealer import IncrementalAnnealer, WalkCheckpoint
from .schedule import CoolingSchedule


class BatchEngine(Protocol):
    """The batch extension of :class:`~repro.anneal.IncrementalEngine`."""

    def propose_batch(self, rng: random.Random, k: int) -> list[float]:
        """Propose ``k`` candidates off the committed state; return costs."""
        ...

    def accept(self, j: int) -> None:
        """Keep candidate ``j`` (and discard the others)."""
        ...

    def reject_all(self) -> None:
        """Discard the whole batch; committed state is unchanged."""
        ...

    def snapshot(self) -> object:
        """An immutable copy of the committed state, which only
        :meth:`accept` changes (a candidate still pending from
        :meth:`propose_batch` is not part of it)."""
        ...


class BatchedAnnealer(IncrementalAnnealer):
    """Anneal a :class:`BatchEngine` K candidates at a time.

    Drop-in replacement for :class:`~repro.anneal.IncrementalAnnealer`
    (same ``begin`` / ``advance`` / ``run`` surface, same checkpoint
    format, warmup runs through the engine's scalar protocol), but the
    annealing loop is tiled: one ``propose_batch`` call per tile,
    first-acceptance-wins.

    The best state is copied lazily.  After an improving accept it *is*
    the engine's committed state, which stays untouched until the next
    accept, so :meth:`BatchEngine.snapshot` runs only just before a
    non-improving accept leaves it, and a chunk that ends on it takes
    one snapshot for both the current and the best state.
    """

    def __init__(
        self,
        engine: BatchEngine,
        schedule: CoolingSchedule | None = None,
        rng: random.Random | None = None,
        *,
        batch_max: int = 16,
    ) -> None:
        super().__init__(engine, schedule, rng)
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self._batch_max = batch_max

    def advance(
        self,
        checkpoint: WalkCheckpoint,
        max_steps: int | None = None,
        *,
        _engine_synced: bool = False,
    ) -> WalkCheckpoint:
        """Run annealing tiles from ``checkpoint`` until ``stop``.

        The last tile may overshoot ``stop`` (never ``total_steps``);
        see the module docstring for why that preserves bit-identity
        across chunk boundaries.
        """
        if self._schedule.total_steps != checkpoint.total_steps:
            raise ValueError(
                f"schedule spans {self._schedule.total_steps} steps but the "
                f"checkpoint was taken under {checkpoint.total_steps}"
            )
        total = checkpoint.total_steps
        step = checkpoint.step
        start = step
        stop = total if max_steps is None else min(total, step + max_steps)
        if step >= stop:
            return checkpoint

        rng = self._rng
        engine = self._engine
        if not _engine_synced:
            engine.reset(checkpoint.state)
        rng.setstate(checkpoint.rng_state)

        current_cost = checkpoint.current_cost
        best, best_cost = checkpoint.best_state, checkpoint.best_cost
        best_is_current = False
        stats = replace(checkpoint.stats)

        propose_batch = engine.propose_batch
        accept = engine.accept
        reject_all = engine.reject_all
        random_unit = rng.random
        exp = math.exp
        batch_max = self._batch_max
        temperature_at = self._schedule.temperature
        t_scale = checkpoint.t_scale
        temperature = 0.0

        # telemetry (see the base class): one falsy check per tile when
        # disabled; the engine publishes per-candidate families only
        # while its `collect_stats` flag is up (set_recorder flips it)
        recorder = self._recorder
        collecting = recorder.enabled
        sample = recorder.sample_interval if collecting else 0
        if collecting:
            track_moves = hasattr(engine, "last_kinds")
            fam_proposed: dict[str, int] = {}
            fam_accepted: dict[str, int] = {}
            repack_hist: dict[int, int] = {}

        while step < stop:
            # expected trials per acceptance so far (checkpoint-carried
            # counters only: chunked replays see identical widths)
            width = (step + 2) // (stats.accepted + 1) - 1
            if width < 1:
                width = 1
            elif width > batch_max:
                width = batch_max
            if width > total - step:
                width = total - step
            costs = propose_batch(rng, width)

            consumed = width
            accepted_at = -1
            prev_cost = current_cost
            for j in range(width):
                temperature = temperature_at(step + j) * t_scale
                delta = costs[j] - current_cost
                if delta <= 0 or random_unit() < exp(
                    -delta / max(temperature, 1e-300)
                ):
                    accepted_at = j
                    consumed = j + 1
                    break
            if accepted_at >= 0:
                current_cost = costs[accepted_at]
                improved = current_cost < best_cost
                if best_is_current and not improved:
                    best = engine.snapshot()
                    best_is_current = False
                accept(accepted_at)
                stats.accepted += 1
                if improved:
                    best_cost = current_cost
                    best_is_current = True
                    stats.improved += 1
            else:
                reject_all()
            if collecting:
                if track_moves:
                    kinds = engine.last_kinds
                    lens = engine.last_repack_lens
                    for j in range(consumed):
                        kind = kinds[j]
                        fam_proposed[kind] = fam_proposed.get(kind, 0) + 1
                        length = lens[j]
                        if length:
                            bucket = length.bit_length()
                            repack_hist[bucket] = repack_hist.get(bucket, 0) + 1
                    if accepted_at >= 0:
                        kind = kinds[accepted_at]
                        fam_accepted[kind] = fam_accepted.get(kind, 0) + 1
                if sample:
                    for i in range(consumed):
                        if (step + i) % sample == 0:
                            recorder.event(
                                "anneal.sample",
                                step=step + i,
                                temperature=temperature_at(step + i) * t_scale,
                                cost=prev_cost if i < consumed - 1 else current_cost,
                                best=best_cost,
                                accepted=stats.accepted,
                            )
            step += consumed

        stats.steps = step
        stats.final_temperature = temperature
        stats.best_cost = best_cost
        if collecting:
            self._emit_chunk_summary(
                start, step, temperature, current_cost, best_cost, stats,
                fam_proposed, fam_accepted, repack_hist,
            )
        state = engine.snapshot()
        return WalkCheckpoint(
            step=step,
            total_steps=total,
            t_scale=t_scale,
            state=state,
            current_cost=current_cost,
            best_state=state if best_is_current else best,
            best_cost=best_cost,
            rng_state=rng.getstate(),
            stats=stats,
        )
