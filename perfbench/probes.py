"""Per-layer probes, installed from outside the program.

The benchmark adds nothing under ``src/``: it measures a layer by
swapping that layer's public functions for timing wrappers at run time
(class attributes and module globals) and restoring them afterwards.
Wrappers must be installed *before* a placer is built, because two
places bind callables early: ``CostEvaluator`` pre-binds
``CostModel.evaluate`` and ``DeltaHPWL.propose`` when it is constructed,
and ``IncrementalAnnealer.advance`` hoists ``engine.propose`` /
``commit`` / ``rollback`` when it starts.

Per-step calls are recorded as a call count plus total seconds; coarse
phases (resolve, build, reset, begin, advance, finalize, score, run)
are recorded as spans with a parent.  Everything stays in memory until
:meth:`Ledger.write` runs at exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter


class Ledger:
    """In-memory call timings, exact work tallies and coarse spans."""

    def __init__(self) -> None:
        #: probe name -> [calls, seconds]
        self.calls: dict[str, list] = {}
        #: tally name -> summed work count (modules moved, batch widths, ...)
        self.tally: dict[str, int] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **labels):
        parent = self._open[-1] if self._open else None
        record = {"name": name, "parent": parent, "start": clock(), "end": None}
        record.update(labels)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = clock()
            self._open.pop()

    def add(self, name: str, amount: int = 1) -> None:
        self.tally[name] = self.tally.get(name, 0) + amount

    def mark(self) -> tuple[dict, dict]:
        """A point to measure call and tally deltas from (see :meth:`since`)."""
        return {k: tuple(v) for k, v in self.calls.items()}, dict(self.tally)

    def since(self, mark: tuple[dict, dict]) -> tuple[dict, dict]:
        """``(calls, tally)`` accumulated after ``mark``; calls map a probe
        name to ``(count, seconds)``."""
        calls0, tally0 = mark
        calls = {}
        for name, (n, s) in self.calls.items():
            n0, s0 = calls0.get(name, (0, 0.0))
            if n > n0:
                calls[name] = (n - n0, s - s0)
        tally = {k: v - tally0.get(k, 0) for k, v in self.tally.items()}
        return calls, tally

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def write(self, path: Path) -> None:
        base = self.spans[0]["start"] if self.spans else 0.0
        spans = [
            dict(s, start=s["start"] - base, end=s["end"] - base, self_s=own)
            for s, own in zip(self.spans, self.self_times())
        ]
        document = {
            "spans": spans,
            "calls": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.calls.items()},
            "tally": self.tally,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


class NoSpans:
    """Span sink of untraced runs: enters and exits for free."""

    @contextmanager
    def span(self, name: str, **labels):
        yield None


def _timed(ledger: Ledger, name: str, fn, after=None):
    slot = ledger.calls.setdefault(name, [0, 0.0])
    if after is None:
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            slot[1] += clock() - t0
            slot[0] += 1
            return out
    else:
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            slot[1] += clock() - t0
            slot[0] += 1
            after(args, out)
            return out
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def installed(ledger: Ledger):
    """Wrap every probed public call for the duration of the block."""
    import repro.bstar.hb_tree as hb_tree
    import repro.cost.model as cost_model
    import repro.cost.terms as cost_terms
    import repro.perf.coords as coords
    from repro.bstar import BStarPlacer, HierarchicalPlacer
    from repro.bstar.hb_tree import HBIncrementalEngine, HBStarTreePlacement
    from repro.bstar.perturb import InPlaceBStarMoves, WindowedBStarMoves
    from repro.cost import CostEvaluator, CostModel
    from repro.perf import BatchCostEvaluator, IncrementalBStarEngine, VectorBStarEngine

    add = ledger.add

    def flat_proposed(args, cost):
        # last_repack_len is 0 exactly for noop and size-neutral moves
        length = args[0].last_repack_len
        add("repack.len", length)
        add("proposals")
        if not length:
            add("wasted")

    def level_proposed(args, out):
        add("proposals")
        if out[1] is None:
            add("wasted")

    def batch_proposed(args, costs):
        engine, k = args[0], args[2]
        add("batch.width", k)
        add("proposals", k)
        lens = engine.last_repack_lens
        add("repack.len", sum(lens))
        add("wasted", sum(1 for length in lens if not length))

    def cost_proposed(args, cost):
        moved = args[2] if len(args) > 2 else None
        if moved is not None:
            add("cost.moved", len(moved))

    patches = []

    def patch(owner, attr, name, after=None):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, _timed(ledger, name, original, after))

    try:
        patch(IncrementalBStarEngine, "propose", "engine.propose", flat_proposed)
        patch(IncrementalBStarEngine, "commit", "engine.commit")
        patch(IncrementalBStarEngine, "rollback", "engine.rollback")
        patch(IncrementalBStarEngine, "snapshot", "engine.snapshot")
        patch(HBIncrementalEngine, "propose", "engine.propose")
        patch(HBIncrementalEngine, "commit", "engine.commit")
        patch(HBIncrementalEngine, "rollback", "engine.rollback")
        patch(HBIncrementalEngine, "snapshot", "engine.snapshot")
        patch(VectorBStarEngine, "propose_batch", "engine.propose", batch_proposed)
        patch(VectorBStarEngine, "accept", "engine.commit")
        patch(VectorBStarEngine, "reject_all", "engine.rollback")
        patch(VectorBStarEngine, "snapshot", "engine.snapshot")
        patch(InPlaceBStarMoves, "apply", "move.draw")
        patch(WindowedBStarMoves, "apply_windowed", "move.draw")
        patch(HBStarTreePlacement, "propose_level", "move.draw", level_proposed)
        patch(HBStarTreePlacement, "pack_level_coords", "pack.level")
        patch(CostEvaluator, "propose", "cost.propose", cost_proposed)
        patch(BatchCostEvaluator, "totals", "cost.batch")
        for module in (coords, hb_tree, cost_model):
            patch(module, "bounding_of", "bounding_of")
        patch(cost_terms, "rects_connected", "cost.proximity")
        patch(CostModel, "evaluate_placement", "score.ref")
        patch(BStarPlacer, "finalize", "placer.finalize")
        patch(HierarchicalPlacer, "finalize", "placer.finalize")
        yield ledger
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
