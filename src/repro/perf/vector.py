"""The vector tier: windowed multi-scale walks, batched candidates.

Two pieces
==========

:class:`VectorBStarEngine`
    The flat B*-tree engine of the vector tier.  It runs
    :class:`~repro.perf.incremental.FlatBStarEngine`'s in-place step —
    dirty-suffix repack into the live table, scored by the kernel
    model's delta-capable :class:`~repro.cost.CostEvaluator` — exactly
    as :class:`~repro.perf.IncrementalBStarEngine` does; only its draw
    differs.  Moves are *windowed*
    (:class:`~repro.bstar.perturb.WindowedBStarMoves`): each candidate
    draws a log-uniform suffix length, so the expected repack cost is
    ``O(n / ln n)`` instead of ``O(n)`` while long-range moves are
    still sampled.  On top of the scalar protocol it speaks the batch
    protocol of :class:`repro.anneal.BatchedAnnealer`:
    ``propose_batch(rng, k)`` applies, repacks and scores ``k``
    candidates off the committed state one after another, rolling each
    back once scored except the last, which stays pending;
    ``accept(j)`` commits that last one, or rolls it back and replays
    candidate ``j``'s recorded choices (via the ``*_named`` helpers of
    :class:`~repro.bstar.perturb.InPlaceBStarMoves`); ``reject_all``
    rolls it back.  A one-candidate step therefore repacks once.  On
    designs of ``DeltaHPWL``'s ``batch_min_nets`` nets or more the
    wirelength delta runs on maintained numpy arrays (see
    :class:`~repro.cost.DeltaHPWL`).

:class:`BatchCostEvaluator`
    Vectorized per-term evaluation of ``K`` candidates at once behind
    the :class:`~repro.cost.CostModel` protocol: per-net HPWL over
    ``(K, n)`` centre arrays by :func:`repro.cost.hpwl.batch_net_hpwl`
    (degree-class pin tables), then the model's own
    ``evaluate(coords, hpwl=..., bounding=...)``, so totals are
    byte-identical to the scalar path (``np.cumsum`` row sums in net
    order reproduce the sequential float additions exactly).  The walk
    no longer uses it; it stays as a tested batch evaluator and a
    benchmark reference.

The scalar oracle
    The engine built with ``evaluator="scalar"`` replays identical
    draws but scores every candidate through a full
    ``CostModel.evaluate`` of the live table.  Delta and full
    evaluation are bit-identical, so a vector walk and its
    scalar-oracle twin agree on every candidate cost and every best
    cost — the A/B discipline the bench (``benchmarks/bench_vector.py``)
    and the equivalence suite assert with ``==``, no tolerances.

Bit-identity boundary: within a walk, vector vs scalar-oracle costs
are exact.  Vector-tier walks are *not* draw-compatible with the
global-move :class:`IncrementalBStarEngine` (windowed draws are a
different, equally-distributed family), so cross-tier comparisons pin
placement *quality* (the sweep matrix), not trajectories.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..circuit import ProximityGroup
from ..cost.hpwl import batch_net_hpwl, pin_index_tables
from ..cost.terms import (
    AreaTerm,
    AspectTerm,
    HPWLTerm,
    OutlineTerm,
    ProximityTerm,
)
from ..geometry import ModuleSet, Net
from .incremental import FlatBStarEngine
from .kernel import BStarKernel

if TYPE_CHECKING:  # pragma: no cover
    from ..bstar.perturb import BStarState
    from ..cost.model import CostModel

#: exponent applied to the uniform draw behind each candidate's
#: log-uniform window size: >1 biases toward short (cheap) windows
#: while keeping the full multi-scale range reachable.  2.5 measured
#: best on the steps/s-vs-quality frontier at n=1000 (see docs/perf.md)
_WINDOW_BIAS = 2.5

#: smallest suffix a windowed move draws: the window length is
#: log-uniform in ``[_WINDOW_MIN, n]``
_WINDOW_MIN = 8

#: term classes the vectorized pass can feed (everything else —
#: e.g. the boundary-tier ViolationTerm — needs inputs the hot loop
#: cannot provide, exactly as in the scalar engines)
_SUPPORTED_TERMS = (AreaTerm, HPWLTerm, AspectTerm, OutlineTerm, ProximityTerm)


class BatchCostEvaluator:
    """Batched, vectorized evaluation behind the ``CostModel`` protocol.

    Construct once from the model and the (row-ordered) module names;
    call :meth:`totals` with ``(K, n)`` center arrays and K
    bounding boxes.  Wirelength — the only O(n) term — is vectorized
    across the whole batch; every other term is O(1) per candidate and
    runs through the model's own ``accumulate`` chain, which is what
    makes totals byte-identical to :meth:`CostModel.evaluate`.
    """

    _EMPTY: dict = {}

    def __init__(self, model: CostModel, names: Sequence[str]) -> None:
        reason = self.unsupported_reason(model)
        if reason:
            raise ValueError(f"model not vectorizable: {reason}")
        self._model = model
        self._names = tuple(names)
        term = model.hpwl_term
        self._wl_active = term is not None and term.active
        resolved = term.resolved if term is not None else []
        self._n_nets = len(resolved)
        self._tables = pin_index_tables(resolved, self._names)

    @staticmethod
    def unsupported_reason(model: CostModel) -> str | None:
        """Why this evaluator cannot score ``model`` (or ``None``)."""
        for term in model.terms:
            if not isinstance(term, _SUPPORTED_TERMS):
                return (
                    f"term {term.name!r} ({type(term).__name__}) has no "
                    "vectorized path (boundary-tier terms never run in "
                    "annealing hot loops)"
                )
            if isinstance(term, ProximityTerm) and term.groups and term.active:
                return (
                    "active proximity groups have no array form (the "
                    "delta path of CostEvaluator serves them)"
                )
        return None

    def batch_hpwl(self, cx, cy):
        """Weighted HPWL of K candidates; ``(K, n)`` centers -> ``(K,)``.

        Per-net values are IEEE-identical to the scalar per-net path and
        the row sum (``cumsum``) replicates the left-to-right float
        accumulation of :func:`~repro.geometry.ordered_sum` exactly.
        """
        vals = np.empty((cx.shape[0], self._n_nets), dtype=np.float64)
        batch_net_hpwl(self._tables, cx, cy, vals)
        return vals.cumsum(axis=1)[:, -1]

    def totals(
        self,
        cx,
        cy,
        boundings: Sequence[tuple[float, float, float, float]],
    ) -> list[float]:
        """Total cost per candidate, in the model's own term order."""
        k = cx.shape[0]
        if self._n_nets and self._wl_active:
            hpwls = self.batch_hpwl(cx, cy).tolist()
        elif self._wl_active:
            # active term over zero resolved nets: the delta path feeds
            # the scalar evaluator an empty sum (0) — match it exactly
            hpwls = [0.0] * k
        else:
            hpwls = [None] * k
        evaluate = self._model.evaluate
        empty = self._EMPTY
        return [evaluate(empty, hpwls[j], boundings[j]) for j in range(k)]


class _FullRescan:
    """The scalar oracle's evaluator: a full ``CostModel.evaluate`` of
    the live table at every proposal (same surface as
    :class:`~repro.cost.CostEvaluator`, nothing cached)."""

    def __init__(self, model: CostModel) -> None:
        self._evaluate = model.evaluate

    def reset(self, coords, *, bounding=None) -> float:
        return self._evaluate(coords, bounding=bounding)

    def propose(self, coords, moved=None, bounding=None) -> float:
        return self._evaluate(coords, bounding=bounding)

    def commit(self) -> None:
        pass

    def rollback(self) -> None:
        pass


class VectorBStarEngine(FlatBStarEngine):
    """Windowed multi-scale B*-tree engine (vector tier).

    Implements the :class:`repro.anneal.IncrementalEngine` protocol
    *plus* the batch extension driven by
    :class:`repro.anneal.BatchedAnnealer`, on :class:`FlatBStarEngine`'s
    in-place step; only its draw differs from
    :class:`~repro.perf.IncrementalBStarEngine`'s:

    * :meth:`propose_batch` — K windowed candidates off the committed
      state, each applied, repacked and scored in place; every one but
      the last is rolled back once scored, the last stays pending;
    * :meth:`accept` — keep candidate ``j``: commit the pending last
      one, or roll it back and replay ``j``'s recorded choices;
    * :meth:`reject_all` — roll back the pending candidate.

    ``evaluator="scalar"`` builds the bit-identity oracle twin: same
    draws, every candidate scored through a full scalar
    ``CostModel.evaluate`` of the live table.

    Telemetry capability: when :attr:`collect_stats` is set (the
    annealer flips it on recorder attach), :meth:`propose_batch` also
    publishes :attr:`last_kinds` / :attr:`last_repack_lens` — one
    move-family name and repacked-suffix length per candidate.  Off by
    default so untraced runs skip the per-batch tuple builds.
    """

    _MOVES = "WindowedBStarMoves"

    #: set by the annealer when a recorder is attached
    collect_stats = False
    #: per-candidate move families of the most recent batch
    last_kinds: tuple[str, ...] = ()
    #: per-candidate repacked-suffix lengths of the most recent batch
    last_repack_lens: tuple[int, ...] = ()

    def __init__(
        self,
        modules: ModuleSet,
        nets: tuple[Net, ...] = (),
        proximity: tuple[ProximityGroup, ...] = (),
        config=None,
        *,
        allow_rotation: bool = True,
        stride: int | None = None,
        evaluator: str = "vector",
        kernel: BStarKernel | None = None,
    ) -> None:
        if evaluator not in ("vector", "scalar"):
            raise ValueError(f"unknown evaluator {evaluator!r}")
        super().__init__(
            modules, nets, proximity, config,
            allow_rotation=allow_rotation, stride=stride, kernel=kernel,
        )
        if evaluator == "scalar":
            self._eval = _FullRescan(self._kernel.model)
        #: recorded choices of the pending batch's rolled-back
        #: candidates (None: no batch pending)
        self._cands: list[tuple | None] | None = None

    def reset(self, state: BStarState) -> float:
        """Adopt ``state`` (copied into mutable form); return its cost."""
        self._cands = None
        return super().reset(state)

    # -- batch protocol ------------------------------------------------------

    def propose_batch(self, rng: random.Random, k: int) -> list[float]:
        """Draw, pack and score ``k`` candidates off the committed state."""
        if self._cands is not None:
            raise RuntimeError("previous batch not accepted or rejected")
        propose = self.propose
        stats = self.collect_stats
        costs: list[float] = []
        cands: list[tuple | None] = []
        kinds: list[str] = []
        lens: list[int] = []
        for i in range(k):
            if i:
                cands.append(self._choices())
                self.rollback()
            costs.append(propose(rng))
            if stats:
                kinds.append(self.last_move)
                lens.append(self.last_repack_len)
        self._cands = cands
        if stats:
            self.last_kinds = tuple(kinds)
            self.last_repack_lens = tuple(lens)
        return costs

    def accept(self, j: int) -> None:
        """Keep candidate ``j`` (the pending last one, or a replay)."""
        cands = self._cands
        if cands is None:
            raise RuntimeError("no pending batch")
        self._cands = None
        if j < len(cands):
            self.rollback()
            choices = cands[j]
            if choices is None:  # a noop: nothing to keep
                return
            self._step(self._replay(choices))
        self.commit()

    def reject_all(self) -> None:
        """Drop the whole batch (roll back the pending candidate)."""
        if self._cands is None:
            raise RuntimeError("no pending batch")
        self._cands = None
        self.rollback()

    # -- internals -----------------------------------------------------------

    def _draw(self, rng: random.Random):
        """One windowed move: a log-uniform suffix of the committed
        pre-order, operands drawn inside it."""
        order = self._order
        n = len(order)
        lo = 0
        wmin = _WINDOW_MIN
        if n > wmin:
            # log-uniform suffix length in [wmin, n] (biased short):
            # cheap local windows dominate, global moves still sampled
            s = int(round(wmin * (n / wmin) ** (rng.random() ** _WINDOW_BIAS)))
            if s > n:
                s = n
            elif s < wmin:
                s = wmin
            lo = n - s
        return self._moves.apply_windowed(
            self._tree, self._orients, self._variants, rng, order, lo
        )

    def _choices(self) -> tuple | None:
        """The pending move's choices, enough for :meth:`_replay` to
        apply it again to the committed state (None for a noop)."""
        rec = self._rec
        kind = rec.kind
        if kind == "move":
            side = "left" if self._tree.left[rec.b] == rec.a else "right"
            return ("move", rec.a, rec.b, side)
        if kind == "swap":
            return ("swap", rec.a, rec.b)
        if kind == "rotate":
            return ("rotate", rec.a)
        if kind == "reshape":
            return ("reshape", rec.a, self._variants[rec.a])
        return None

    def _replay(self, choices: tuple):
        """Apply recorded choices in place (the ``*_named`` helpers)."""
        moves = self._moves
        op, name = choices[0], choices[1]
        if op == "move":
            return moves.move_named(self._tree, name, choices[2], choices[3])
        if op == "swap":
            return moves.swap_named(self._tree, name, choices[2])
        if op == "rotate":
            return moves.rotate_named(self._orients, name)
        return moves.reshape_named(self._variants, name, choices[2])
