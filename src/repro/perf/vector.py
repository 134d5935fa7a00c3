"""Array-native evaluation tier: vectorized cost + batched candidates.

The dirty-suffix engine (:mod:`repro.perf.incremental`) made each
annealing step proportional to what the move changed — but coordinates,
footprints and pins still live in per-name dicts, and every cost term
evaluates scalar-by-scalar, so steps/s decays with design size anyway
(the ``mode:"workloads"`` bench trajectory shows the collapse past
~2000 modules).  This module is the tier below: flat numpy tables and
batched evaluation.

Three pieces
============

:class:`BatchCostEvaluator`
    Vectorized per-term evaluation behind the existing
    :class:`~repro.cost.CostModel` protocol.  Per-net HPWL is computed
    for *K candidates at once* over ``(K, n)`` center arrays by
    :func:`repro.cost.hpwl.batch_net_hpwl`: nets are grouped into
    power-of-two degree classes (:func:`repro.cost.hpwl.pin_index_tables`),
    and each class is a handful of full-width ``take`` / ``max`` /
    ``min`` ops over its padded pin table, not one segment per net;
    per-candidate totals then run through the model's own
    ``evaluate(coords, hpwl=..., bounding=...)`` with the vectorized
    inputs precomputed — so the term arithmetic, gating and
    accumulation order are *literally the model's own*, and totals are
    byte-identical to the scalar path (``np.cumsum`` row sums in net
    order and max/min spans reproduce the sequential float operations
    exactly; locked in ``tests/perf/test_vector_equivalence.py``).

:class:`VectorBStarEngine`
    A batched B*-tree engine: ``propose_batch(rng, k)`` draws K
    candidate moves from the *same committed state*, packs each one's
    dirty suffix through the kernel's one packing loop
    (:func:`~repro.perf.kernel.pack_suffix`, no undo logging) — keeping
    the packed ``(x0, y0, x1, y1)`` tuples plus the center arrays built
    from them — undoes the tree mutation, and scores all K in one
    vectorized pass.  ``accept(j)`` replays candidate ``j``'s recorded
    choices deterministically (via the ``*_named`` helpers of
    :class:`~repro.bstar.perturb.InPlaceBStarMoves`) and splices its
    tuples and center arrays into the committed state, with no
    conversion back from numpy; ``reject_all`` is O(1).  Moves are
    *windowed* (:class:`~repro.bstar.perturb.WindowedBStarMoves`): each
    candidate draws a log-uniform suffix length, so the expected repack
    cost is ``O(n / ln n)`` instead of ``O(n)`` while long-range moves
    are still sampled.  The scalar protocol (``propose`` /
    ``commit`` / ``rollback``) is the K=1 special case, so the engine
    drops into every existing driver (warmup included).

The scalar oracle
    The same engine built with ``evaluator="scalar"`` replays identical
    draws but scores every candidate through a full
    ``CostModel.evaluate`` over a real coordinate dict.  Because the
    vectorized arithmetic is bit-identical, a vector walk and its
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
from itertools import chain
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
from .kernel import BStarKernel, pack_suffix

if TYPE_CHECKING:  # pragma: no cover
    from ..bstar.perturb import BStarState
    from ..cost.model import CostModel

_INF = float("inf")

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

    Construct once per walk from the model and the (row-ordered) module
    names; call :meth:`totals` with ``(K, n)`` center arrays and K
    bounding boxes.  Wirelength — the only O(n) term — is vectorized
    across the whole batch; every other term is O(1) per candidate and
    runs through the model's own ``accumulate`` chain, which is what
    makes totals byte-identical to :meth:`CostModel.evaluate`.
    """

    _EMPTY: dict = {}

    def __init__(self, model: CostModel, names: Sequence[str]) -> None:
        reason = self.unsupported_reason(model)
        if reason is None and any(
            isinstance(t, ProximityTerm) and t.groups and t.active
            for t in model.terms
        ):
            reason = (
                "active proximity groups have no array form (the scalar "
                "evaluator and IncrementalBStarEngine serve them)"
            )
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
        """Why ``model`` cannot go through the vector tier (or ``None``)."""
        for term in model.terms:
            if not isinstance(term, _SUPPORTED_TERMS):
                return (
                    f"term {term.name!r} ({type(term).__name__}) has no "
                    "vectorized path (boundary-tier terms never run in "
                    "annealing hot loops)"
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


class _Candidate:
    """One proposed move: its recorded choices, packed suffix and cost."""

    __slots__ = (
        "kind", "replay", "k", "packed", "rows_np", "cx", "cy",
        "snaps", "bounding", "cost",
    )

    def __init__(self, kind: str, replay=None) -> None:
        self.kind = kind
        self.replay = replay
        self.k = 0
        #: the packed suffix, ``name -> (x0, y0, x1, y1)`` in its new
        #: pre-order (installed as-is on accept: no array round trip)
        self.packed: dict[str, tuple[float, float, float, float]] = {}
        self.rows_np = None
        self.cx = None
        self.cy = None
        self.snaps: list = []
        self.bounding = (0.0, 0.0, 0.0, 0.0)
        self.cost = _INF


class VectorBStarEngine(FlatBStarEngine):
    """Batched array-native B*-tree engine (vector tier).

    Implements the :class:`repro.anneal.IncrementalEngine` protocol
    *plus* the batch extension driven by
    :class:`repro.anneal.BatchedAnnealer`:

    * :meth:`propose_batch` — K windowed candidate moves from the
      committed state, scored in one vectorized pass;
    * :meth:`accept` — deterministically replay candidate ``j`` and
      splice its suffix arrays into the committed state;
    * :meth:`reject_all` — O(1) (candidates never touched committed
      state).

    ``evaluator="scalar"`` builds the bit-identity oracle twin: same
    draws, every candidate scored through a full scalar
    ``CostModel.evaluate`` over a real coordinate dict.

    Telemetry capability: when :attr:`collect_stats` is set (the
    annealer flips it on recorder attach), :meth:`propose_batch` also
    publishes :attr:`last_kinds` / :attr:`last_repack_lens` — one
    move-family name and repacked-suffix length per candidate.  Off by
    default so untraced runs skip the per-batch list builds.
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
        model = self._kernel.model
        self._names = tuple(modules.names())
        self._row = {name: i for i, name in enumerate(self._names)}
        self._n = len(self._names)
        if evaluator == "scalar":
            self._batch_eval = None
            reason = BatchCostEvaluator.unsupported_reason(model)
            if reason:
                raise ValueError(f"vector tier cannot serve this model: {reason}")
        else:
            self._batch_eval = BatchCostEvaluator(model, self._names)

        # committed centers (row order of `_names`) and bounding box
        self._base_cx = np.zeros(self._n, dtype=np.float64)
        self._base_cy = np.zeros(self._n, dtype=np.float64)
        self._bounding = (0.0, 0.0, 0.0, 0.0)

        # pending batch
        self._cands: list[_Candidate] | None = None
        # reusable (K, n) center buffers, grown on demand
        self._buf_cx = None
        self._buf_cy = None

    # -- setup ---------------------------------------------------------------

    def reset(self, state: BStarState) -> float:
        """Adopt ``state`` (copied into mutable form); return its cost."""
        self._cands = None
        self._adopt(state)
        cand = _Candidate("repack")
        cand.k = 0
        self._pack_suffix(0, cand)
        self._install(cand)
        self._cost = self._evaluate([cand])[0]
        return self._cost

    # -- batch protocol ------------------------------------------------------

    def propose_batch(self, rng: random.Random, k: int) -> list[float]:
        """Draw, pack and score ``k`` candidates off the committed state."""
        if self._cands is not None:
            raise RuntimeError("previous batch not accepted or rejected")
        cands = [self._propose_one(rng) for _ in range(k)]
        self._cands = cands
        live = [c for c in cands if c.kind == "repack"]
        if live:
            costs = self._evaluate(live)
            for cand, cost in zip(live, costs):
                cand.cost = cost
        current = self._cost
        for cand in cands:
            if cand.kind != "repack":
                cand.cost = current
        if self.collect_stats:
            self.last_kinds = tuple(
                c.replay[0] if c.replay else c.kind for c in cands
            )
            self.last_repack_lens = tuple(
                self._n - c.k if c.kind == "repack" else 0 for c in cands
            )
        return [cand.cost for cand in cands]

    def accept(self, j: int) -> None:
        """Keep candidate ``j``: replay its move, splice its arrays."""
        cands = self._cands
        if cands is None:
            raise RuntimeError("no pending batch")
        cand = cands[j]
        kind = cand.kind
        if kind == "neutral":
            op, name, value = cand.replay
            (self._orients if op == "rotate" else self._variants)[name] = value
        elif kind == "repack":
            replay = cand.replay
            op = replay[0]
            if op == "move":
                self._moves.move_named(self._tree, replay[1], replay[2], replay[3])
            elif op == "swap":
                self._moves.swap_named(self._tree, replay[1], replay[2])
            elif op == "rotate":
                self._orients[replay[1]] = replay[2]
                self._sizes[replay[1]] = replay[3]
            else:  # reshape
                self._variants[replay[1]] = replay[2]
                self._sizes[replay[1]] = replay[3]
            self._install(cand)
        self._cost = cand.cost
        self._cands = None

    def reject_all(self) -> None:
        """Drop the whole batch (committed state was never touched)."""
        if self._cands is None:
            raise RuntimeError("no pending batch")
        self._cands = None

    # -- scalar protocol (K = 1 special case; warmup and generic drivers) ----

    def propose(self, rng: random.Random) -> float:
        return self.propose_batch(rng, 1)[0]

    def commit(self) -> None:
        self.accept(0)

    def rollback(self) -> None:
        self.reject_all()

    def cost_breakdown(self) -> dict[str, float]:
        """Per-term contributions of the committed state (reporting
        tier — full scalar rescan, chunk boundaries only)."""
        if self._cands is not None:
            raise RuntimeError("previous batch not accepted or rejected")
        return self._kernel.model.breakdown(self._coords, bounding=self._bounding)

    # -- internals -----------------------------------------------------------

    def _propose_one(self, rng: random.Random) -> _Candidate:
        """Draw one windowed move, pack its dirty suffix, undo the tree."""
        n = self._n
        order = self._order
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
        tree = self._tree
        orients = self._orients
        variants = self._variants
        moves = self._moves
        rec = moves.apply_windowed(tree, orients, variants, rng, order, lo)
        kind = rec.kind
        if kind == "noop":
            return _Candidate("noop")
        if kind == "rotate" or kind == "reshape":
            name = rec.a
            new_value = orients[name] if kind == "rotate" else variants[name]
            wh = self._footprint(name)
            old_wh = self._sizes[name]
            if wh == old_wh:
                # size-neutral (square rotate / same-footprint variant):
                # coordinates — hence cost — are unchanged
                moves.undo(tree, orients, variants, rec)
                return _Candidate("neutral", (kind, name, new_value))
            cand = _Candidate("repack", (kind, name, new_value, wh))
            self._sizes[name] = wh
            cand.k = self._pos[name]
            self._pack_suffix(cand.k, cand)
            self._sizes[name] = old_wh
            moves.undo(tree, orients, variants, rec)
            return cand
        if kind == "move":
            side = "left" if tree.left[rec.b] == rec.a else "right"
            cand = _Candidate("repack", ("move", rec.a, rec.b, side))
        else:  # swap
            cand = _Candidate("repack", ("swap", rec.a, rec.b))
        cand.k = moves.dirty_index(rec, self._pos)
        self._pack_suffix(cand.k, cand)
        moves.undo(tree, orients, variants, rec)
        return cand

    def _evaluate(self, live: list[_Candidate]) -> list[float]:
        """Score packed candidates (vectorized, or the scalar oracle)."""
        if self._batch_eval is None:
            evaluate = self._kernel.model.evaluate
            out = []
            for cand in live:
                coords = dict(self._coords)
                coords.update(cand.packed)
                out.append(evaluate(coords, bounding=cand.bounding))
            return out
        k = len(live)
        n = self._n
        buf = self._buf_cx
        if buf is None or buf.shape[0] < k:
            self._buf_cx = np.empty((k, n), dtype=np.float64)
            self._buf_cy = np.empty((k, n), dtype=np.float64)
        cx = self._buf_cx[:k]
        cy = self._buf_cy[:k]
        cx[:] = self._base_cx
        cy[:] = self._base_cy
        for idx, cand in enumerate(live):
            if cand.rows_np is not None and cand.rows_np.size:
                cx[idx, cand.rows_np] = cand.cx
                cy[idx, cand.rows_np] = cand.cy
        return self._batch_eval.totals(cx, cy, [c.bounding for c in live])

    def _install(self, cand: _Candidate) -> None:
        """Splice an accepted candidate's suffix into the committed state."""
        k = cand.k
        packed = cand.packed
        self._order[k:] = packed
        self._pos.update(zip(packed, range(k, k + len(packed))))
        self._coords.update(packed)
        if cand.rows_np is not None and cand.rows_np.size:
            self._base_cx[cand.rows_np] = cand.cx
            self._base_cy[cand.rows_np] = cand.cy
        ckpts = self._ckpts
        for slot, snap in cand.snaps:
            ckpts[slot] = snap
        self._bounding = cand.bounding

    def _pack_suffix(self, k: int, cand: _Candidate) -> None:
        """Pack pre-order positions ``>= k`` of the (perturbed) tree into
        ``cand``'s packed table, checkpoint snapshots and center arrays
        (the kernel's :func:`~repro.perf.kernel.pack_suffix`) — committed
        state untouched; :meth:`accept` installs them.
        """
        sky = self._sky
        packed, cand.snaps = pack_suffix(
            self._tree, self._sizes, sky, k,
            self._order, self._coords, self._ckpts, self._stride,
        )
        m = len(packed)
        assert m == self._n - k, "suffix repack lost nodes (tree corrupted?)"
        cand.packed = packed
        cand.bounding = (0.0, 0.0, sky.rightmost_edge(), sky.max_height())
        if m:
            cand.rows_np = np.fromiter(
                map(self._row.__getitem__, packed), dtype=np.intp, count=m
            )
            qa = np.fromiter(
                chain.from_iterable(packed.values()), dtype=np.float64, count=4 * m
            ).reshape(-1, 4)
            cand.cx = (qa[:, 0] + qa[:, 2]) / 2.0
            cand.cy = (qa[:, 1] + qa[:, 3]) / 2.0
