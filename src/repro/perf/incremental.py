"""Dirty-suffix incremental evaluation for B*-tree annealing.

The PR-1 kernel made each annealing step cheap; this module makes each
step *proportional to what the move changed*.  A B*-tree packs in
pre-order, and a node's placement depends only on the nodes packed
before it — so a perturbation that touches nodes at pre-order positions
``>= k`` leaves the coordinate prefix ``[0, k)`` bit-identical.
The one in-place step of :class:`FlatBStarEngine` (the flat engines'
shared core, under :class:`IncrementalBStarEngine` and the vector
tier's engine alike) exploits that three ways, all through the
kernel's one packing loop, :func:`~repro.perf.kernel.pack_suffix`:

* **skyline checkpoints** — the packing skyline is snapshotted every
  ``stride`` pre-order positions (:func:`~repro.perf.kernel.
  default_stride` of the module count unless given); a repack restores
  the checkpoint at ``k // stride`` and replays at most ``stride - 1``
  cached rectangles instead of re-raising the whole prefix;
* **O(depth) traversal resume** — the DFS stack at position ``k`` is
  reconstructed from the perturbed tree's parent pointers and the
  cached prefix coordinates (the pending right-siblings along the path
  to ``k``'s predecessor), so the prefix is never re-walked;
* **delta wirelength** — the suffix is packed into the live
  coordinate table, and the modules whose rectangle actually changed
  are handed to the :class:`~repro.cost.CostEvaluator`, whose
  :class:`~repro.cost.DeltaHPWL` recomputes only their incident nets.

Every proposal is undo-logged (touched tree pointers, overwritten
coordinates, refreshed checkpoints, changed net values), giving the
``propose -> commit/rollback`` protocol of
:class:`~repro.anneal.IncrementalAnnealer`: commit is O(1) — the
mutation already happened — and rollback restores exactly what the
proposal overwrote.  Costs are bit-identical to a full
``pack_tree_coords`` + :class:`~repro.cost.CostModel` evaluation of
the same state (see ``tests/perf/``);
:class:`FullRepackBStarEngine` is the same protocol with full
re-evaluation, used to lock that equivalence over whole annealing runs.
An engine on the step supplies only its draw: global
:class:`~repro.bstar.perturb.InPlaceBStarMoves` here, windowed moves
in :mod:`repro.perf.vector`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..circuit import ProximityGroup
from ..geometry import ModuleSet, Net, Orientation
from .coords import Coords
from .kernel import BStarKernel, Skyline, default_stride, pack_suffix

if TYPE_CHECKING:  # pragma: no cover
    from ..bstar.perturb import BStarState

_INF = float("inf")


class FlatBStarEngine:
    """The flat B*-tree engines' shared core: set-up, committed state
    and the one in-place step.

    Holds the move object, the kernel and its footprint table, the
    committed tree, packing and cost, and the step every flat engine
    takes: a move applied in place (:meth:`propose`) repacks the dirty
    suffix into the live table (undo-logged) and is scored by the
    kernel model's delta-capable :class:`~repro.cost.CostEvaluator`;
    :meth:`commit` splices the new pre-order in, :meth:`rollback`
    restores exactly what the move overwrote.  An engine supplies only
    its draw, :meth:`_draw`.

    Telemetry capability: every :meth:`propose` refreshes
    :attr:`last_move` (the move-family name) and
    :attr:`last_repack_len` (how many pre-order slots the dirty-suffix
    repack rewrote; 0 for noop/neutral moves) — two scalar attribute
    stores, cheap enough to keep unconditional.  The annealer reads
    them only when a recorder is attached.
    """

    #: move class in :mod:`repro.bstar.perturb` this engine draws from
    _MOVES = "InPlaceBStarMoves"

    #: move family of the most recent proposal ("move", "swap",
    #: "rotate", "reshape", "noop")
    last_move = "noop"
    #: pre-order slots repacked by the most recent proposal
    last_repack_len = 0
    #: a move is applied in place and awaits commit or rollback
    _pending = False
    #: the delta-capable session over the kernel's model, built on the
    #: first :meth:`reset` (the full-repack twin never takes the step)
    _eval = None

    def __init__(
        self,
        modules: ModuleSet,
        nets: tuple[Net, ...] = (),
        proximity: tuple[ProximityGroup, ...] = (),
        config=None,
        *,
        allow_rotation: bool = True,
        stride: int | None = None,
        kernel: BStarKernel | None = None,
    ) -> None:
        if config is None:
            raise ValueError(f"{type(self).__name__} requires a cost config")
        # deferred: repro.perf must stay importable without pulling in
        # repro.bstar (whose placers import repro.perf right back)
        from ..bstar import perturb

        self._state_cls = perturb.BStarState
        self._moves = getattr(perturb, self._MOVES)(
            modules, allow_rotation=allow_rotation
        )
        # share the kernel's footprint tables and its unified cost
        # model.  A placer may hand in its kernel: engines never touch
        # its skyline
        self._kernel = kernel or BStarKernel(modules, nets, proximity, config)
        self._footprints = self._kernel._footprints
        self._stride = max(1, stride or default_stride(len(modules)))
        self._sky = Skyline()

        # committed state (mutable, owned by the engine)
        self._tree = None
        self._orients: dict[str, Orientation] = {}
        self._variants: dict[str, int] = {}
        self._sizes: dict[str, tuple[float, float]] = {}
        self._coords: Coords = {}
        self._order: list[str] = []
        self._pos: dict[str, int] = {}
        self._ckpts: list = []
        self._cost = _INF

    # -- setup ---------------------------------------------------------------

    def initial_state(self, rng: random.Random) -> BStarState:
        return self._moves.initial_state(rng)

    def initial_cost(self) -> float:
        return self._cost

    def reset(self, state: BStarState) -> float:
        """Adopt ``state`` (copied into mutable form); return its cost."""
        if self._eval is None:
            self._eval = self._kernel.model.evaluator()
        self._adopt(state)
        self._repack_suffix(0)
        self._order[:] = self._new_suffix
        self._pos.update(zip(self._order, range(len(self._order))))
        self._cost = self._eval.reset(self._coords, bounding=self._sky_bounding())
        self._clear_pending()
        return self._cost

    def snapshot(self) -> BStarState:
        """An immutable copy of the committed state (best tracking).

        A pending proposal is undone on the copy, so the annealer may
        snapshot while a move is still applied in place (the
        :meth:`~repro.anneal.IncrementalEngine.snapshot` contract).
        """
        tree = self._tree.clone()
        orients = self._orients.copy()
        variants = self._variants.copy()
        if self._pending:
            self._moves.undo(tree, orients, variants, self._rec)
        return self._state_cls(tree=tree, orientations=orients, variants=variants)

    # -- protocol ------------------------------------------------------------

    def propose(self, rng: random.Random) -> float:
        """Apply one drawn move in place, repack and score it, leaving
        it pending; return the candidate cost."""
        if self._pending:
            raise RuntimeError("previous proposal not committed or rolled back")
        rec = self._rec = self._draw(rng)
        self._pending = True
        kind = rec.kind
        self.last_move = kind
        self.last_repack_len = 0
        if kind == "noop":
            self._pending_kind = "noop"
            self._pending_cost = self._cost
            return self._cost
        if kind == "rotate" or kind == "reshape":
            name = rec.a
            wh = self._footprint(name)
            old_wh = self._sizes[name]
            if wh == old_wh:
                # size-neutral move (square rotate, same-footprint
                # variant): coordinates — hence cost — are unchanged
                self._pending_kind = "neutral"
                self._pending_cost = self._cost
                return self._cost
            self._size_undo = (name, old_wh)
            self._sizes[name] = wh
        else:
            self._size_undo = None
        self._pending_kind = "repack"
        k = self._moves.dirty_index(rec, self._pos)
        self.last_repack_len = len(self._order) - k
        self._repack_suffix(k)
        self._pending_cost = self._eval.propose(
            self._coords, self._moved, self._sky_bounding()
        )
        return self._pending_cost

    def commit(self) -> None:
        """Keep the pending move (the mutation already happened; only
        the committed-state pre-order book-keeping is updated)."""
        if self._pending_kind == "repack":
            kind = self._rec.kind
            # only "move" (and the sibling-swap corner, which exchanges
            # subtrees rather than slots) reshuffles the pre-order
            # suffix unpredictably
            if kind == "move" or self._rec.sibling_swap:
                k = self._dirty_k
                suffix = self._new_suffix
                self._order[k:] = suffix
                self._pos.update(zip(suffix, range(k, k + len(suffix))))
            elif kind == "swap":
                # a swap exchanges exactly two pre-order slots; every
                # other node (including both subtrees, which moved
                # wholesale) keeps its position
                a, b = self._rec.a, self._rec.b
                pos = self._pos
                pa, pb = pos[a], pos[b]
                order = self._order
                order[pa], order[pb] = b, a
                pos[a], pos[b] = pb, pa
            # rotate/reshape leave the traversal order untouched
            self._eval.commit()
        self._cost = self._pending_cost
        self._clear_pending()

    def rollback(self) -> None:
        """Undo the pending move, restoring exactly what it overwrote
        (``order``/``pos`` still describe the committed state and need
        no repair)."""
        self._moves.undo(self._tree, self._orients, self._variants, self._rec)
        if self._pending_kind == "repack":
            if self._size_undo is not None:
                name, wh = self._size_undo
                self._sizes[name] = wh
            # a suffix lists each name once, so restore order is free
            self._coords.update(self._coord_log)
            ckpts = self._ckpts
            for slot, snap in self._ckpt_log:
                ckpts[slot] = snap
            self._eval.rollback()
        self._clear_pending()

    def cost_breakdown(self) -> dict[str, float]:
        """Per-term weighted contributions of the *committed* state.

        Reporting tier (telemetry chunk summaries): a full rescan over
        the current coordinate table, bounding box included — after a
        rollback the live skyline still holds the rejected candidate's
        profile — so call it at chunk boundaries, never per step.
        """
        if self._pending:
            raise RuntimeError("previous proposal not committed or rolled back")
        return self._kernel.model.breakdown(self._coords)

    # -- internals -----------------------------------------------------------

    def _draw(self, rng: random.Random):
        """Draw one move and apply it in place; its undo record."""
        raise NotImplementedError

    def _adopt(self, state: BStarState) -> None:
        """Copy ``state`` into mutable form, with empty packing caches
        (the common prefix of every ``reset``; the caller packs)."""
        self._tree = state.tree.clone()
        self._orients = dict(state.orientations)
        self._variants = dict(state.variants)
        self._sizes = dict(
            self._kernel.resolved_sizes(self._orients, self._variants)
        )
        n = len(self._tree)
        self._order = [""] * n
        self._pos = {}
        self._coords = {}
        n_slots = ((n - 1) // self._stride + 1) if n else 1
        self._ckpts = [Skyline().snapshot()] * n_slots

    def _footprint(self, name: str) -> tuple[float, float]:
        """``name``'s (w, h) under its current variant and orientation."""
        return self._footprints[name][self._variants.get(name, 0)][
            self._orients.get(name, Orientation.R0)
        ]

    def _clear_pending(self) -> None:
        # the step's undo state.  `order`/`pos` describe the committed
        # state only: a proposal keeps the repacked pre-order in
        # `_new_suffix` for commit to splice in, so rejected moves
        # never touch (and never have to restore) them
        self._pending = False
        self._pending_kind = ""
        self._rec = None
        self._size_undo = None
        self._new_suffix = []
        self._coord_log = []
        self._ckpt_log = []

    def _sky_bounding(self) -> tuple[float, float, float, float]:
        # the skyline after a (re)pack covers the whole design, so the
        # bounding box falls out of it: packing anchors the root at the
        # origin (min = 0.0 exactly) and the skyline's raised extent is
        # max(x1) / max(y1) over the very same floats
        sky = self._sky
        return (0.0, 0.0, sky.rightmost_edge(), sky.max_height())

    def _repack_suffix(self, k: int) -> None:
        """Repack pre-order positions ``>= k`` (undo-logged).

        Runs the kernel's :func:`~repro.perf.kernel.pack_suffix` in
        place: the rectangles that changed are written into the
        coordinate table as they are packed (old entries logged for
        rollback, names collected as moved for the cost delta).  The
        suffix's new pre-order is kept for commit to splice in, and the
        refreshed skyline checkpoints are installed (old snapshots
        logged).
        """
        self._dirty_k = k
        ckpts = self._ckpts
        coord_log: list = []
        self._new_suffix, snaps = pack_suffix(
            self._tree, self._sizes, self._sky, k,
            self._order, self._coords, ckpts, self._stride, coord_log,
        )
        assert len(self._new_suffix) == len(self._order) - k, (
            "suffix repack lost nodes (tree corrupted?)"
        )
        self._coord_log = coord_log
        self._moved = [name for name, _ in coord_log]
        self._ckpt_log = [(slot, ckpts[slot]) for slot, _ in snaps]
        for slot, snap in snaps:
            ckpts[slot] = snap


class IncrementalBStarEngine(FlatBStarEngine):
    """Incremental pack-and-cost engine for flat B*-tree annealing.

    Implements the :class:`repro.anneal.IncrementalEngine` protocol
    with :class:`FlatBStarEngine`'s in-place step over global draws
    (:class:`~repro.bstar.perturb.InPlaceBStarMoves`).  Call
    :meth:`reset` with an initial :class:`BStarState` (the engine
    keeps its own mutable copy), then drive it through
    :class:`repro.anneal.IncrementalAnnealer`.
    """

    def _draw(self, rng: random.Random):
        return self._moves.apply(self._tree, self._orients, self._variants, rng)


class FullRepackBStarEngine(FlatBStarEngine):
    """The same protocol and random draws, evaluated by full repack.

    Twin of :class:`IncrementalBStarEngine` that packs the whole tree
    and rescans every net on every proposal (PR-1 kernel evaluation).
    Because both engines draw identically from the shared
    :class:`~repro.bstar.perturb.InPlaceBStarMoves`, running them with
    equal seeds produces the *same annealing walk* — which is how the
    equivalence tests and the benchmark assert that incremental
    evaluation changes speed, not answers.

    Carries the same telemetry attributes as the incremental engine;
    every non-noop proposal repacks the whole tree, so
    :attr:`last_repack_len` is simply the module count.
    """

    def reset(self, state: BStarState) -> float:
        self._adopt(state)
        self._cost = self._kernel.cost(self._tree, self._orients, self._variants)
        self._clear_pending()
        return self._cost

    def propose(self, rng: random.Random) -> float:
        self._rec = self._moves.apply(self._tree, self._orients, self._variants, rng)
        self._pending = True
        kind = self._rec.kind
        self.last_move = kind
        self.last_repack_len = 0 if kind == "noop" else len(self._tree)
        self._pending_cost = self._kernel.cost(
            self._tree, self._orients, self._variants
        )
        return self._pending_cost

    def commit(self) -> None:
        self._cost = self._pending_cost
        self._clear_pending()

    def rollback(self) -> None:
        self._moves.undo(self._tree, self._orients, self._variants, self._rec)
        self._clear_pending()

    def cost_breakdown(self) -> dict[str, float]:
        """Per-term contributions of the committed state (full repack)."""
        coords = self._kernel.pack(self._tree, self._orients, self._variants)
        return self._kernel.model.breakdown(coords)
