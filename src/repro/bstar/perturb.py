"""Perturbation operations for B*-tree annealing.

The standard move set of [5]: rotate a module, move a node to a new
(parent, side) slot, and swap two nodes.  Moves mutate the state in
place and return a :class:`PerturbRecord` reporting exactly which nodes
were touched (so the packing engine can bound the dirty pre-order
suffix) plus the pointer snapshots needed to undo the move on
rejection.

* :class:`InPlaceBStarMoves` — global draws, the move family of
  :class:`repro.perf.incremental.IncrementalBStarEngine` (and of its
  full-repack twin).
* :class:`WindowedBStarMoves` — the same op mix with operands drawn
  from a pre-order window, the move family of the vector tier's
  :class:`repro.perf.vector.VectorBStarEngine`.

A caller that wants a functional neighbor (a fresh state, input left
untouched) clones the tree and the two maps, then applies a move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from ..geometry import ModuleSet, Orientation
from .tree import BStarTree


@dataclass(frozen=True)
class BStarState:
    """Annealing state for the flat B*-tree placer."""

    tree: BStarTree = field(compare=False)
    orientations: Mapping[str, Orientation] = field(default_factory=dict)
    variants: Mapping[str, int] = field(default_factory=dict)


#: sentinel for "the key was absent before the move"
_ABSENT = object()


@dataclass
class PerturbRecord:
    """What one in-place move did — enough to bound the dirty suffix
    and to undo the move exactly.

    ``kind`` is one of ``"move"``, ``"swap"``, ``"rotate"``,
    ``"reshape"``, ``"noop"``.  For structural moves, ``a`` / ``b``
    name the nodes whose *old* pre-order positions bound the dirty
    suffix (see :meth:`InPlaceBStarMoves.dirty_index`); for size moves,
    ``a`` is the resized module.  ``nodes`` holds ``(name, left, right,
    parent)`` pointer snapshots in application order (undo replays them
    in reverse, so the earliest snapshot of a twice-touched node wins);
    ``root`` is the pre-move root.  ``key_undo`` is the
    orientation/variant entry to restore (``_ABSENT`` means delete).
    """

    kind: str
    a: str | None = None
    b: str | None = None
    nodes: list[tuple[str, str | None, str | None, str | None]] = field(
        default_factory=list
    )
    root: str | None = None
    key_undo: object = None
    #: swap of two children of the same parent: ``_swap_positions``
    #: leaves the nodes in place and exchanges their *subtrees*, so the
    #: pre-order transform is not the plain two-slot exchange
    sibling_swap: bool = False


class InPlaceBStarMoves:
    """Random move / swap / rotate / reshape moves with undo records.

    Ops are drawn with weights 4 / 4 / 2 / 1.5 (rotate only over
    rotatable modules, reshape only over soft ones); ``_move`` picks
    the insert target by rejection sampling from the static name list,
    so no proposal materializes ``tree.nodes()``.  Seed-for-seed parity
    holds between any two consumers of this class (e.g. the
    incremental engine and its full-repack twin).  Moves mutate
    ``tree`` / ``orientations`` / ``variants`` directly and return a
    :class:`PerturbRecord` that :meth:`undo` reverses exactly (pointer
    values and map entries; dict insertion *order* may differ after an
    undone move, which affects nothing but the iteration order behind
    future random draws).
    """

    def __init__(self, modules: ModuleSet, *, allow_rotation: bool = True) -> None:
        self._modules = modules
        self._names = list(modules.names())
        self._rotatable = (
            [n for n in self._names if modules[n].rotatable] if allow_rotation else []
        )
        self._soft = [n for n in self._names if len(modules[n].variants) > 1]
        ops = [self._move, self._swap]
        weights = [4.0, 4.0]
        if self._rotatable:
            ops.append(self._rotate)
            weights.append(2.0)
        if self._soft:
            ops.append(self._reshape)
            weights.append(1.5)
        self._ops = ops
        self._weights = weights

    def initial_state(self, rng: random.Random) -> BStarState:
        return BStarState(BStarTree.random(self._names, rng))

    def apply(
        self,
        tree: BStarTree,
        orientations: dict[str, Orientation],
        variants: dict[str, int],
        rng: random.Random,
    ) -> PerturbRecord:
        """Draw one op and apply it in place."""
        (op,) = rng.choices(self._ops, weights=self._weights, k=1)
        return op(tree, orientations, variants, rng)

    def undo(
        self,
        tree: BStarTree,
        orientations: dict[str, Orientation],
        variants: dict[str, int],
        record: PerturbRecord,
    ) -> None:
        """Reverse an applied move (pointer values, maps and root)."""
        kind = record.kind
        if kind == "noop":
            return
        if kind == "rotate" or kind == "reshape":
            target = orientations if kind == "rotate" else variants
            if record.key_undo is _ABSENT:
                del target[record.a]
            else:
                target[record.a] = record.key_undo
            return
        left, right, parent = tree.left, tree.right, tree.parent
        for name, ln, rn, pn in reversed(record.nodes):
            left[name] = ln
            right[name] = rn
            parent[name] = pn
        tree.root = record.root

    def dirty_index(self, record: PerturbRecord, pos: Mapping[str, int]) -> int:
        """First pre-order position whose placement the move can change.

        ``pos`` maps names to their *pre-move* pre-order positions.
        Everything before the returned index packs to identical
        coordinates in the perturbed tree:

        * ``swap a b`` — divergence starts at the earlier of the two;
        * ``move a under b`` — removal disturbs from ``pos[a]`` (the
          promoted subtree sits entirely after ``a``), insertion from
          ``pos[b] + 1`` (``b`` itself keeps its placement);
        * ``rotate/reshape a`` — only ``a``'s size changed, traversal
          order is untouched, so divergence starts at ``pos[a]``.
        """
        kind = record.kind
        if kind == "swap":
            pa, pb = pos[record.a], pos[record.b]
            return pa if pa < pb else pb
        if kind == "move":
            pa, pb = pos[record.a], pos[record.b] + 1
            return pa if pa < pb else pb
        return pos[record.a]

    # -- deterministic (draw-free) op bodies ---------------------------------
    #
    # Each op splits into a draw phase and a mutation phase.  The
    # *_named methods are the mutation phase with every random choice
    # passed in, so a caller holding recorded choices (the vector tier's
    # accept-replay, the windowed mover) can re-apply a move exactly.

    @staticmethod
    def _snap(tree: BStarTree, record: PerturbRecord, name: str) -> None:
        record.nodes.append(
            (name, tree.left[name], tree.right[name], tree.parent[name])
        )

    def move_named(
        self, tree: BStarTree, name: str, target: str, side: str
    ) -> PerturbRecord:
        """Move ``name`` under ``(target, side)``; undo-recorded."""
        record = PerturbRecord("move", a=name, root=tree.root)
        # remove() promotes the preferred-child chain of `name` one slot
        # up; the only pointers it touches are `name`, the chain members,
        # their immediate (other-side) children, and the old parent —
        # snapshot exactly those, not the whole subtree.
        snap = self._snap
        snap(tree, record, name)
        left, right = tree.left, tree.right
        node = name
        while True:
            l = left[node]
            r = right[node]
            if l is not None:
                snap(tree, record, l)
                if r is not None:
                    snap(tree, record, r)
                node = l
            elif r is not None:
                snap(tree, record, r)
                node = r
            else:
                break
        old_parent = tree.parent[name]
        if old_parent is not None:
            snap(tree, record, old_parent)
        tree.remove(name)
        # insert() touches the target's slot and the displaced child;
        # `name` itself is re-created (its pre-move snapshot is above).
        snap(tree, record, target)
        displaced = (tree.left if side == "left" else tree.right)[target]
        if displaced is not None:
            snap(tree, record, displaced)
        tree.insert(name, target, side)
        record.b = target
        return record

    def swap_named(self, tree: BStarTree, a: str, b: str) -> PerturbRecord:
        """Swap nodes ``a`` and ``b``; undo-recorded."""
        record = PerturbRecord(
            "swap",
            a=a,
            b=b,
            root=tree.root,
            sibling_swap=tree.parent[a] is not None
            and tree.parent[a] == tree.parent[b],
        )
        snap = self._snap
        for node in (
            a,
            b,
            tree.parent[a],
            tree.parent[b],
            tree.left[a],
            tree.right[a],
            tree.left[b],
            tree.right[b],
        ):
            if node is not None:
                snap(tree, record, node)
        tree.swap_nodes(a, b)
        return record

    def rotate_named(
        self, orientations: dict[str, Orientation], name: str
    ) -> PerturbRecord:
        """Toggle ``name`` between R0 and R90; undo-recorded."""
        old = orientations.get(name, _ABSENT)
        current = Orientation.R0 if old is _ABSENT else old
        orientations[name] = (
            Orientation.R90 if current == Orientation.R0 else Orientation.R0
        )
        return PerturbRecord("rotate", a=name, key_undo=old)

    def reshape_named(
        self, variants: dict[str, int], name: str, variant: int
    ) -> PerturbRecord:
        """Select soft-module ``variant`` for ``name``; undo-recorded."""
        old = variants.get(name, _ABSENT)
        variants[name] = variant
        return PerturbRecord("reshape", a=name, key_undo=old)

    # -- ops -----------------------------------------------------------------

    def _move(
        self,
        tree: BStarTree,
        orientations: dict[str, Orientation],
        variants: dict[str, int],
        rng: random.Random,
    ) -> PerturbRecord:
        if len(self._names) < 2:
            return PerturbRecord("noop")
        # uniform over the remaining nodes, drawn by rejection from the
        # static name list (no O(n) key-list build per proposal); none
        # of the tree mutations consume randomness, so drawing the
        # target and side up front preserves the historical sequence
        names = self._names
        name = rng.choice(names)
        target = rng.choice(names)
        while target == name:
            target = rng.choice(names)
        side = rng.choice(("left", "right"))
        return self.move_named(tree, name, target, side)

    def _swap(
        self,
        tree: BStarTree,
        orientations: dict[str, Orientation],
        variants: dict[str, int],
        rng: random.Random,
    ) -> PerturbRecord:
        if len(self._names) < 2:
            return PerturbRecord("noop")
        a, b = rng.sample(self._names, 2)
        return self.swap_named(tree, a, b)

    def _rotate(
        self,
        tree: BStarTree,
        orientations: dict[str, Orientation],
        variants: dict[str, int],
        rng: random.Random,
    ) -> PerturbRecord:
        return self.rotate_named(orientations, rng.choice(self._rotatable))

    def _reshape(
        self,
        tree: BStarTree,
        orientations: dict[str, Orientation],
        variants: dict[str, int],
        rng: random.Random,
    ) -> PerturbRecord:
        name = rng.choice(self._soft)
        return self.reshape_named(
            variants, name, rng.randrange(len(self._modules[name].variants))
        )


class WindowedBStarMoves(InPlaceBStarMoves):
    """Window-restricted moves for the vector tier's multi-scale walk.

    Same op mix and weights as :class:`InPlaceBStarMoves`, but operands
    are drawn from a pre-order *window* ``[lo, n)`` supplied per
    proposal: a B*-tree packs in pre-order, so confining a move to the
    last ``n - lo`` positions bounds the dirty suffix — and hence the
    repack cost — by the window size.  Draws are positions into the
    committed pre-order (not names), so trajectories are a different
    (equally distributed over each window) family than the global move
    set; determinism still holds seed for seed between any two
    consumers of this class.

    Rotate/reshape rejection-sample an eligible module inside the
    window (bounded tries), falling back to a global draw — a global
    fallback merely dirties a longer suffix, which stays correct.
    """

    #: bounded window retries for rotate/reshape eligibility
    _TRIES = 8

    def __init__(self, modules: ModuleSet, *, allow_rotation: bool = True) -> None:
        super().__init__(modules, allow_rotation=allow_rotation)
        kinds = ["move", "swap"]
        if self._rotatable:
            kinds.append("rotate")
        if self._soft:
            kinds.append("reshape")
        self._kinds = kinds
        self._rotatable_set = frozenset(self._rotatable)
        self._soft_set = frozenset(self._soft)

    def apply_windowed(
        self,
        tree: BStarTree,
        orientations: dict[str, Orientation],
        variants: dict[str, int],
        rng: random.Random,
        order: list[str],
        lo: int,
    ) -> PerturbRecord:
        """Draw one op with operands from ``order[lo:]``; apply in place."""
        n = len(order)
        if n < 2:
            return PerturbRecord("noop")
        if n - lo < 2:
            lo = n - 2
        (kind,) = rng.choices(self._kinds, weights=self._weights, k=1)
        if kind == "move":
            name = order[rng.randrange(lo, n)]
            target = order[rng.randrange(lo, n)]
            while target == name:
                target = order[rng.randrange(lo, n)]
            side = rng.choice(("left", "right"))
            return self.move_named(tree, name, target, side)
        if kind == "swap":
            i = rng.randrange(lo, n)
            j = rng.randrange(lo, n)
            while j == i:
                j = rng.randrange(lo, n)
            return self.swap_named(tree, order[i], order[j])
        if kind == "rotate":
            name = self._windowed_pick(rng, order, lo, n, self._rotatable_set)
            if name is None:
                name = rng.choice(self._rotatable)
            return self.rotate_named(orientations, name)
        name = self._windowed_pick(rng, order, lo, n, self._soft_set)
        if name is None:
            name = rng.choice(self._soft)
        return self.reshape_named(
            variants, name, rng.randrange(len(self._modules[name].variants))
        )

    @staticmethod
    def _windowed_pick(rng, order, lo, n, eligible):
        for _ in range(WindowedBStarMoves._TRIES):
            name = order[rng.randrange(lo, n)]
            if name in eligible:
                return name
        return None
