"""Hierarchical B*-trees (Lin & Lin [17], paper section III-B).

An HB*-tree models the floorplan of one hierarchy level; *hierarchy
nodes* inside it stand for whole sub-circuits whose internal floorplan
is modelled by their own HB*-tree.  "The number of HB*-trees will be
equal to that of the sub-circuits plus the one modelling the top
design."  Perturbation picks one tree of the forest and applies a
B*-tree operation to it; packing is a recursive pre-order traversal.

Constraint handling per hierarchy node (Fig. 5):

* **symmetry** — the group members form an ASF-B*-tree symmetry island,
  which enters the level tree as a single block;
* **common-centroid** — the unit array comes from the deterministic
  interdigitation generator; its grid variant is the annealable choice;
* **proximity** — the node's members are packed in their own level tree,
  so they stay together; connectivity is additionally rewarded in the
  placer cost;
* **plain** — an ordinary B*-tree over the node's modules and sub-blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

from ..circuit import (
    CommonCentroidGroup,
    HierarchyNode,
    SymmetryGroup,
)
from ..geometry import ModuleSet, Placement, Rect
from ..perf.coords import (
    Coords,
    bounding_of,
    normalize_coords,
    placement_to_coords,
)
from ..perf.kernel import Skyline, pack_tree_coords
from .asf import ASFBStarTree, ASFMoveSet
from .common_centroid import common_centroid_placement, n_variants
from .packing import pack_sizes
from .perturb import BStarState
from .tree import BStarTree

if TYPE_CHECKING:  # pragma: no cover
    from ..cost.model import CostModel


_ISLAND = "__island__"


@dataclass(frozen=True)
class LevelState:
    """Annealing state of one hierarchy level.

    ``tree`` spans the level's *items*: plain module names, child
    hierarchy-node names, and (when the level carries a symmetry
    constraint) the pseudo-item ``__island__`` for the ASF block.
    ``asf`` / ``cc_variant`` hold the constraint sub-states.
    """

    tree: BStarTree = field(compare=False)
    orientations: Mapping[str, object] = field(default_factory=dict)
    asf: ASFBStarTree | None = None
    cc_variant: int = 0


@dataclass(frozen=True)
class HBState:
    """The whole forest: hierarchy-node name -> level state."""

    levels: Mapping[str, LevelState]


class LevelTable:
    """One packed hierarchy level, as the coordinate tier caches it.

    ``coords`` is the level's merged ``name -> (x0, y0, x1, y1)``
    table, anchored at exactly ``(0.0, 0.0)``, and ``extent`` its
    ``(w, h)``: its bounding box is ``(0.0, 0.0, w, h)`` bit for bit.
    ``rects`` holds the packed rectangle of each level item (``None``
    for a level that is a common-centroid array alone).  ``moved``
    names the entries that differ from the committed table the level
    was repacked against (``None`` when packed from scratch).  Tables
    are never mutated once built, so a derived table may share its
    base's dict.
    """

    __slots__ = ("coords", "extent", "rects", "moved")

    def __init__(
        self,
        coords: Coords,
        extent: tuple[float, float],
        rects: Coords | None,
        moved: list[str] | None,
    ) -> None:
        self.coords = coords
        self.extent = extent
        self.rects = rects
        self.moved = moved


def _derived(
    base: LevelTable,
    changes: Coords,
    extent: tuple[float, float],
    rects: Coords | None,
) -> LevelTable:
    """``base`` with ``changes`` written over a copy of its table."""
    if changes:
        coords = base.coords.copy()
        coords.update(changes)
    else:
        coords = base.coords
    return LevelTable(coords, extent, rects, list(changes))


class HBStarTreePlacement:
    """Recursive packer and move generator for a design hierarchy."""

    def __init__(self, hierarchy: HierarchyNode, modules: ModuleSet) -> None:
        hierarchy.validate()
        self._hierarchy = hierarchy
        self._modules = modules
        self._nodes: dict[str, HierarchyNode] = {n.name: n for n in hierarchy.walk()}
        self._asf_moves: dict[str, ASFMoveSet] = {}
        self._footprints = {m.name: m.footprint() for m in modules}
        # Levels pack strictly bottom-up, so one reusable skyline serves
        # every level of every coordinate-tier pack.
        self._skyline = Skyline()
        for node in hierarchy.walk():
            if isinstance(node.constraint, SymmetryGroup):
                self._asf_moves[node.name] = ASFMoveSet(modules, node.constraint)

    # -- level items -------------------------------------------------------------

    def level_items(self, node: HierarchyNode) -> list[str]:
        """Names packed by the level tree of ``node``."""
        items = [child.name for child in node.children]
        if isinstance(node.constraint, SymmetryGroup):
            members = node.constraint.member_set()
            items += [m.name for m in node.modules if m.name not in members]
            items.append(_ISLAND)
        elif isinstance(node.constraint, CommonCentroidGroup):
            members = node.constraint.member_set()
            extra = [m.name for m in node.modules if m.name not in members]
            if extra:
                items += extra
                items.append(_ISLAND)  # the unit array enters as one block
            else:
                items = [_ISLAND] + items
        else:
            items += [m.name for m in node.modules]
        return items

    # -- initial state -----------------------------------------------------------

    def initial_state(self, rng: random.Random) -> HBState:
        levels: dict[str, LevelState] = {}
        for name, node in self._nodes.items():
            tree = BStarTree.random(self.level_items(node), rng)
            asf = None
            if isinstance(node.constraint, SymmetryGroup):
                asf = self._asf_moves[name].initial_state(rng)
            levels[name] = LevelState(tree=tree, asf=asf)
        return HBState(levels=levels)

    # -- packing ------------------------------------------------------------------

    def pack(self, state: HBState) -> Placement:
        """Pack the full hierarchy; the result is normalized to origin."""
        placement = self._pack_node(self._hierarchy, state)
        return placement.normalized()

    def _pack_node(self, node: HierarchyNode, state: HBState) -> Placement:
        level = state.levels[node.name]
        sub_placements: dict[str, Placement] = {}

        for child in node.children:
            sub_placements[child.name] = self._pack_node(child, state).normalized()

        if isinstance(node.constraint, SymmetryGroup):
            island = level.asf.pack(self._modules).normalized()
            sub_placements[_ISLAND] = island
        elif isinstance(node.constraint, CommonCentroidGroup):
            array = common_centroid_placement(
                node.constraint, self._modules, variant=level.cc_variant
            ).normalized()
            if _ISLAND in level.tree:
                sub_placements[_ISLAND] = array
            else:
                # The level consists of the array alone.
                return array

        sizes: dict[str, tuple[float, float]] = {}
        for item in level.tree.nodes():
            if item in sub_placements:
                bb = sub_placements[item].bounding_box()
                sizes[item] = (bb.width, bb.height)
            else:
                sizes[item] = self._modules[item].footprint()
        rects = pack_sizes(level.tree, sizes)

        merged = Placement.empty()
        loose = []
        for item, rect in rects.items():
            if item in sub_placements:
                merged = merged.merged_with(
                    sub_placements[item].translated(rect.x0, rect.y0)
                )
            else:
                loose.append(item)
        if loose:
            from ..geometry import PlacedModule

            merged = merged.merged_with(
                Placement.of(
                    PlacedModule(self._modules[item], rects[item]) for item in loose
                )
            )
        return merged

    # -- packing, coordinate tier -------------------------------------------------

    def pack_coords(self, state: HBState) -> Coords:
        """Flat-coordinate twin of :meth:`pack`, and the reference the
        incremental engine is checked against.

        Same bottom-up packing, same arithmetic, but the per-level merge
        moves 4-tuples between dicts instead of building intermediate
        ``Placement`` objects — only the small symmetry-island and
        common-centroid sub-placements still go through the object tier.
        Every level is merged from scratch and the root is normalized.
        Coordinates are bit-identical to ``pack(state)``.
        """
        root = self.pack_levels(state)[self._hierarchy.name]
        return normalize_coords(root.coords)

    def pack_levels(self, state: HBState) -> dict[str, LevelTable]:
        """Every level's table packed from scratch, children before parents."""
        tables: dict[str, LevelTable] = {}
        for node in reversed(self._nodes.values()):
            tables[node.name] = self.pack_level_coords(
                node, state, {child.name: tables[child.name] for child in node.children}
            )
        return tables

    def pack_level_coords(
        self,
        node: HierarchyNode,
        state: HBState,
        sub: Mapping[str, LevelTable],
        base: LevelTable | None = None,
        dirty: str | None = None,
    ) -> LevelTable:
        """Pack one hierarchy level given its children's level tables.

        ``sub`` maps child hierarchy-node names to their tables; a
        child enters the level tree as a block of its table's extent
        (no scan of the child table).  Constraint blocks (symmetry
        island / common-centroid array) are rebuilt here and take the
        one bounding box this level computes.  The level's own extent
        is read off the packing skyline: every item raised it over its
        exact ``(x0, x1)`` span to its exact top, so the right edge and
        the maximum height are ``max(x1)`` / ``max(y1)`` of the merged
        table, and the root item sits at ``(0.0, 0.0)``.

        Without ``base`` the table is merged from scratch.  With
        ``base`` — this level's committed table — the merge is
        copy-on-write: it recomputes only the entries of items whose
        packed offset changed, the ``moved`` names of the ``dirty``
        child (the one repacked against its own base in this
        proposal) and the rebuilt block, through the same ``a + dx``
        additions as the full merge, and writes those that differ
        from ``base``; the result's ``moved`` lists exactly those
        names.
        """
        level = state.levels[node.name]
        block: Coords | None = None
        if isinstance(node.constraint, SymmetryGroup):
            block = placement_to_coords(level.asf.pack(self._modules).normalized())
        elif isinstance(node.constraint, CommonCentroidGroup):
            block = placement_to_coords(
                common_centroid_placement(
                    node.constraint, self._modules, variant=level.cc_variant
                ).normalized()
            )
        if block is not None:
            x0, y0, x1, y1 = bounding_of(block.values())
            block_extent = (x1 - x0, y1 - y0)
            if _ISLAND not in level.tree:
                # The level consists of the array alone.
                if base is None:
                    return LevelTable(block, block_extent, None, None)
                old = base.coords
                changes = {n: e for n, e in block.items() if e != old[n]}
                return _derived(base, changes, block_extent, None)

        sizes: dict[str, tuple[float, float]] = {}
        footprints = self._footprints
        for item in level.tree.nodes():
            if item == _ISLAND:
                sizes[item] = block_extent
            else:
                child = sub.get(item)
                sizes[item] = child.extent if child is not None else footprints[item]
        skyline = self._skyline
        rects = pack_tree_coords(level.tree, sizes, skyline)
        extent = (skyline.rightmost_edge(), skyline.max_height())

        if base is None:
            out: Coords = {}
            for item, rect in rects.items():
                if item == _ISLAND:
                    inner = block
                else:
                    child = sub.get(item)
                    if child is None:
                        out[item] = rect
                        continue
                    inner = child.coords
                dx, dy = rect[0], rect[1]
                for name, (a, b, c, d) in inner.items():
                    out[name] = (a + dx, b + dy, c + dx, d + dy)
            return LevelTable(out, extent, rects, None)

        old = base.coords
        old_rects = base.rects
        changes: Coords = {}
        for item, rect in rects.items():
            was = old_rects[item]
            if item == _ISLAND:
                # rebuilt with the level: any entry may differ
                inner = names = block
            else:
                child = sub.get(item)
                if child is None:
                    if rect != was:
                        changes[item] = rect
                    continue
                inner = child.coords
                if rect[0] != was[0] or rect[1] != was[1]:
                    names = inner
                elif item == dirty:
                    names = child.moved
                else:
                    continue
            dx, dy = rect[0], rect[1]
            for name in names:
                a, b, c, d = inner[name]
                entry = (a + dx, b + dy, c + dx, d + dy)
                # a child entry that moved by an ulp can land on the
                # same float here: only real differences count as moved
                if entry != old[name]:
                    changes[name] = entry
        return _derived(base, changes, extent, rects)

    # -- perturbation ------------------------------------------------------------

    def propose_level(
        self, state: HBState, rng: random.Random
    ) -> tuple[str, LevelState | None, str]:
        """Draw one level perturbation: ``(level name, new level state,
        move kind)``.

        The kind is ``"tree"``, ``"asf"`` or ``"cc"``; it is ``"noop"``,
        with ``None`` for the level state, when the selected level has
        no legal move.  The draw sequence is shared by :meth:`propose`
        and the incremental engine, so both walk the same trajectory
        for a given rng.
        """
        name = rng.choice(list(self._nodes))
        node = self._nodes[name]
        level = state.levels[name]

        choices = []
        if len(level.tree) >= 2:
            choices.append("tree")
        if level.asf is not None and (node.constraint.pairs or len(node.constraint.self_symmetric) > 1):
            choices.append("asf")
        if isinstance(node.constraint, CommonCentroidGroup) and n_variants(node.constraint) > 1:
            choices.append("cc")
        if not choices:
            return name, None, "noop"
        kind = rng.choice(choices)

        if kind == "tree":
            new_level = replace(level, tree=self._perturb_tree(level.tree, rng))
        elif kind == "asf":
            new_level = replace(level, asf=self._asf_moves[name].propose(level.asf, rng))
        else:
            new_level = replace(
                level,
                cc_variant=(level.cc_variant + 1) % n_variants(node.constraint),
            )
        return name, new_level, kind

    def propose(self, state: HBState, rng: random.Random) -> HBState:
        """Perturb one randomly selected tree of the forest (section III-B:
        'one of the HB*-trees should be selected first')."""
        name, new_level, _kind = self.propose_level(state, rng)
        if new_level is None:
            return state
        levels = dict(state.levels)
        levels[name] = new_level
        return HBState(levels=levels)

    @staticmethod
    def _perturb_tree(tree: BStarTree, rng: random.Random) -> BStarTree:
        names = list(tree.nodes())
        out = tree.clone()
        if len(names) < 2:
            return out
        if rng.random() < 0.5:
            a, b = rng.sample(names, 2)
            out.swap_nodes(a, b)
        else:
            name = rng.choice(names)
            out.remove(name)
            parent = rng.choice(list(out.nodes()))
            out.insert(name, parent, rng.choice(("left", "right")))
        return out


class HBIncrementalEngine:
    """Incremental propose/commit/rollback engine for the HB*-tree forest.

    Implements the :class:`repro.anneal.IncrementalEngine` protocol.  A
    perturbation touches exactly one level, so only the path from that
    level to the hierarchy root is repacked, and each step costs what
    it moved:

    * **level tables** — every level's committed :class:`LevelTable`
      (its table, its ``(w, h)`` extent and its items' packed rects) is
      cached; a repacked level sizes its children by their extents and
      reads its own extent off the packing skyline, so no child table
      is scanned and the root extent is the bounding box the cost model
      consumes;
    * **copy-on-write** — a repacked level copies its committed table
      and rewrites only the entries that moved (see
      :meth:`HBStarTreePlacement.pack_level_coords`); when a level moves
      nothing, its ancestors cannot change either and the walk up
      stops;
    * **a moved set** — the root's moved names go to the unified
      model's :class:`~repro.cost.CostEvaluator`, whose
      :class:`~repro.cost.DeltaHPWL` rescans only their nets and whose
      :class:`~repro.cost.DeltaProximity` re-tests only the proximity
      groups they belong to.

    Costs — and, for equal seeds, whole annealing trajectories — are
    bit-identical to the non-cached ``model(hb.pack_coords(state))``
    path (see ``tests/perf/``).

    Telemetry capability, as on the flat engine: every :meth:`propose`
    refreshes :attr:`last_move` (the level move kind) and
    :attr:`last_repack_len` (how many modules the proposal moved), and
    :meth:`cost_breakdown` reports the committed state's terms.
    """

    #: move kind of the most recent proposal ("tree", "asf", "cc",
    #: "noop")
    last_move = "noop"
    #: modules whose coordinates the most recent proposal rewrote
    last_repack_len = 0

    def __init__(self, hb: HBStarTreePlacement, model: CostModel) -> None:
        self._hb = hb
        self._eval = model.evaluator()
        self._root = hb._hierarchy.name
        self._nodes = hb._nodes
        # hierarchy-node name -> parent name, for the dirty path
        self._parents: dict[str, str | None] = {self._root: None}
        for node in hb._hierarchy.walk():
            for child in node.children:
                self._parents[child.name] = node.name
        self._state: HBState | None = None
        self._tables: dict[str, LevelTable] = {}
        self._cost = float("inf")
        # pending proposal
        self._pending_state: HBState | None = None
        self._pending_cost = float("inf")
        self._pending: dict[str, LevelTable] = {}
        self._proposed = False

    # -- setup ---------------------------------------------------------------

    def reset(self, state: HBState) -> float:
        """Adopt ``state``; pack every level; return its cost."""
        self._clear_pending()
        self._state = state
        self._tables = self._hb.pack_levels(state)
        root = self._tables[self._root]
        self._cost = self._eval.reset(root.coords, bounding=(0.0, 0.0) + root.extent)
        return self._cost

    def initial_cost(self) -> float:
        return self._cost

    # -- protocol ------------------------------------------------------------

    def propose(self, rng: random.Random) -> float:
        if self._proposed:
            raise RuntimeError("previous proposal not committed or rolled back")
        name, new_level, kind = self._hb.propose_level(self._state, rng)
        self._proposed = True
        self.last_move = kind
        self.last_repack_len = 0
        if new_level is None:
            self._pending_state = None
            self._pending_cost = self._cost
            return self._cost
        levels = dict(self._state.levels)
        levels[name] = new_level
        candidate = HBState(levels=levels)
        self._pending_state = candidate
        tables = self._tables
        pending = self._pending
        nodes = self._nodes
        parents = self._parents
        pack = self._hb.pack_level_coords
        walk: str | None = name
        dirty = None
        table = None
        while walk is not None:
            base = tables[walk]
            sub = {child.name: tables[child.name] for child in nodes[walk].children}
            if dirty is not None:
                sub[dirty] = table
            table = pack(nodes[walk], candidate, sub, base, dirty)
            if not table.moved:
                # an unchanged table keeps its extent, so the parent
                # would pack the same rects and copy nothing: this
                # level and every ancestor keep their committed
                # tables, and the cost stays as committed
                self._pending_cost = self._cost
                return self._cost
            pending[walk] = table
            dirty = walk
            walk = parents[walk]
        moved = table.moved
        self.last_repack_len = len(moved)
        self._pending_cost = self._eval.propose(
            table.coords, moved, (0.0, 0.0) + table.extent
        )
        return self._pending_cost

    def commit(self) -> None:
        if self._pending_state is not None:
            self._state = self._pending_state
            self._tables.update(self._pending)
            self._eval.commit()
        self._cost = self._pending_cost
        self._clear_pending()

    def rollback(self) -> None:
        if self._pending_state is not None:
            self._eval.rollback()
        self._clear_pending()

    def snapshot(self) -> HBState:
        # HBState is frozen and level states are replaced, never
        # mutated — the current state *is* the snapshot.
        return self._state

    def cost_breakdown(self) -> dict[str, float]:
        """Per-term weighted contributions of the *committed* state.

        Reporting tier (telemetry chunk summaries): scores the cached
        root table and its extent — no repack — with a full term
        rescan, so call it at chunk boundaries, never per step.
        """
        if self._proposed:
            raise RuntimeError("previous proposal not committed or rolled back")
        root = self._tables[self._root]
        return self._eval.model.breakdown(
            root.coords, bounding=(0.0, 0.0) + root.extent
        )

    # -- internals -----------------------------------------------------------

    def _clear_pending(self) -> None:
        self._pending_state = None
        self._pending_cost = self._cost
        self._pending.clear()
        self._proposed = False
