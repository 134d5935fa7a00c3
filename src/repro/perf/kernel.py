"""The B*-tree packing kernel: tree -> flat coordinates, no objects.

The kernel packs a :class:`~repro.bstar.BStarTree` straight into a
:data:`~repro.perf.coords.Coords` table:

* footprints are precomputed per (module, variant, orientation) at
  construction, so the loop does two dict lookups instead of a
  ``Module.footprint`` call per node;
* the traversal is iterative (explicit stack) — degenerate chain trees
  of any depth pack without recursion;
* the skyline is a reusable parallel-list structure with an O(1) reset
  and snapshot/restore for the suffix packers' checkpoints, so one
  kernel instance serves an entire annealing run with no per-step
  allocation beyond the output dict;
* :func:`pack_suffix` is the one packing loop: full packs
  (:func:`pack_tree_coords`) and the flat engines' in-place
  dirty-suffix repack both run it.

Coordinates are bit-identical to ``repro.bstar.packing.pack`` — same
traversal order, same ``x + w`` / ``y + h`` arithmetic, same exact
min/max skyline queries (verified in ``tests/perf/``).
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt
from typing import Mapping, Sequence

from ..circuit import ProximityGroup
from ..geometry import ModuleSet, Net, Orientation, Placement, oriented_sizes
from .coords import Coords, coords_to_placement

_INF = float("inf")

#: a skyline snapshot: (starts, heights) list copies
SkylineSnapshot = tuple[list[float], list[float]]


class Skyline:
    """Contour over x >= 0 as parallel ``starts`` / ``heights`` lists.

    Functional twin of :class:`repro.bstar.Contour`, tuned for the hot
    loop.  Segment ``i`` spans ``[starts[i], starts[i+1])`` at height
    ``heights[i]``; starts are strictly increasing and end in one
    ``inf`` sentinel (``len(starts) == len(heights) + 1``), so the query
    is a C-level ``bisect`` plus a scan to the right edge that needs no
    bounds check.  Heights come out of the very same ``max`` /
    ``y + h`` float operations as the object tier, so packings agree
    bit for bit (see ``tests/perf/``).
    """

    __slots__ = ("_starts", "_heights")

    def __init__(self) -> None:
        self._starts: list[float] = [0.0, _INF]
        self._heights: list[float] = [0.0]

    def reset(self) -> None:
        """Return to the flat initial skyline."""
        self._starts[:] = (0.0, _INF)
        self._heights[:] = (0.0,)

    def snapshot(self) -> SkylineSnapshot:
        """An immutable-by-convention copy of the current profile.

        The incremental engine checkpoints the skyline at fixed pre-order
        strides; snapshots are never mutated, only :meth:`restore`\\ d
        (which copies again), so stored checkpoints stay valid.
        """
        return (self._starts.copy(), self._heights.copy())

    def restore(self, snapshot: SkylineSnapshot) -> None:
        """Load a snapshot taken by :meth:`snapshot`."""
        starts, heights = snapshot
        self._starts[:] = starts
        self._heights[:] = heights

    def max_height(self) -> float:
        """Maximum height over the whole skyline (exact max, no rounding)."""
        return max(self._heights)

    def rightmost_edge(self) -> float:
        """The right edge of the rightmost raised interval (0.0 if flat).

        Every placed module raised the skyline over its exact
        ``(x0, x1)`` span, so this is bit-identical to ``max(x1)`` over
        the placed modules.  (A zero-height tail always trails the
        raised region, so the scan from the right is short.)
        """
        heights = self._heights
        for i in range(len(heights) - 1, -1, -1):
            if heights[i] != 0.0:
                return self._starts[i + 1]
        return 0.0

    def raise_over(self, x0: float, x1: float, h: float) -> float:
        """Fused query-and-place: return the height over (x0, x1) and
        raise the skyline to ``height + h`` there.

        Exact for any ``x0``, including one strictly inside a segment;
        :func:`pack_suffix` inlines a B*-tree-specialized splice and is
        tested against this method and :class:`repro.bstar.Contour`.
        """
        starts = self._starts
        # segment containing x0: last start <= x0 (starts[0] == 0.0 <= x0)
        i = bisect_right(starts, x0) - 1
        # segments covering any of (x0, x1): starts strictly below x1
        j = i + 1
        while starts[j] < x1:
            j += 1
        best = max(self._heights[i:j])
        self.place(x0, x1, best + h)
        return best

    def place(self, x0: float, x1: float, top: float) -> None:
        """Raise the skyline over ``[x0, x1)`` to exactly ``top`` (the
        twin of :meth:`repro.bstar.Contour.place`, exact for any x0)."""
        starts = self._starts
        heights = self._heights
        i = bisect_right(starts, x0) - 1
        j = i + 1
        while starts[j] < x1:
            j += 1
        tail = heights[j - 1]
        if starts[i] < x0:
            # segment i keeps its part left of x0
            i += 1
        if x1 < starts[j]:
            starts[i:j] = (x0, x1)
            heights[i:j] = (top, tail)
        else:
            starts[i:j] = (x0,)
            heights[i:j] = (top,)


def default_stride(n: int) -> int:
    """Checkpoint stride for an ``n``-module suffix packer.

    A repack restores one checkpoint and replays at most ``stride - 1``
    cached rectangles, while a move re-snapshots the skyline once per
    ``stride`` repacked slots; ``isqrt(n)`` balances the two as the
    design grows (floored at 8 for small designs).
    """
    return max(8, isqrt(n))


def _stack_at(
    tree, order: Sequence[str], coords: Coords, k: int
) -> list[tuple[str, float, int]]:
    """The packing DFS stack just before pre-order position ``k``.

    Entries are ``(name, x, segment)``, where ``segment`` is the skyline
    index of the boundary at ``x``, or -1 when the packer must search
    for it.  Rebuilt in O(depth) from ``tree`` (possibly perturbed):
    walking up from the prefix's last node ``u = order[k-1]``, every
    ancestor left-edge with a pending right child contributes one stack
    entry (at the ancestor's cached x), topped by ``u``'s own pending
    children.  All nodes consulted live in the unchanged prefix
    ``order[:k]``, so their cached ``coords`` are valid.
    """
    if k == 0:
        root = tree.root
        return [] if root is None else [(root, 0.0, 0)]
    left, right, parent = tree.left, tree.right, tree.parent
    u = order[k - 1]
    pending: list[tuple[str, float, int]] = []  # nearest-ancestor first
    child = u
    node = parent[u]
    while node is not None:
        if left[node] == child:
            r = right[node]
            if r is not None:
                pending.append((r, coords[node][0], -1))
        child = node
        node = parent[node]
    pending.reverse()
    cu = coords[u]
    r = right[u]
    if r is not None:
        pending.append((r, cu[0], -1))
    l = left[u]
    if l is not None:
        pending.append((l, cu[2], -1))
    return pending


def pack_suffix(
    tree,
    sizes: Mapping[str, tuple[float, float]],
    skyline: Skyline,
    k: int = 0,
    order: Sequence[str] = (),
    coords: Coords | None = None,
    ckpts: Sequence[SkylineSnapshot] = (),
    stride: int = 1,
    log: list | None = None,
) -> tuple[Coords | list[str], list[tuple[int, SkylineSnapshot]]]:
    """Pack pre-order positions ``>= k`` of ``tree``: the one B*-tree
    packing loop.

    ``order`` / ``coords`` / ``ckpts`` describe a packing of the same
    prefix ``order[:k]`` (the caller's committed state): the skyline is
    restored from the checkpoint at ``k // stride``, the cached prefix
    tail is replayed onto it, the DFS stack at ``k`` is rebuilt
    (:func:`_stack_at`), and the suffix is packed.  With no ``ckpts`` the
    pack starts from a flat skyline (``k`` must then be 0).

    Returns ``(packed, snaps)``: the suffix's ``name -> (x0, y0, x1,
    y1)`` table in its new pre-order, and ``(slot, snapshot)`` for every
    checkpoint slot the suffix passed (the skyline just before position
    ``slot * stride``).  Inputs are never written, except the scratch
    ``skyline``, which ends as the full packing's profile.

    With a ``log`` list the suffix is packed *in place* instead (the
    flat engines' step): each rectangle that differs from its
    ``coords`` entry is written there, with ``(name, old entry)``
    appended to ``log``, and ``packed`` is the suffix's names in their
    new pre-order.  Full packs keep the dict output: packed in place
    into an empty table, every module would also be looked up, logged
    and listed, which measured 10-35% slower per full pack (12 to
    5,000 modules), 10% on a 5,000-module ``finalize`` and 3-4% on
    HB*-tree walks, whose levels repack in full.

    Every module of a B*-tree packing starts on a skyline boundary: its
    x is its parent's x or x1, and nothing packed in between removes
    that boundary.  So the splice writes only what changed: a module
    over one segment rewrites one height and inserts its right edge,
    one over two segments moves one boundary, and only wider spans
    resize by slice.  Nor does the loop search the skyline for a
    module's segment: a left child packs right after its parent, at the
    boundary that follows the parent's segment, and a right child packs
    after its parent's left subtree, which splices only to the right of
    the parent's segment, so the parent's index still holds.  Only the
    O(depth) entries of a resumed stack are searched (``bisect``).
    Heights come out of the same ``max`` / ``y + h`` float operations
    as the object tier (:class:`repro.bstar.Contour`), so packings
    agree bit for bit.
    """
    starts = skyline._starts
    heights = skyline._heights
    next_ckpt = -1
    if ckpts:
        c = k // stride
        skyline.restore(ckpts[c])
        # replay the cached tail of the prefix (unchanged rectangles)
        place = skyline.place
        for idx in range(c * stride, k):
            x, _y0, x1, top = coords[order[idx]]
            place(x, x1, top)
        next_ckpt = (c + 1) * stride
    else:
        skyline.reset()
    if log is None:
        packed: Coords | list[str] = {}
    else:
        packed = []
        push_name = packed.append
        push_log = log.append
        coords_get = coords.get
    snaps: list[tuple[int, SkylineSnapshot]] = []
    stack = _stack_at(tree, order, coords, k)
    push = stack.append
    pop = stack.pop
    tree_left, tree_right = tree.left, tree.right
    idx = k
    while stack:
        name, x, i = pop()
        if i < 0:
            # a resumed entry: search for its boundary
            i = bisect_right(starts, x) - 1
            if starts[i] != x:
                # x inside segment i (never in a B*-tree packing): split
                # the segment there, which leaves the profile unchanged
                i += 1
                starts.insert(i, x)
                heights.insert(i, heights[i - 1])
        while True:
            if idx == next_ckpt:
                snaps.append((idx // stride, (starts.copy(), heights.copy())))
                next_ckpt += stride
            w, h = sizes[name]
            x1 = x + w
            end = starts[i + 1]
            if x1 <= end:
                # one segment: raise it, keeping its tail past x1
                y = heights[i]
                top = y + h
                heights[i] = top
                if x1 < end:
                    starts.insert(i + 1, x1)
                    heights.insert(i + 1, y)
            elif x1 <= (end := starts[i + 2]):
                # two segments: the boundary between them moves to x1
                y = heights[i]
                tail = heights[i + 1]
                if tail > y:
                    y = tail
                top = y + h
                heights[i] = top
                if x1 < end:
                    starts[i + 1] = x1
                else:
                    del starts[i + 1]
                    del heights[i + 1]
            else:
                j = i + 3
                while starts[j] < x1:
                    j += 1
                y = max(heights[i:j])
                top = y + h
                if x1 < starts[j]:
                    starts[i + 1:j] = (x1,)
                    heights[i:j] = (top, heights[j - 1])
                else:
                    del starts[i + 1:j]
                    heights[i:j] = (top,)
            if log is None:
                packed[name] = (x, y, x1, top)
            else:
                push_name(name)
                quad = (x, y, x1, top)
                old = coords_get(name)
                if old != quad:
                    push_log((name, old))
                    coords[name] = quad
            idx += 1
            right = tree_right[name]
            if right is not None:
                # it packs after this node's left subtree, which lies at
                # x >= x1 and so splices only past segment i: the
                # boundary at x keeps index i until then
                push((right, x, i))
            name = tree_left[name]
            if name is None:
                break
            # the left child packs next, at x1: the boundary the splice
            # just left right after segment i, so no search is needed
            x = x1
            i += 1
    return packed, snaps


def pack_tree_coords(
    tree,
    sizes: Mapping[str, tuple[float, float]],
    skyline: Skyline | None = None,
) -> Coords:
    """Pack raw (w, h) footprints into a coordinate table.

    Flat twin of :func:`repro.bstar.packing.pack_sizes`: identical
    traversal order (pre-order, left subtree before right) and identical
    arithmetic, returning 4-tuples instead of :class:`Rect` objects —
    :func:`pack_suffix` run from position 0 with no checkpoints.  Pass a
    ``skyline`` to reuse its storage across calls.
    """
    return pack_suffix(tree, sizes, skyline or Skyline())[0]


class BStarKernel:
    """Reusable pack-and-cost engine for B*-tree annealing.

    Construct once per placement problem; every annealing step then calls
    :meth:`cost` (or :meth:`pack`), which touches only precomputed
    tables, the reusable skyline and one output dict.  The rich
    :class:`Placement` is materialized by :meth:`placement` for the
    best/final state only.  The incremental and vector engines read its
    footprint tables and cost model, never its skyline, so a
    :class:`~repro.bstar.BStarPlacer` hands its one kernel to every
    engine it builds.
    """

    def __init__(
        self,
        modules: ModuleSet,
        nets: tuple[Net, ...] = (),
        proximity: tuple[ProximityGroup, ...] = (),
        config=None,
    ) -> None:
        # deferred import: repro.cost imports repro.perf.coords, so the
        # model builder must not be pulled in at perf import time
        from ..cost.model import model_for_config

        self._modules = modules
        self._skyline = Skyline()
        self._cost_model = (
            model_for_config(modules, nets, proximity, config)
            if config is not None
            else None
        )
        # footprint table: name -> variant index -> orientation -> (w, h)
        self._footprints: dict[str, list[dict[Orientation, tuple[float, float]]]] = {
            m.name: [oriented_sizes(v.width, v.height) for v in m.variants]
            for m in modules
        }
        # default footprints (variant 0, R0): the pack loop copies this
        # table and overrides only the explicitly rotated/reshaped
        # modules, so the per-node work is a single dict lookup.
        self._default_sizes: dict[str, tuple[float, float]] = {
            m.name: self._footprints[m.name][0][Orientation.R0] for m in modules
        }

    def resolved_sizes(
        self,
        orientations: Mapping[str, Orientation] | None = None,
        variants: Mapping[str, int] | None = None,
    ) -> Mapping[str, tuple[float, float]]:
        """The effective footprint table for an override pair.

        Copy-on-default: overrides are normalized first, and entries
        whose footprint equals the default (variant 0, R0 — e.g. a
        square module rotated, or an explicit variant-0 entry) are
        dropped; when nothing survives, the shared default table is
        returned without any copy at all.
        """
        sizes = self._default_sizes
        if not orientations and not variants:
            return sizes
        footprints = self._footprints
        overrides: dict[str, tuple[float, float]] = {}
        if orientations:
            for name, orient in orientations.items():
                variant = variants.get(name, 0) if variants else 0
                wh = footprints[name][variant][orient]
                if wh != sizes[name]:
                    overrides[name] = wh
        if variants:
            for name, variant in variants.items():
                if not orientations or name not in orientations:
                    wh = footprints[name][variant][Orientation.R0]
                    if wh != sizes[name]:
                        overrides[name] = wh
        if not overrides:
            return sizes
        sizes = sizes.copy()
        sizes.update(overrides)
        return sizes

    @property
    def model(self):
        """The kernel's :class:`~repro.cost.CostModel` (``None`` when
        the kernel was built without a cost config)."""
        return self._cost_model

    def pack(
        self,
        tree,
        orientations: Mapping[str, Orientation] | None = None,
        variants: Mapping[str, int] | None = None,
    ) -> Coords:
        """Pack a tree into flat coordinates (bit-identical to ``pack()``)."""
        return pack_tree_coords(tree, self.resolved_sizes(orientations, variants), self._skyline)

    def cost(
        self,
        tree,
        orientations: Mapping[str, Orientation] | None = None,
        variants: Mapping[str, int] | None = None,
    ) -> float:
        """Pack and evaluate in one step (requires a ``config``)."""
        if self._cost_model is None:
            raise ValueError("BStarKernel was built without a cost config")
        return self._cost_model(self.pack(tree, orientations, variants))

    def placement(
        self,
        tree,
        orientations: Mapping[str, Orientation] | None = None,
        variants: Mapping[str, int] | None = None,
    ) -> Placement:
        """Materialize the rich :class:`Placement` (boundary tier)."""
        return coords_to_placement(
            self.pack(tree, orientations, variants), self._modules, orientations, variants
        )
