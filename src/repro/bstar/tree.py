"""B*-trees (Chang et al. [5]): ordered binary trees encoding compacted
non-slicing placements.

In a B*-tree, the root is placed at the origin; a *left* child is the
lowest unoccupied position immediately to the right of its parent, a
*right* child sits at the same x as its parent, above it.  Packing a
B*-tree therefore always yields a left/bottom-compacted, overlap-free
placement — the property section III builds on.

The tree is stored as parent/child name maps, cheap to clone for the
annealer's non-destructive perturbations.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence


class BStarTree:
    """A mutable B*-tree over module names."""

    def __init__(self, root: str | None = None) -> None:
        self.root: str | None = root
        self.left: dict[str, str | None] = {}
        self.right: dict[str, str | None] = {}
        self.parent: dict[str, str | None] = {}
        if root is not None:
            self.left[root] = None
            self.right[root] = None
            self.parent[root] = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def chain(cls, names: Sequence[str], *, direction: str = "left") -> "BStarTree":
        """A degenerate tree: a row (``left``) or a stack (``right``)."""
        if direction not in ("left", "right"):
            raise ValueError("direction must be 'left' or 'right'")
        if not names:
            return cls()
        tree = cls(names[0])
        for prev, name in zip(names, names[1:]):
            tree._attach(name, prev, direction)
        return tree

    @classmethod
    def random(cls, names: Iterable[str], rng: random.Random) -> "BStarTree":
        """A uniformly-shaped random tree (random insertion order and slots).

        The names are shuffled, then each is inserted under a parent
        drawn uniformly from the ones already in the tree, on a random
        side.  Those are exactly ``pool[:i]``, in insertion order (which
        is also the order of :meth:`nodes`), so the parent is drawn as
        ``pool[rng.choice(range(i))]``: the same draw, and the same
        tree, as ``rng.choice(list(tree.nodes()))``, without copying
        the node list on every insertion.  Building an ``n``-node tree
        is O(n).
        """
        pool = list(names)
        rng.shuffle(pool)
        if not pool:
            return cls()
        tree = cls(pool[0])
        for i in range(1, len(pool)):
            parent = pool[rng.choice(range(i))]
            side = rng.choice(("left", "right"))
            tree.insert(pool[i], parent, side)
        return tree

    # -- basic structure ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.left)

    def __contains__(self, name: str) -> bool:
        return name in self.left

    def nodes(self) -> Iterator[str]:
        return iter(self.left.keys())

    def preorder(self) -> Iterator[str]:
        """Pre-order traversal (the packing order)."""
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            yield node
            right = self.right[node]
            left = self.left[node]
            if right is not None:
                stack.append(right)
            if left is not None:
                stack.append(left)

    def clone(self) -> "BStarTree":
        """An independent copy.

        ``dict.copy()``, not ``dict(...)``: every move pops keys and
        inserts them again, and on a map with such deleted slots
        ``dict(d)`` merges item by item while ``d.copy()`` still clones
        the table in one block (about 10x faster at 5,000 nodes).
        """
        other = BStarTree()
        other.root = self.root
        other.left = self.left.copy()
        other.right = self.right.copy()
        other.parent = self.parent.copy()
        return other

    def validate(self) -> None:
        """Check tree invariants (used by tests and after perturbations)."""
        if self.root is None:
            if self.left or self.right or self.parent:
                raise ValueError("empty tree with leftover maps")
            return
        seen = list(self.preorder())
        if len(seen) != len(self.left) or set(seen) != set(self.left):
            raise ValueError("tree is not connected or has stray nodes")
        if self.parent[self.root] is not None:
            raise ValueError("root has a parent")
        for node in self.nodes():
            for child in (self.left[node], self.right[node]):
                if child is not None and self.parent[child] != node:
                    raise ValueError(f"parent pointer of {child!r} is stale")

    # -- mutations -----------------------------------------------------------------

    def _attach(self, name: str, parent: str, side: str) -> None:
        slot = self.left if side == "left" else self.right
        if slot[parent] is not None:
            raise ValueError(f"{side} slot of {parent!r} is occupied")
        slot[parent] = name
        self.left[name] = None
        self.right[name] = None
        self.parent[name] = parent

    def insert(self, name: str, parent: str, side: str) -> None:
        """Insert ``name`` as the ``side`` child of ``parent``; an existing
        child is pushed down to the same side of the new node."""
        if name in self.left:
            raise ValueError(f"{name!r} already in tree")
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        slot = self.left if side == "left" else self.right
        displaced = slot[parent]
        slot[parent] = name
        self.left[name] = None
        self.right[name] = None
        self.parent[name] = parent
        if displaced is not None:
            own = self.left if side == "left" else self.right
            own[name] = displaced
            self.parent[displaced] = name

    def insert_root(self, name: str, side: str = "left") -> None:
        """Insert ``name`` as the new root, pushing the old root down."""
        if name in self.left:
            raise ValueError(f"{name!r} already in tree")
        old = self.root
        self.root = name
        self.left[name] = None
        self.right[name] = None
        self.parent[name] = None
        if old is not None:
            slot = self.left if side == "left" else self.right
            slot[name] = old
            self.parent[old] = name

    def remove(self, name: str) -> None:
        """Remove a node; its children are re-linked by promoting a child
        chain (standard B*-tree deletion).

        Promoting the preferred (left-first) child repeatedly is
        equivalent to shifting the whole preferred-child chain up one
        slot: each chain member takes its parent's place, keeping its
        displaced sibling as its other-side child.  The chain is spliced
        directly (one pass, a few pointer writes per link) instead of
        running the O(chain) pairwise position swaps — the resulting
        tree is pointer-for-pointer identical.
        """
        if name not in self.left:
            raise KeyError(name)
        left, right, parent_map = self.left, self.right, self.parent
        # preferred-child chain below `name`: (member, its side, its sibling)
        chain: list[tuple[str, str, str | None]] = []
        node = name
        while True:
            l = left[node]
            r = right[node]
            if l is not None:
                chain.append((l, "left", r))
                node = l
            elif r is not None:
                chain.append((r, "right", None))
                node = r
            else:
                break
        parent = parent_map[name]
        if chain:
            # first chain member takes name's slot …
            head = chain[0][0]
            parent_map[head] = parent
            if parent is None:
                self.root = head
            elif left[parent] == name:
                left[parent] = head
            else:
                right[parent] = head
            # … and every member keeps the next one on its own side,
            # adopting its displaced sibling on the other side.
            for i, (member, side, sibling) in enumerate(chain):
                nxt = chain[i + 1][0] if i + 1 < len(chain) else None
                if side == "left":
                    left[member] = nxt
                    right[member] = sibling
                else:
                    left[member] = sibling
                    right[member] = nxt
                if sibling is not None:
                    parent_map[sibling] = member
                if i:
                    parent_map[member] = chain[i - 1][0]
        elif parent is None:
            self.root = None
        elif left[parent] == name:
            left[parent] = None
        else:
            right[parent] = None
        del left[name]
        del right[name]
        del parent_map[name]

    def _swap_positions(self, a: str, b: str) -> None:
        """Exchange the tree positions of nodes ``a`` and ``b``."""
        if a == b:
            return
        pa, pb = self.parent[a], self.parent[b]
        la, ra = self.left[a], self.right[a]
        lb, rb = self.left[b], self.right[b]

        def slot_of(parent: str, child: str) -> str:
            return "left" if self.left[parent] == child else "right"

        if pa == b or pb == a:
            # adjacent: normalize so that `p` is the parent of `c`
            p, c = (b, a) if pa == b else (a, b)
            side = slot_of(p, c)
            pp = self.parent[p]
            cl, cr = self.left[c], self.right[c]
            pl, pr = self.left[p], self.right[p]
            # child takes parent's place
            self.parent[c] = pp
            if pp is None:
                self.root = c
            elif self.left[pp] == p:
                self.left[pp] = c
            else:
                self.right[pp] = c
            # parent becomes the child on the same side
            if side == "left":
                self.left[c], self.right[c] = p, pr
                if pr is not None:
                    self.parent[pr] = c
            else:
                self.left[c], self.right[c] = pl, p
                if pl is not None:
                    self.parent[pl] = c
            self.parent[p] = c
            self.left[p], self.right[p] = cl, cr
            if cl is not None:
                self.parent[cl] = p
            if cr is not None:
                self.parent[cr] = p
            return

        # non-adjacent swap
        if pa is None:
            self.root = b
        elif self.left[pa] == a:
            self.left[pa] = b
        else:
            self.right[pa] = b
        if pb is None:
            self.root = a
        elif self.left[pb] == b:
            self.left[pb] = a
        else:
            self.right[pb] = a
        self.parent[a], self.parent[b] = pb, pa
        self.left[a], self.left[b] = lb, la
        self.right[a], self.right[b] = rb, ra
        for child in (lb, rb):
            if child is not None:
                self.parent[child] = a
        for child in (la, ra):
            if child is not None:
                self.parent[child] = b

    def swap_nodes(self, a: str, b: str) -> None:
        """Exchange the positions of two nodes (public wrapper)."""
        self._swap_positions(a, b)

    def move(self, name: str, parent: str, side: str) -> None:
        """Remove ``name`` and re-insert it as ``side`` child of ``parent``."""
        if name == parent:
            raise ValueError("cannot move a node under itself")
        self.remove(name)
        if parent not in self.left:
            raise KeyError(f"parent {parent!r} vanished during move")
        self.insert(name, parent, side)
