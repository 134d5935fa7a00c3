"""Circuit design hierarchy.

Section III distinguishes the *exact* hierarchy (the circuit's own
sub-circuit structure) from *virtual* hierarchy (clusters gathered from
device models, functionality or constraints).  Section IV bounds its
enumeration by the same tree: leaves of the hierarchy tree are modules,
and sibling leaves form *basic module sets* small enough to enumerate
exhaustively.

:class:`HierarchyNode` models both flavors; an optional ``constraint``
annotation marks a sub-circuit as symmetric / common-centroid / proximity
(Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

from ..geometry import Module, ModuleSet
from .constraints import CommonCentroidGroup, Constraint, ProximityGroup, SymmetryGroup


class ConstraintKind(Enum):
    """Constraint flavor attached to a hierarchy node."""

    NONE = "none"
    SYMMETRY = "symmetry"
    COMMON_CENTROID = "common-centroid"
    PROXIMITY = "proximity"


@dataclass
class HierarchyNode:
    """A node of the layout design hierarchy tree.

    A node either holds ``modules`` directly (a *basic module set*) or
    ``children`` sub-nodes; mixed nodes are allowed (some devices plus
    sub-circuits, as in Fig. 2's top design).
    """

    name: str
    modules: list[Module] = field(default_factory=list)
    children: list["HierarchyNode"] = field(default_factory=list)
    constraint: Constraint | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("hierarchy node needs a name")

    # -- structure -----------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def constraint_kind(self) -> ConstraintKind:
        if self.constraint is None:
            return ConstraintKind.NONE
        if isinstance(self.constraint, SymmetryGroup):
            return ConstraintKind.SYMMETRY
        if isinstance(self.constraint, CommonCentroidGroup):
            return ConstraintKind.COMMON_CENTROID
        if isinstance(self.constraint, ProximityGroup):
            return ConstraintKind.PROXIMITY
        raise TypeError(f"unknown constraint type {type(self.constraint)!r}")

    def walk(self) -> Iterator["HierarchyNode"]:
        """Pre-order traversal (an explicit stack: one generator at any
        depth, not one per level)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator["HierarchyNode"]:
        for node in self.walk():
            if node.is_leaf:
                yield node

    def all_modules(self) -> list[Module]:
        """All modules in this subtree, pre-order."""
        out: list[Module] = []
        for node in self.walk():
            out.extend(node.modules)
        return out

    def module_set(self) -> ModuleSet:
        return ModuleSet.of(self.all_modules())

    def basic_module_sets(self) -> Iterator["HierarchyNode"]:
        """Nodes whose direct modules form a basic module set (section IV):
        every node that carries modules directly."""
        for node in self.walk():
            if node.modules:
                yield node

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(c.depth() for c in self.children)

    def find(self, name: str) -> "HierarchyNode":
        for node in self.walk():
            if node.name == name:
                return node
        raise KeyError(f"no hierarchy node named {name!r}")

    def validate(self) -> None:
        """Check structural invariants: unique node names, unique module
        names, constraints referencing only subtree modules."""
        node_names = [n.name for n in self.walk()]
        if len(node_names) != len(set(node_names)):
            raise ValueError("duplicate hierarchy node names")
        module_names = [m.name for m in self.all_modules()]
        if len(module_names) != len(set(module_names)):
            raise ValueError("duplicate module names in hierarchy")
        for node in self.walk():
            if node.constraint is not None:
                available = {m.name for m in node.all_modules()}
                missing = node.constraint.member_set() - available
                if missing:
                    raise ValueError(
                        f"constraint {node.constraint.name!r} on node {node.name!r} "
                        f"references modules outside the subtree: {sorted(missing)}"
                    )

    def constraints(self) -> list[Constraint]:
        """All constraints in the subtree, pre-order."""
        return [n.constraint for n in self.walk() if n.constraint is not None]


def cluster_by(
    modules: list[Module], key: Callable[[Module], str], *, prefix: str = "cluster"
) -> HierarchyNode:
    """Build a two-level *virtual hierarchy* by grouping modules by ``key``.

    This is the simple device-model/functionality clustering of [9], [21]:
    modules with the same key end up in one child node, singleton groups
    stay at the top level.
    """
    groups: dict[str, list[Module]] = {}
    for m in modules:
        groups.setdefault(key(m), []).append(m)

    root = HierarchyNode(f"{prefix}-top")
    for group_key in sorted(groups):
        members = groups[group_key]
        if len(members) == 1:
            root.modules.extend(members)
        else:
            root.children.append(HierarchyNode(f"{prefix}-{group_key}", modules=members))
    root.validate()
    return root
