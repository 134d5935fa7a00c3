"""Tests for the design hierarchy tree."""

import pytest

from repro.circuit import (
    ConstraintKind,
    HierarchyNode,
    ProximityGroup,
    SymmetryGroup,
    cluster_by,
)
from repro.geometry import Module


def mods(*names):
    return [Module.hard(n, 2.0, 2.0) for n in names]


@pytest.fixture
def tree():
    dp = HierarchyNode(
        "DP", modules=mods("p1", "p2"),
        constraint=SymmetryGroup("sym", pairs=(("p1", "p2"),)),
    )
    cm = HierarchyNode("CM", modules=mods("n1", "n2"))
    core = HierarchyNode("CORE", children=[dp, cm])
    return HierarchyNode("TOP", modules=mods("c1"), children=[core])


class TestStructure:
    def test_walk_preorder(self, tree):
        assert [n.name for n in tree.walk()] == ["TOP", "CORE", "DP", "CM"]

    def test_walk_any_depth(self):
        """A chain deeper than the recursion limit walks in pre-order."""
        node = HierarchyNode("n0")
        root = node
        for i in range(1, 3000):
            child = HierarchyNode(f"n{i}", children=[HierarchyNode(f"leaf{i}")])
            node.children.insert(0, child)
            node = child
        expected = [f"n{i}" for i in range(3000)]
        expected += [f"leaf{i}" for i in range(2999, 0, -1)]
        assert [n.name for n in root.walk()] == expected

    def test_leaves(self, tree):
        assert {n.name for n in tree.leaves()} == {"DP", "CM"}

    def test_all_modules(self, tree):
        assert [m.name for m in tree.all_modules()] == ["c1", "p1", "p2", "n1", "n2"]

    def test_module_set(self, tree):
        assert len(tree.module_set()) == 5

    def test_basic_module_sets(self, tree):
        assert {n.name for n in tree.basic_module_sets()} == {"TOP", "DP", "CM"}

    def test_depth(self, tree):
        assert tree.depth() == 3
        assert HierarchyNode("leaf", modules=mods("x")).depth() == 1

    def test_find(self, tree):
        assert tree.find("DP").constraint is not None
        with pytest.raises(KeyError):
            tree.find("nope")

    def test_constraint_kind(self, tree):
        assert tree.find("DP").constraint_kind is ConstraintKind.SYMMETRY
        assert tree.find("CM").constraint_kind is ConstraintKind.NONE

    def test_constraints_collected(self, tree):
        assert [c.name for c in tree.constraints()] == ["sym"]


class TestValidation:
    def test_valid_tree(self, tree):
        tree.validate()

    def test_duplicate_node_names(self):
        t = HierarchyNode("X", children=[HierarchyNode("X", modules=mods("a"))])
        with pytest.raises(ValueError):
            t.validate()

    def test_duplicate_module_names(self):
        t = HierarchyNode(
            "T",
            children=[
                HierarchyNode("A", modules=mods("m")),
                HierarchyNode("B", modules=mods("m")),
            ],
        )
        with pytest.raises(ValueError):
            t.validate()

    def test_constraint_referencing_outside_subtree(self):
        bad = HierarchyNode(
            "A",
            modules=mods("a1"),
            constraint=ProximityGroup("p", ("a1", "elsewhere")),
        )
        t = HierarchyNode("T", children=[bad])
        with pytest.raises(ValueError):
            t.validate()

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            HierarchyNode("")


class TestClusterBy:
    def test_groups_by_key(self):
        modules = mods("nmos1", "nmos2", "pmos1", "cap1")
        root = cluster_by(modules, key=lambda m: m.name[:4], prefix="vc")
        root.validate()
        # nmos1/nmos2 grouped; singletons stay at top
        assert {n.name for n in root.children} == {"vc-nmos"}
        assert {m.name for m in root.modules} == {"pmos1", "cap1"}

    def test_all_modules_preserved(self):
        modules = mods("a1", "a2", "b1", "b2", "c1")
        root = cluster_by(modules, key=lambda m: m.name[0])
        assert len(root.all_modules()) == 5
