"""Tests for the B*-tree data structure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bstar import BStarTree
from tests.strategies import names


class TestConstruction:
    def test_empty(self):
        t = BStarTree()
        assert len(t) == 0
        t.validate()

    def test_chain_left_is_row(self):
        t = BStarTree.chain(["a", "b", "c"], direction="left")
        t.validate()
        assert t.root == "a"
        assert t.left["a"] == "b"
        assert t.left["b"] == "c"
        assert t.right["a"] is None

    def test_chain_right_is_stack(self):
        t = BStarTree.chain(["a", "b"], direction="right")
        assert t.right["a"] == "b"

    def test_chain_bad_direction(self):
        with pytest.raises(ValueError):
            BStarTree.chain(["a"], direction="up")

    def test_random_spans_all(self):
        t = BStarTree.random(names(10), random.Random(0))
        t.validate()
        assert set(t.nodes()) == set(names(10))

    def test_preorder_starts_at_root(self):
        t = BStarTree.chain(["a", "b", "c"])
        assert next(iter(t.preorder())) == "a"
        assert list(t.preorder()) == ["a", "b", "c"]


class TestInsertRemove:
    def test_insert_pushes_down(self):
        t = BStarTree.chain(["a", "b"])  # b is left child of a
        t.insert("c", "a", "left")
        t.validate()
        assert t.left["a"] == "c"
        assert t.left["c"] == "b"

    def test_insert_duplicate_rejected(self):
        t = BStarTree.chain(["a"])
        with pytest.raises(ValueError):
            t.insert("a", "a", "left")

    def test_insert_root(self):
        t = BStarTree.chain(["a"])
        t.insert_root("r")
        t.validate()
        assert t.root == "r"
        assert t.left["r"] == "a"

    def test_remove_leaf(self):
        t = BStarTree.chain(["a", "b"])
        t.remove("b")
        t.validate()
        assert len(t) == 1
        assert t.left["a"] is None

    def test_remove_internal_promotes(self):
        t = BStarTree.chain(["a", "b", "c"])
        t.remove("b")
        t.validate()
        assert set(t.nodes()) == {"a", "c"}
        assert t.left["a"] == "c"

    def test_remove_root(self):
        t = BStarTree.chain(["a", "b"])
        t.remove("a")
        t.validate()
        assert t.root == "b"

    def test_remove_last_node(self):
        t = BStarTree.chain(["a"])
        t.remove("a")
        assert t.root is None
        t.validate()

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            BStarTree.chain(["a"]).remove("z")

    def test_move(self):
        t = BStarTree.chain(["a", "b", "c"])
        t.move("c", "a", "right")
        t.validate()
        assert t.right["a"] == "c"


class TestSwap:
    def test_swap_non_adjacent(self):
        t = BStarTree.chain(["a", "b", "c", "d"])
        t.swap_nodes("b", "d")
        t.validate()
        assert t.left["a"] == "d"
        assert t.left["d"] == "c"
        assert t.left["c"] == "b"

    def test_swap_adjacent_parent_child(self):
        t = BStarTree.chain(["a", "b", "c"])
        t.swap_nodes("a", "b")
        t.validate()
        assert t.root == "b"
        assert t.left["b"] == "a"
        assert t.left["a"] == "c"

    def test_swap_root_with_leaf(self):
        t = BStarTree.chain(["a", "b", "c"])
        t.swap_nodes("a", "c")
        t.validate()
        assert t.root == "c"

    def test_swap_same_is_noop(self):
        t = BStarTree.chain(["a", "b"])
        t.swap_nodes("a", "a")
        t.validate()
        assert t.root == "a"


class TestClone:
    def test_clone_independent(self):
        t = BStarTree.chain(["a", "b"])
        c = t.clone()
        c.remove("b")
        assert "b" in t
        assert "b" not in c


class TestRandomOperationSequences:
    @given(st.integers(2, 10), st.integers(0, 10**6), st.lists(st.integers(0, 2), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_under_any_op_sequence(self, n, seed, ops):
        """Property: any sequence of move/swap/remove+insert operations
        keeps the tree a valid B*-tree over the same node set."""
        rng = random.Random(seed)
        ns = names(n)
        t = BStarTree.random(ns, rng)
        for op in ops:
            if op == 0 and len(t) >= 2:  # swap
                a, b = rng.sample(ns, 2)
                t.swap_nodes(a, b)
            elif op == 1 and len(t) >= 2:  # move
                name = rng.choice(ns)
                t.remove(name)
                parent = rng.choice(list(t.nodes()))
                t.insert(name, parent, rng.choice(("left", "right")))
            else:  # insert-root rotation
                name = rng.choice(ns)
                t.remove(name)
                t.insert_root(name, rng.choice(("left", "right")))
            t.validate()
            assert set(t.nodes()) == set(ns)


class TestRemoveChainSplice:
    """remove() splices the preferred-child chain directly; lock it
    against the definitional promotion-swap formulation."""

    @staticmethod
    def _reference_remove(tree: BStarTree, name: str) -> None:
        # the pre-splice implementation: promote until `name` is a leaf
        while True:
            left, right = tree.left[name], tree.right[name]
            if left is None and right is None:
                break
            child = left if left is not None else right
            tree._swap_positions(name, child)
        parent = tree.parent[name]
        if parent is None:
            tree.root = None
        elif tree.left[parent] == name:
            tree.left[parent] = None
        else:
            tree.right[parent] = None
        del tree.left[name]
        del tree.right[name]
        del tree.parent[name]

    @given(st.integers(1, 25), st.integers(0, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_matches_promotion_swaps(self, n, seed):
        rng = random.Random(seed)
        ns = names(n)
        fast = BStarTree.random(ns, rng)
        reference = fast.clone()
        victim = rng.choice(ns)
        fast.remove(victim)
        self._reference_remove(reference, victim)
        assert fast.root == reference.root
        assert fast.left == reference.left
        assert fast.right == reference.right
        assert fast.parent == reference.parent
        fast.validate()


class TestRandomTreeDraws:
    """random() draws each parent by index into the shuffled pool; lock
    it against the definitional draw from the tree's node list."""

    @staticmethod
    def _reference_random(names_, rng: random.Random) -> BStarTree:
        # the O(n^2) formulation: copy the node list on every insertion
        pool = list(names_)
        rng.shuffle(pool)
        if not pool:
            return BStarTree()
        tree = BStarTree(pool[0])
        for name in pool[1:]:
            parent = rng.choice(list(tree.nodes()))
            side = rng.choice(("left", "right"))
            tree.insert(name, parent, side)
        return tree

    @given(st.integers(1, 300), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_matches_node_list_draws(self, n, seed):
        ns = names(n)
        rng_fast, rng_ref = random.Random(seed), random.Random(seed)
        fast = BStarTree.random(ns, rng_fast)
        reference = self._reference_random(ns, rng_ref)
        assert fast.root == reference.root
        assert fast.left == reference.left
        assert fast.right == reference.right
        assert fast.parent == reference.parent
        assert list(fast.nodes()) == list(reference.nodes())
        assert rng_fast.getstate() == rng_ref.getstate()
        fast.validate()

    def test_empty_pool_draws_nothing(self):
        rng = random.Random(5)
        state = rng.getstate()
        assert len(BStarTree.random([], rng)) == 0
        assert rng.getstate() == state
