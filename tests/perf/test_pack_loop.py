"""The one B*-tree packing loop, against the object tier and itself.

:func:`repro.perf.kernel.pack_suffix` serves full packs
(``pack_tree_coords``) and the dirty-suffix repack of both flat
engines' in-place step, and its skyline splice writes only what
changed (one height and an insert over one segment, one moved
boundary over two, a slice over more).  Float sizes rarely put a
right edge exactly on an existing boundary, so these tests draw small
*integer* sizes, where edges coincide all the time and modules span
one, two and several segments; every table must equal the object-tier
:func:`repro.bstar.packing.pack` bit for bit.  The checkpoint stride
is a pure speed knob: every proposal's cost is the same at any stride.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bstar import BStarPlacerConfig
from repro.bstar.contour import Contour
from repro.bstar.packing import pack
from repro.bstar.tree import BStarTree
from repro.geometry import Module, ModuleSet, Net, Orientation
from repro.perf import (
    BStarKernel,
    IncrementalBStarEngine,
    Skyline,
    VectorBStarEngine,
    pack_tree_coords,
    placement_to_coords,
    vector,
)
from repro.perf.kernel import default_stride, pack_suffix

from tests.strategies import mixed_module_sets


@st.composite
def integer_module_sets(draw, min_size: int = 2, max_size: int = 16) -> ModuleSet:
    """Hard modules with integer sides 1..6 (some rotatable)."""
    n = draw(st.integers(min_size, max_size))
    side = st.integers(1, 6)
    return ModuleSet.of(
        [
            Module.hard(f"m{i}", float(draw(side)), float(draw(side)),
                        rotatable=draw(st.booleans()))
            for i in range(n)
        ]
    )


def _nets(names, rng):
    return tuple(Net(f"n{i}", tuple(rng.sample(names, 2))) for i in range(len(names)))


def _object_coords(mods, state):
    """The object tier's packing of a state, as a coordinate table."""
    return placement_to_coords(pack(state.tree, mods, state.orientations, state.variants))


def _random_orientations(mods, rng):
    return {
        m.name: rng.choice((Orientation.R90, Orientation.R180, Orientation.R270))
        for m in mods
        if rng.random() < 0.5
    }


def _span_counts(coords):
    """How many placements covered one, two and three-or-more skyline
    segments, replaying a packed table in its (pre-)order."""
    sky = Skyline()
    counts = {1: 0, 2: 0, 3: 0}
    for x0, y0, x1, y1 in coords.values():
        starts = sky._starts
        span = bisect_left(starts, x1) - (bisect_right(starts, x0) - 1)
        counts[min(span, 3)] += 1
        assert sky.raise_over(x0, x1, y1 - y0) == y0
    return counts


class TestAgainstObjectTier:
    @settings(max_examples=60, deadline=None)
    @given(integer_module_sets(), st.integers(0, 2**31))
    def test_pack_tree_coords(self, mods, seed):
        rng = random.Random(seed)
        tree = BStarTree.random(mods.names(), rng)
        orientations = _random_orientations(mods, rng)
        sizes = BStarKernel(mods).resolved_sizes(orientations)
        placement = pack(tree, mods, orientations)
        assert pack_tree_coords(tree, sizes) == placement_to_coords(placement)

    def test_integer_sizes_span_every_splice_case(self):
        """The draws above really hit all three splice shapes."""
        rng = random.Random(7)
        totals = {1: 0, 2: 0, 3: 0}
        for _ in range(20):
            mods = ModuleSet.of(
                [Module.hard(f"m{i}", float(rng.randint(1, 6)), float(rng.randint(1, 6)))
                 for i in range(12)]
            )
            tree = BStarTree.random(mods.names(), rng)
            for span, count in _span_counts(BStarKernel(mods).pack(tree)).items():
                totals[span] += count
        assert all(totals.values()), totals

    @settings(max_examples=40, deadline=None)
    @given(
        integer_module_sets(),
        st.integers(0, 2**31),
        st.sampled_from([1, 2, 3, None]),
    )
    def test_incremental_engine_committed_table(self, mods, seed, stride):
        rng = random.Random(seed)
        config = BStarPlacerConfig(wirelength_weight=0.5)
        engine = IncrementalBStarEngine(mods, _nets(mods.names(), rng), (), config,
                                        stride=stride)
        engine.reset(engine.initial_state(rng))
        for _ in range(40):
            engine.propose(rng)
            if rng.random() < 0.6:
                engine.commit()
            else:
                engine.rollback()
            assert engine._coords == _object_coords(mods, engine.snapshot())

    @settings(max_examples=40, deadline=None)
    @given(
        integer_module_sets(),
        st.integers(0, 2**31),
        st.sampled_from([1, 2, 3, None]),
    )
    def test_vector_engine_committed_table(self, mods, seed, stride):
        rng = random.Random(seed)
        config = BStarPlacerConfig(wirelength_weight=0.5)
        engine = VectorBStarEngine(mods, _nets(mods.names(), rng), (), config,
                                   stride=stride)
        engine.reset(engine.initial_state(rng))
        # a 2-slot window floor, so small sets draw windowed moves too
        with mock.patch.object(vector, "_WINDOW_MIN", 2):
            for _ in range(30):
                engine.propose(rng)
                if rng.random() < 0.6:
                    engine.commit()
                else:
                    engine.rollback()
                assert engine._coords == _object_coords(mods, engine.snapshot())


class TestGeneralSplice:
    def test_skyline_module_inside_a_segment(self):
        """A module that starts strictly inside a segment (never in a
        B*-tree packing) splits it exactly like the Contour reference."""
        skyline, contour = Skyline(), Contour()
        for x0, x1, h in ((0.0, 4.0, 3.0), (2.0, 6.0, 1.0), (1.0, 3.0, 2.0)):
            expected = contour.height_over(x0, x1)
            contour.place(x0, x1, expected + h)
            assert skyline.raise_over(x0, x1, h) == expected
        inf = float("inf")
        assert skyline.snapshot() == ([0.0, 1.0, 3.0, 6.0, inf], [3.0, 6.0, 4.0, 0.0])
        assert [(a, b, y) for a, b, y in contour.profile()] == [
            (0.0, 1.0, 3.0), (1.0, 3.0, 6.0), (3.0, 6.0, 4.0), (6.0, inf, 0.0)
        ]

    def test_pack_suffix_module_inside_a_segment(self):
        """The loop's general path: resumed over a checkpoint whose
        profile has no boundary at the next module's x, it packs that
        module exactly as ``Skyline.raise_over`` does."""
        tree = BStarTree.chain(["a", "b"])
        sizes = {"a": (2.5, 1.0), "b": (3.0, 1.0)}
        inf = float("inf")
        profile = ([0.0, 4.0, inf], [5.0, 0.0])
        sky = Skyline()
        packed, snaps = pack_suffix(
            tree, sizes, sky, 1, ["a", "b"], {"a": (0.0, 0.0, 2.5, 1.0)},
            [Skyline().snapshot(), profile], 1,
        )
        reference = Skyline()
        reference.restore(profile)
        y = reference.raise_over(2.5, 5.5, 1.0)
        assert (packed, snaps) == ({"b": (2.5, y, 5.5, y + 1.0)}, [])
        assert sky.snapshot() == reference.snapshot()


class _ForcedSwaps:
    """An engine's move source that swaps the node at a chosen pre-order
    position with the last node, so the dirty index is exactly that
    position; everything else is delegated to the real move set."""

    def __init__(self, engine, position: int) -> None:
        self._moves = engine._moves
        self._engine = engine
        self._position = position

    def __getattr__(self, name):
        return getattr(self._moves, name)

    def apply(self, tree, orientations, variants, rng):
        order = self._engine._order
        return self._moves.swap_named(tree, order[self._position], order[-1])

    def apply_windowed(self, tree, orientations, variants, rng, order, lo):
        return self._moves.swap_named(tree, order[self._position], order[-1])


class TestStride:
    @settings(max_examples=4, deadline=None)
    @given(mixed_module_sets(min_size=81, max_size=100), st.integers(0, 2**31))
    def test_stride_changes_no_cost(self, mods, seed):
        """Stride 1, 8 and the derived default give every proposal the
        same cost, for both engines and both vector evaluators, over a
        random walk and then at dirty indices 0 and every multiple of
        each stride."""
        n = len(mods)
        derived = default_stride(n)
        assert derived not in (1, 8)
        rng = random.Random(seed)
        nets = _nets(mods.names(), rng)
        config = BStarPlacerConfig(wirelength_weight=0.5, aspect_weight=0.2)
        strides = (1, 8, None)
        families = [
            [IncrementalBStarEngine(mods, nets, (), config, stride=s) for s in strides],
            [VectorBStarEngine(mods, nets, (), config, stride=s, evaluator=ev)
             for ev in ("vector", "scalar") for s in strides],
        ]
        initial = families[0][0].initial_state(random.Random(seed))
        positions = sorted(
            {0} | set(range(8, n - 1, 8)) | set(range(derived, n - 1, derived))
        )
        for family in families:
            assert len({engine.reset(initial) for engine in family}) == 1
            rngs = [random.Random(seed + 1) for _ in family]
            chooser = random.Random(seed + 2)
            for step in range(200 + len(positions)):
                forced = step >= 200
                if forced:
                    position = positions[step - 200]
                    for engine in family:
                        engine._moves = _ForcedSwaps(engine, position)
                costs = {engine.propose(r) for engine, r in zip(family, rngs)}
                assert len(costs) == 1, f"step {step}: {costs}"
                keep = chooser.random() < 0.5
                for engine in family:
                    if keep:
                        engine.commit()
                    else:
                        engine.rollback()
                    if forced:
                        engine._moves = engine._moves._moves
            tables = [engine._coords for engine in family]
            assert all(table == tables[0] for table in tables)
