"""Failure injection: malformed inputs must fail loudly, never corrupt.

Production-quality EDA code fails at the boundary with a clear message —
silent mis-packing is how layout bugs become silicon bugs.
"""

import math
import random

import pytest

from repro.anneal import Annealer, FunctionMoveSet, GeometricSchedule
from repro.bstar import BStarTree, pack
from repro.circuit import Circuit, HierarchyNode, SymmetryGroup
from repro.geometry import Module, ModuleSet, Net, PlacedModule, Placement, Rect
from repro.seqpair import SequencePair, pack_lcs
from repro.shapes import DeterministicConfig, DeterministicPlacer
from repro.sizing import FoldedCascodeSizing, Sense, Spec, SpecSet


class TestGeometryBoundaries:
    def test_nan_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Module.hard("a", float("nan"), 2.0)

    def test_zero_size_module_rejected(self):
        with pytest.raises(ValueError):
            Module.hard("a", 0.0, 2.0)

    def test_placement_rect_footprint_mismatch(self):
        with pytest.raises(ValueError):
            PlacedModule(Module.hard("a", 2, 2), Rect(0, 0, 2, 3))


class TestSequencePairBoundaries:
    def test_pack_with_missing_module(self):
        sp = SequencePair(("a", "b"), ("a", "b"))
        mods = ModuleSet.of([Module.hard("a", 1, 1)])
        with pytest.raises(KeyError):
            pack_lcs(sp, mods)

    def test_sf_group_member_not_in_sequences(self):
        from repro.seqpair import is_symmetric_feasible

        sp = SequencePair(("a", "b"), ("a", "b"))
        g = SymmetryGroup("g", pairs=(("a", "ghost"),))
        with pytest.raises(KeyError):
            is_symmetric_feasible(sp, [g])


class TestBStarBoundaries:
    def test_pack_empty_tree(self):
        p = pack(BStarTree(), ModuleSet.of([Module.hard("a", 1, 1)]))
        assert len(p) == 0

    def test_insert_bad_side(self):
        t = BStarTree.chain(["a"])
        with pytest.raises(ValueError):
            t.insert("b", "a", "sideways")

    def test_move_under_itself(self):
        t = BStarTree.chain(["a", "b"])
        with pytest.raises(ValueError):
            t.move("a", "a", "left")


class TestCircuitBoundaries:
    def test_empty_hierarchy_placer_rejected(self):
        node = HierarchyNode("empty")
        circuit = Circuit("c", node)
        with pytest.raises(ValueError):
            DeterministicPlacer(circuit, DeterministicConfig()).run()

    def test_net_to_unknown_module(self):
        node = HierarchyNode("top", modules=[Module.hard("a", 1, 1)])
        with pytest.raises(ValueError):
            Circuit("c", node, nets=(Net("n", ("a", "ghost")),))


class TestAnnealerBoundaries:
    def test_survives_inf_costs(self):
        def cost(x):
            return float("inf") if x > 5 else float(x)

        annealer = Annealer(
            cost,
            FunctionMoveSet(lambda x, rng: x + rng.choice((-1, 1))),
            GeometricSchedule(t_final=0.01, steps_per_epoch=10),
            random.Random(0),
        )
        result = annealer.run(3)
        assert math.isfinite(result.best_cost)


class TestSizingBoundaries:
    def test_clamp_handles_extremes(self):
        s = FoldedCascodeSizing(
            w_in=1e12, l_in=1e-12, i_in=1e12, nf_in=0
        ).clamped()
        assert 10.0 <= s.w_in <= 600.0
        assert s.nf_in >= 1

    def test_spec_with_zero_bound(self):
        s = Spec("x", Sense.AT_LEAST, 0.0)
        assert s.margin(1.0) == 1.0  # scale falls back to 1

    def test_specset_missing_performance_key(self):
        specs = SpecSet((Spec("gain", Sense.AT_LEAST, 1.0),))
        with pytest.raises(KeyError):
            specs.violations({})
