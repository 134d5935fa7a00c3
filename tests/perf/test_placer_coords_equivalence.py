"""Coordinate-tier equivalence for the sequence-pair and slicing flows,
plus the satellite behaviors (bounding-box cache, hoisted move tables)."""

from __future__ import annotations

import math
import random

import pytest

from repro.circuit import SymmetryGroup
from repro.cost import net_hpwl
from repro.geometry import Module, ModuleSet, Net, Placement, Rect, total_hpwl
from repro.perf import DeltaHPWL, hpwl_of, placement_to_coords, resolve_nets
from repro.seqpair import SequencePairPlacer
from repro.seqpair.moves import SymmetricMoveSet
from repro.seqpair.placer import PlacerConfig
from repro.seqpair.symmetry import pack_symmetric, pack_symmetric_coords
from repro.shapes import ShapeFunction
from repro.slicing.packing import shape_function_of
from repro.slicing.polish import PolishExpression


def _sym_problem(seed=1, extra=10):
    rng = random.Random(seed)
    mods = ModuleSet.of(
        [
            Module.hard("a1", 4, 6),
            Module.hard("a2", 4, 6),
            Module.hard("c", 5, 3, rotatable=False),
        ]
        + [Module.hard(f"m{i}", rng.uniform(1, 8), rng.uniform(1, 8)) for i in range(extra)]
    )
    groups = (SymmetryGroup("g", pairs=(("a1", "a2"),), self_symmetric=("c",)),)
    names = mods.names()
    nets = tuple(
        Net(f"n{i}", tuple(rng.sample(names, 2))) for i in range(8)
    )
    return mods, groups, nets


class TestSeqPairCoords:
    @pytest.mark.parametrize("seed", range(8))
    def test_coords_match_pack_symmetric(self, seed):
        mods, groups, _ = _sym_problem(seed)
        moves = SymmetricMoveSet(mods, groups)
        rng = random.Random(seed)
        state = moves.initial_state(rng)
        for _ in range(15):
            xs, ys, sizes = pack_symmetric_coords(
                state.sp, mods, groups, state.orientations, state.variants
            )
            placement = pack_symmetric(
                state.sp, mods, groups, state.orientations, state.variants
            )
            for p in placement:
                assert (xs[p.name], ys[p.name]) == (p.rect.x0, p.rect.y0)
                # sizes are measured at the base LCS position; the final
                # rect edge is x0 + w with the *raised* x0 — compare the
                # edges the cost path actually uses.
                w, h = sizes[p.name]
                assert (xs[p.name] + w, ys[p.name] + h) == (p.rect.x1, p.rect.y1)
            state = moves.propose(state, rng)

    def test_cost_matches_object_formula(self):
        mods, groups, nets = _sym_problem()
        config = PlacerConfig(wirelength_weight=0.5, aspect_weight=0.1)
        placer = SequencePairPlacer(mods, groups, nets, config)
        # the legacy normalization scales, computed from first principles
        area_scale = max(mods.total_module_area(), 1e-12)
        wl_scale = max(area_scale**0.5 * max(len(nets), 1), 1e-12)

        def reference(state):
            placement = placer.pack(state)
            bb = placement.bounding_box()
            cost = config.area_weight * bb.area / area_scale
            if nets and config.wirelength_weight:
                cost += (
                    config.wirelength_weight
                    * total_hpwl(nets, placement)
                    / wl_scale
                )
            if config.aspect_weight and bb.width > 0:
                ratio = bb.height / bb.width
                deviation = max(ratio, 1.0 / ratio) / max(config.target_aspect, 1e-12)
                cost += config.aspect_weight * max(0.0, deviation - 1.0)
            return cost

        rng = random.Random(3)
        state = placer._moves.initial_state(rng)
        for _ in range(25):
            assert placer.cost(state) == reference(state)
            state = placer._moves.propose(state, rng)


class TestSlicingCoords:
    @pytest.mark.parametrize("seed", range(6))
    def test_shape_coords_match_placement(self, seed):
        rng = random.Random(seed)
        mods = ModuleSet.of(
            [Module.hard(f"b{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(9)]
        )
        expr = PolishExpression.random(mods.names(), rng)
        sf = shape_function_of(expr, mods, max_shapes=16)
        for shape in sf.shapes:
            assert shape.coords() == placement_to_coords(shape.placement())

    def test_module_shape_function_coords(self):
        module = Module.soft("s", 24.0)
        sf = ShapeFunction.from_module(module)
        for shape in sf.shapes:
            assert shape.coords() == placement_to_coords(shape.placement())


class TestResolvedHpwl:
    def test_matches_total_hpwl(self):
        """hpwl_of, total_hpwl and DeltaHPWL.reset agree exactly, also on
        a net set whose left-to-right total differs from a compensated
        one (builtin sum() from Python 3.12)."""
        from repro.bstar.packing import pack
        from repro.bstar.tree import BStarTree

        rng = random.Random(7)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 5), rng.uniform(1, 5)) for i in range(10)]
        )
        names = mods.names()
        nets = tuple(
            [Net(f"two{i}", tuple(rng.sample(names, 2)), weight=rng.uniform(0.5, 2)) for i in range(6)]
            + [Net(f"multi{i}", tuple(rng.sample(names, 4))) for i in range(3)]
            + [Net("ghost", ("m0", "nowhere"))]  # pin outside the module set
        )
        # unit squares one apart in a row: ten 0.1-weight unit nets, each
        # worth 0.1 -- 0.9999999999999999 in order, 1.0 compensated
        row = ModuleSet.of([Module.hard(f"r{i}", 1.0, 1.0) for i in range(11)])
        chain = tuple(
            Net(f"c{i}", (f"r{i}", f"r{i + 1}"), weight=0.1) for i in range(10)
        )
        inputs = [
            (nets, mods, pack(BStarTree.random(names, rng), mods)),
            (chain, row, pack(BStarTree.chain(row.names()), row)),
        ]
        for nets, mods, placement in inputs:
            names = mods.names()
            resolved = resolve_nets(nets, names)
            coords = placement_to_coords(placement)
            expected = hpwl_of(resolved, coords)
            assert total_hpwl(nets, placement) == expected
            assert DeltaHPWL(resolved, names).reset(coords) == expected
        # the chain (last input) discriminates: its exact total is 1.0
        assert expected == 0.9999999999999999
        assert math.fsum(net_hpwl(w, pins, coords) for w, pins in resolved) == 1.0


class TestSatellites:
    def test_bounding_box_is_cached(self):
        placement = Placement.of(
            [
                # PlacedModule is validated against the module footprint,
                # so build through the real constructor path.
            ]
        )
        assert placement.bounding_box() == Rect(0.0, 0.0, 0.0, 0.0)
        mods = ModuleSet.of([Module.hard("a", 2, 3), Module.hard("b", 4, 1)])
        from repro.bstar.packing import pack
        from repro.bstar.tree import BStarTree

        placement = pack(BStarTree.chain(("a", "b")), mods)
        first = placement.bounding_box()
        assert placement.bounding_box() is first  # same object: cached
        assert placement.area == first.area
        # transforms return fresh placements with fresh caches
        moved = placement.translated(1.0, 2.0)
        assert moved.bounding_box() == first.translated(1.0, 2.0)

    def test_weighted_move_set_generators_hoisted(self):
        from repro.anneal.annealer import FunctionMoveSet, WeightedMoveSet

        bump = FunctionMoveSet(lambda s, rng: s + 1)
        drop = FunctionMoveSet(lambda s, rng: s - 1)
        moves = WeightedMoveSet([(1.0, bump), (0.0, drop)])
        assert moves._generators == [bump, drop]
        rng = random.Random(0)
        assert all(moves.propose(0, rng) == 1 for _ in range(10))
