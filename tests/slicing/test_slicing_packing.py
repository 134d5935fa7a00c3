"""Tests for slicing packing and the slicing placer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Module, ModuleSet
from repro.slicing import (
    PolishExpression,
    SlicingPlacer,
    SlicingPlacerConfig,
    pack_slicing,
    shape_function_of,
)
from tests.strategies import module_sets


def mods_abc():
    return ModuleSet.of(
        [
            Module.hard("a", 2, 3, rotatable=False),
            Module.hard("b", 4, 3, rotatable=False),
            Module.hard("c", 6, 2, rotatable=False),
        ]
    )


class TestPackKnown:
    def test_vertical_cut_is_row(self):
        p = pack_slicing(PolishExpression(("a", "b", "V")), mods_abc(), rotations=False)
        assert p["a"].rect.x1 <= p["b"].rect.x0 + 1e-9
        assert p.bounding_box().width == pytest.approx(6.0)
        assert p.bounding_box().height == pytest.approx(3.0)

    def test_horizontal_cut_is_stack(self):
        p = pack_slicing(PolishExpression(("a", "b", "H")), mods_abc(), rotations=False)
        assert p["a"].rect.y1 <= p["b"].rect.y0 + 1e-9
        assert p.bounding_box().height == pytest.approx(6.0)

    def test_nested(self):
        # (a b V) c H: a,b side by side with c on top
        p = pack_slicing(
            PolishExpression(("a", "b", "V", "c", "H")), mods_abc(), rotations=False
        )
        assert p.is_overlap_free()
        assert p.bounding_box().width == pytest.approx(6.0)
        assert p.bounding_box().height == pytest.approx(5.0)

    def test_rotations_help(self):
        mods = ModuleSet.of(
            [Module.hard("a", 1, 6, rotatable=True), Module.hard("b", 6, 1, rotatable=True)]
        )
        p = pack_slicing(PolishExpression(("a", "b", "H")), mods)
        # best stacking rotates one module: 6x2 instead of 6x7
        assert p.area == pytest.approx(12.0)

    def test_shape_function_staircase(self):
        sf = shape_function_of(PolishExpression(("a", "b", "V")), mods_abc())
        widths = [s.width for s in sf]
        assert widths == sorted(widths)


class TestPackProperties:
    @given(module_sets(min_size=1, max_size=9), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_always_legal(self, mods, seed):
        e = PolishExpression.random(mods.names(), random.Random(seed))
        p = pack_slicing(e, mods)
        assert p.is_overlap_free()
        assert {pm.name for pm in p} == set(mods.names())

    @given(module_sets(min_size=2, max_size=8), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_area_at_least_module_area(self, mods, seed):
        e = PolishExpression.random(mods.names(), random.Random(seed))
        p = pack_slicing(e, mods)
        assert p.area >= sum(pm.rect.area for pm in p) - 1e-6


class TestSlicingPlacer:
    def test_end_to_end(self):
        rng = random.Random(5)
        mods = ModuleSet.of(
            [
                Module.hard(f"m{i}", rng.uniform(1, 10), rng.uniform(1, 10), rotatable=False)
                for i in range(8)
            ]
        )
        result = SlicingPlacer(
            mods, config=SlicingPlacerConfig(seed=1, alpha=0.88, steps_per_epoch=25)
        ).run()
        assert result.placement.is_overlap_free()
        assert result.state.is_normalized()
        assert result.placement.area_usage() < 2.0

    def test_deterministic(self):
        mods = mods_abc()
        cfg = SlicingPlacerConfig(seed=2, alpha=0.85, steps_per_epoch=15)
        r1 = SlicingPlacer(mods, config=cfg).run()
        r2 = SlicingPlacer(mods, config=cfg).run()
        assert r1.placement.positions() == r2.placement.positions()
