"""Tests for placements."""

import pytest

from repro.geometry import (
    Module,
    Orientation,
    PlacedModule,
    Placement,
    Rect,
)


def place(name, x, y, w, h):
    return PlacedModule(Module.hard(name, w, h), Rect.from_size(x, y, w, h))


@pytest.fixture
def row_placement():
    return Placement.of(
        [place("a", 0, 0, 2, 3), place("b", 2, 0, 4, 2), place("c", 6, 0, 1, 5)]
    )


class TestPlacedModule:
    def test_rect_must_match_footprint(self):
        with pytest.raises(ValueError):
            PlacedModule(Module.hard("a", 2, 3), Rect.from_size(0, 0, 3, 3))

    def test_orientation_footprint(self):
        pm = PlacedModule(
            Module.hard("a", 2, 3), Rect.from_size(0, 0, 3, 2), orientation=Orientation.R90
        )
        assert pm.rect.width == 3

    def test_translated(self):
        pm = place("a", 0, 0, 2, 3).translated(1, 1)
        assert pm.rect == Rect(1, 1, 3, 4)

    def test_mirrored_x(self):
        pm = place("a", 0, 0, 2, 3).mirrored_x(5.0)
        assert pm.rect == Rect(8, 0, 10, 3)
        assert pm.orientation == Orientation.MY


class TestPlacement:
    def test_duplicate_modules_rejected(self):
        with pytest.raises(ValueError):
            Placement.of([place("a", 0, 0, 1, 1), place("a", 2, 2, 1, 1)])

    def test_lookup(self, row_placement):
        assert row_placement["b"].rect.x0 == 2
        assert "c" in row_placement
        assert len(row_placement) == 3

    def test_empty(self):
        p = Placement.empty()
        assert len(p) == 0
        assert p.area == 0.0

    def test_bounding_box(self, row_placement):
        assert row_placement.bounding_box() == Rect(0, 0, 7, 5)
        assert row_placement.width == 7
        assert row_placement.height == 5

    def test_metrics(self, row_placement):
        assert row_placement.module_area() == 2 * 3 + 4 * 2 + 1 * 5
        assert row_placement.area == 35.0
        assert row_placement.area_usage() == pytest.approx(35.0 / 19.0)
        assert row_placement.dead_space() == pytest.approx(16.0)

    def test_overlap_free(self, row_placement):
        assert row_placement.is_overlap_free()
        assert row_placement.overlapping_pairs() == []

    def test_overlap_detected(self):
        p = Placement.of([place("a", 0, 0, 3, 3), place("b", 1, 1, 3, 3)])
        assert not p.is_overlap_free()
        assert p.overlapping_pairs() == [("a", "b")]

    def test_touching_is_not_overlap(self, row_placement):
        assert row_placement.is_overlap_free(tol=0.0)

    def test_translated_and_normalized(self, row_placement):
        moved = row_placement.translated(-3, 4)
        assert moved.bounding_box() == Rect(-3, 4, 4, 9)
        norm = moved.normalized()
        assert norm.bounding_box() == Rect(0, 0, 7, 5)

    def test_anchored_placement_normalizes_to_itself(self, row_placement):
        """At (+0.0, +0.0) the translation would change no float, so no
        copy is built; a shifted placement still moves to the origin,
        and so does one anchored at -0.0 (whose zeros would flip)."""
        assert row_placement.bounding_box().x0 == 0.0
        assert row_placement.normalized() is row_placement
        shifted = row_placement.translated(2.5, -1.0).normalized()
        assert shifted is not row_placement
        assert shifted.placed == row_placement.placed
        negative = Placement.of(
            [place("a", -0.0, -0.0, 2, 3), place("b", 2, 0, 4, 2)]
        )
        normalized = negative.normalized()
        assert normalized is not negative
        assert str(normalized["a"].rect.x0) == "0.0"

    def test_mirrored_x_preserves_metrics(self, row_placement):
        m = row_placement.mirrored_x(10.0)
        assert m.area == row_placement.area
        assert m.is_overlap_free()

    def test_merged_with(self, row_placement):
        extra = Placement.of([place("z", 0, 10, 2, 2)])
        merged = row_placement.merged_with(extra)
        assert len(merged) == 4
        assert "z" in merged

    def test_merge_duplicate_raises(self, row_placement):
        with pytest.raises(ValueError):
            row_placement.merged_with(Placement.of([place("a", 0, 10, 1, 1)]))

    def test_subset(self, row_placement):
        sub = row_placement.subset(["a", "c"])
        assert len(sub) == 2
        assert "b" not in sub

    def test_positions_view(self, row_placement):
        pos = row_placement.positions()
        assert pos["a"] == Rect(0, 0, 2, 3)
