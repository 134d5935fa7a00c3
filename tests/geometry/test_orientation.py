"""Tests for the orientation group."""

import pytest

from repro.geometry import ALL_ORIENTATIONS, Orientation, oriented_size, oriented_sizes


class TestOrientationAlgebra:
    def test_eight_orientations(self):
        assert len(ALL_ORIENTATIONS) == 8

    def test_swapping_set(self):
        swapping = {o for o in ALL_ORIENTATIONS if o.swaps_wh}
        assert swapping == {
            Orientation.R90,
            Orientation.R270,
            Orientation.MX90,
            Orientation.MY90,
        }

    def test_mirrored_set(self):
        mirrored = {o for o in ALL_ORIENTATIONS if o.is_mirrored}
        assert mirrored == {
            Orientation.MX,
            Orientation.MY,
            Orientation.MX90,
            Orientation.MY90,
        }

    def test_four_rotations_cycle(self):
        o = Orientation.R0
        seen = [o]
        for _ in range(3):
            o = o.rotated_ccw()
            seen.append(o)
        assert seen == [
            Orientation.R0,
            Orientation.R90,
            Orientation.R180,
            Orientation.R270,
        ]
        assert o.rotated_ccw() == Orientation.R0

    @pytest.mark.parametrize("o", ALL_ORIENTATIONS)
    def test_rotation_has_order_four(self, o):
        r = o
        for _ in range(4):
            r = r.rotated_ccw()
        assert r == o

    @pytest.mark.parametrize("o", ALL_ORIENTATIONS)
    def test_mirror_y_is_involution(self, o):
        assert o.mirrored_y().mirrored_y() == o

    @pytest.mark.parametrize("o", ALL_ORIENTATIONS)
    def test_mirror_x_is_involution(self, o):
        assert o.mirrored_x().mirrored_x() == o

    @pytest.mark.parametrize("o", ALL_ORIENTATIONS)
    def test_mirror_flips_chirality(self, o):
        assert o.mirrored_y().is_mirrored != o.is_mirrored
        assert o.mirrored_x().is_mirrored != o.is_mirrored

    @pytest.mark.parametrize("o", ALL_ORIENTATIONS)
    def test_rotation_preserves_chirality(self, o):
        assert o.rotated_ccw().is_mirrored == o.is_mirrored

    def test_mirror_x_equals_mirror_y_rot180(self):
        for o in ALL_ORIENTATIONS:
            assert o.mirrored_x() == o.mirrored_y().rotated_ccw().rotated_ccw()


class TestOrientedSize:
    def test_r0_keeps_size(self):
        assert oriented_size(3.0, 5.0, Orientation.R0) == (3.0, 5.0)

    def test_r90_swaps(self):
        assert oriented_size(3.0, 5.0, Orientation.R90) == (5.0, 3.0)

    def test_mirrors_keep_size(self):
        assert oriented_size(3.0, 5.0, Orientation.MX) == (3.0, 5.0)
        assert oriented_size(3.0, 5.0, Orientation.MY) == (3.0, 5.0)

    def test_mirror_rotations_swap(self):
        assert oriented_size(3.0, 5.0, Orientation.MX90) == (5.0, 3.0)
        assert oriented_size(3.0, 5.0, Orientation.MY90) == (5.0, 3.0)

    def test_all_orientations_at_once(self):
        sizes = oriented_sizes(3.0, 5.0)
        assert list(sizes) == list(ALL_ORIENTATIONS)
        for o in ALL_ORIENTATIONS:
            assert sizes[o] == oriented_size(3.0, 5.0, o)
        # one tuple per distinct footprint, shared across orientations
        assert len({id(wh) for wh in sizes.values()}) == 2
