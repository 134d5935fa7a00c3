"""Tests for nets and wirelength."""

import pytest

from repro.geometry import (
    Module,
    Net,
    PlacedModule,
    Placement,
    Rect,
    clique_nets_from_pairs,
    ordered_sum,
    total_hpwl,
)


def place(name, x, y, w=2.0, h=2.0):
    return PlacedModule(Module.hard(name, w, h), Rect.from_size(x, y, w, h))


@pytest.fixture
def grid_placement():
    return Placement.of(
        [place("a", 0, 0), place("b", 10, 0), place("c", 0, 10), place("d", 10, 10)]
    )


class TestNet:
    def test_requires_two_pins(self):
        with pytest.raises(ValueError):
            Net("n", ("a",))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Net("n", ("a", "b"), weight=-1.0)

    def test_two_pin_hpwl(self, grid_placement):
        # centers at (1,1) and (11,1): HPWL = 10 + 0
        assert Net("n", ("a", "b")).hpwl(grid_placement) == pytest.approx(10.0)

    def test_multi_pin_hpwl(self, grid_placement):
        # centers span x in [1, 11], y in [1, 11]
        assert Net("n", ("a", "b", "c", "d")).hpwl(grid_placement) == pytest.approx(20.0)

    def test_unplaced_pins_ignored(self, grid_placement):
        net = Net("n", ("a", "b", "ghost"))
        assert net.hpwl(grid_placement) == pytest.approx(10.0)

    def test_single_placed_pin_is_zero(self, grid_placement):
        assert Net("n", ("a", "ghost")).hpwl(grid_placement) == 0.0


class TestTotalHpwl:
    def test_weighted_sum(self, grid_placement):
        nets = [Net("n1", ("a", "b"), weight=2.0), Net("n2", ("a", "c"), weight=1.0)]
        assert total_hpwl(nets, grid_placement) == pytest.approx(2 * 10 + 10)

    def test_empty(self, grid_placement):
        assert total_hpwl([], grid_placement) == 0.0

    def test_ordered_sum_is_left_to_right(self):
        # a compensated sum (builtin sum() from Python 3.12) gives 1.0
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum([]) == 0

    def test_clique_helper(self):
        nets = clique_nets_from_pairs([("a", "b"), ("c", "d")])
        assert len(nets) == 2
        assert nets[0].pins == ("a", "b")
        assert nets[1].name == "n1"
