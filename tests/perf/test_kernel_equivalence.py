"""Equivalence of the fast kernel against the object-tier pack/cost.

The whole point of ``repro.perf`` is that the hot loop computes the
*same floats* as the rich object path — these tests assert exact
(bit-level, ``==``) equality of coordinates and costs over randomized
trees, variants, orientations and hierarchies, so any drift between the
two tiers fails loudly.
"""

from __future__ import annotations

import random

import pytest

from repro.bstar import (
    BStarPlacer,
    BStarPlacerConfig,
    BStarState,
    HBStarTreePlacement,
    HierarchicalPlacer,
)
from repro.bstar.packing import pack
from repro.bstar.tree import BStarTree
from repro.circuit import fig2_design, miller_opamp, simple_testcase
from repro.bstar.contour import Contour
from repro.cost import model_for_config
from repro.geometry import Module, ModuleSet, Net, Orientation, total_hpwl
from repro.perf import BStarKernel, Skyline, placement_to_coords
from repro.workloads import resolve_workload


def _legacy_object_cost(modules, nets, proximity, config):
    """The pre-refactor object-tier cost formula, verbatim.

    This replicates the deleted ``bstar.placer._CostModel`` operation
    for operation (same accumulation order, same gates) and stays here
    as the ground truth the flat kernel and the unified
    :class:`repro.cost.CostModel` are pinned against.
    """

    area_scale = max(modules.total_module_area(), 1e-12)
    wl_scale = max(area_scale**0.5 * max(len(nets), 1), 1e-12)

    def cost(placement):
        bb = placement.bounding_box()
        total = config.area_weight * bb.area / area_scale
        if nets and config.wirelength_weight:
            total += config.wirelength_weight * total_hpwl(nets, placement) / wl_scale
        if config.aspect_weight and bb.width > 0 and bb.height > 0:
            ratio = bb.height / bb.width
            deviation = max(ratio, 1.0 / ratio) / max(config.target_aspect, 1e-12)
            total += config.aspect_weight * max(0.0, deviation - 1.0)
        if config.proximity_weight:
            for group in proximity:
                if not group.is_satisfied(placement):
                    total += config.proximity_weight
        return total

    return cost


def _mixed_modules(n_hard: int = 12, n_soft: int = 8, seed: int = 0) -> ModuleSet:
    rng = random.Random(seed)
    mods = [
        Module.hard(f"m{i}", rng.uniform(1, 10), rng.uniform(1, 10))
        for i in range(n_hard)
    ]
    mods += [Module.soft(f"s{i}", rng.uniform(5, 40)) for i in range(n_soft)]
    return ModuleSet.of(mods)


def _random_nets(names, rng, n_two: int = 15, n_multi: int = 5) -> tuple[Net, ...]:
    nets = []
    for i in range(n_two):
        a, b = rng.sample(names, 2)
        nets.append(Net(f"n{i}", (a, b)))
    for i in range(n_multi):
        nets.append(Net(f"t{i}", tuple(rng.sample(names, 3))))
    return tuple(nets)


def _random_state(mods: ModuleSet, rng: random.Random):
    names = mods.names()
    tree = BStarTree.random(names, rng)
    orientations = {
        n: rng.choice((Orientation.R0, Orientation.R90))
        for n in names
        if rng.random() < 0.5
    }
    variants = {
        m.name: rng.randrange(len(m.variants)) for m in mods if rng.random() < 0.5
    }
    return tree, orientations, variants


class TestFlatKernel:
    @pytest.mark.parametrize("seed", range(20))
    def test_coords_match_pack_exactly(self, seed):
        mods = _mixed_modules(seed=seed)
        rng = random.Random(seed)
        kernel = BStarKernel(mods)
        tree, orientations, variants = _random_state(mods, rng)
        placement = pack(tree, mods, orientations, variants)
        assert kernel.pack(tree, orientations, variants) == placement_to_coords(placement)

    @pytest.mark.parametrize("seed", range(20))
    def test_cost_matches_cost_model_exactly(self, seed):
        mods = _mixed_modules(seed=seed)
        rng = random.Random(seed)
        nets = _random_nets(mods.names(), rng)
        config = BStarPlacerConfig(wirelength_weight=0.7, aspect_weight=0.2)
        kernel = BStarKernel(mods, nets, (), config)
        reference = _legacy_object_cost(mods, nets, (), config)
        tree, orientations, variants = _random_state(mods, rng)
        placement = pack(tree, mods, orientations, variants)
        assert kernel.cost(tree, orientations, variants) == reference(placement)

    def test_placement_materialization_round_trips(self):
        """The kernel's placement -- and ``BStarPlacer.finalize``, which
        materializes through it -- equals the object-tier ``pack``:
        rects, orientations and variants, before and after
        normalization."""

        def records(placement):
            return {
                p.name: (p.rect, p.orientation, p.variant) for p in placement.placed
            }

        for seed in range(20):
            mods = _mixed_modules(seed=seed)
            rng = random.Random(seed)
            kernel = BStarKernel(mods)
            placer = BStarPlacer(mods)
            tree, orientations, variants = _random_state(mods, rng)
            reference = pack(tree, mods, orientations, variants)
            rich = kernel.placement(tree, orientations, variants)
            assert records(rich) == records(reference), f"seed {seed}"
            state = BStarState(tree, orientations, variants)
            assert records(placer.finalize(state)) == records(
                reference.normalized()
            ), f"seed {seed}"

    def test_kernel_instance_is_reusable(self):
        """One kernel (and its skyline) serves many packs, like one
        annealing run reuses it for every step."""
        mods = _mixed_modules()
        kernel = BStarKernel(mods)
        rng = random.Random(9)
        for _ in range(30):
            tree, orientations, variants = _random_state(mods, rng)
            placement = pack(tree, mods, orientations, variants)
            assert kernel.pack(tree, orientations, variants) == placement_to_coords(placement)

    def test_footprint_table_is_module_footprint(self):
        """Every table entry is ``Module.footprint(v, o)``, over a
        soft-heavy generated design (three variants on most modules)
        plus one non-square hard module per rotation flag."""
        circuit = resolve_workload("gen:n=300,seed=4,soft=0.8")
        mods = ModuleSet.of(
            list(circuit.modules())
            + [Module.hard("h0", 2.0, 5.0), Module.hard("h1", 3.0, 1.0, rotatable=False)]
        )
        assert sum(len(m.variants) > 1 for m in mods) > 200
        kernel = BStarKernel(mods)
        assert list(kernel._footprints) == list(mods.names())
        for m in mods:
            table = kernel._footprints[m.name]
            assert len(table) == len(m.variants)
            for v, by_orient in enumerate(table):
                assert list(by_orient) == list(Orientation)
                for o in Orientation:
                    assert by_orient[o] == m.footprint(v, o)
            assert kernel.resolved_sizes()[m.name] == m.footprint(0, Orientation.R0)

    def test_placer_cost_is_kernel_cost(self, small_modules):
        config = BStarPlacerConfig(seed=2)
        placer = BStarPlacer(small_modules, config=config)
        reference = _legacy_object_cost(small_modules, (), (), config)
        rng = random.Random(0)
        engine = placer.engine()
        engine.reset(placer.initial_state(rng))
        for _ in range(25):
            # every proposal is committed: moved, swapped and rotated
            # states are all costed
            state = engine.snapshot()
            packed = pack(state.tree, small_modules, state.orientations, state.variants)
            assert placer.cost(state) == reference(packed)
            engine.propose(rng)
            engine.commit()


class TestSkylineAndContour:
    def test_skyline_matches_contour(self):
        """raise_over must agree with Contour's height_over + place.

        raise_over subsumes the old height_over query (it returns the
        max height over the interval *before* raising), so the fused
        call is checked against the Contour reference directly.
        """
        rng = random.Random(11)
        skyline = Skyline()
        contour = Contour()
        for _ in range(200):
            x0 = rng.uniform(0, 50)
            x1 = x0 + rng.uniform(0.1, 10)
            h = rng.uniform(0.1, 5)
            expected = contour.height_over(x0, x1)
            contour.place(x0, x1, expected + h)
            assert skyline.raise_over(x0, x1, h) == expected
            assert skyline.max_height() == contour.max_height()

    def test_skyline_reset(self):
        skyline = Skyline()
        assert skyline.raise_over(0.0, 4.0, 3.0) == 0.0
        assert skyline.max_height() == 3.0
        skyline.reset()
        # a fresh probe over the reset skyline sees height 0 everywhere
        assert skyline.raise_over(0.0, 100.0, 1.0) == 0.0

    def test_skyline_snapshot_restore(self):
        """Checkpoints restore the exact segment list (the incremental
        engine's suffix repack depends on this round-trip)."""
        skyline = Skyline()
        skyline.raise_over(0.0, 4.0, 3.0)
        snap = skyline.snapshot()
        skyline.raise_over(1.0, 2.0, 5.0)
        assert skyline.max_height() == 8.0
        skyline.restore(snap)
        assert skyline.snapshot() == snap
        assert skyline.raise_over(0.0, 4.0, 1.0) == 3.0

    def test_skyline_bounding_helpers(self):
        """rightmost_edge / max_height equal the packed modules' maxima."""
        rng = random.Random(13)
        mods = _mixed_modules(seed=13)
        kernel = BStarKernel(mods)
        tree, orientations, variants = _random_state(mods, rng)
        coords = kernel.pack(tree, orientations, variants)
        sky = kernel._skyline
        assert sky.rightmost_edge() == max(c[2] for c in coords.values())
        assert sky.max_height() == max(c[3] for c in coords.values())

    def test_contour_reset(self):
        contour = Contour()
        contour.place(1.0, 3.0, 2.5)
        assert contour.max_height() == 2.5
        contour.reset()
        assert contour.max_height() == 0.0
        assert contour.profile() == [(0.0, float("inf"), 0.0)]
        # a reused contour packs exactly like a fresh one
        contour.place(0.0, 2.0, 1.0)
        fresh = Contour()
        fresh.place(0.0, 2.0, 1.0)
        assert contour.profile() == fresh.profile()

    def test_pack_sizes_reuses_contour(self):
        from repro.bstar.packing import pack_sizes

        sizes = {"a": (2.0, 3.0), "b": (4.0, 1.0), "c": (1.0, 5.0)}
        contour = Contour()
        rng = random.Random(4)
        for _ in range(10):
            tree = BStarTree.random(tuple(sizes), rng)
            assert pack_sizes(tree, sizes, contour) == pack_sizes(tree, sizes)


class TestHierarchicalCoords:
    @pytest.mark.parametrize(
        "make",
        [fig2_design, miller_opamp, lambda: simple_testcase(12, seed=4)],
        ids=["fig2", "miller", "synth12"],
    )
    def test_pack_coords_matches_pack(self, make):
        """Symmetry islands, common-centroid arrays and nested levels all
        produce bit-identical coordinates on the flat tier."""
        circuit = make()
        hb = HBStarTreePlacement(circuit.hierarchy, circuit.modules())
        rng = random.Random(0)
        state = hb.initial_state(rng)
        for _ in range(40):
            assert hb.pack_coords(state) == placement_to_coords(hb.pack(state))
            state = hb.propose(state, rng)

    def test_placer_cost_matches_object_cost(self):
        circuit = fig2_design()
        config = BStarPlacerConfig()
        placer = HierarchicalPlacer(circuit, config)
        reference = _legacy_object_cost(
            circuit.modules(), circuit.nets, circuit.constraints().proximity, config
        )
        rng = random.Random(1)
        hb = placer._hb
        state = hb.initial_state(rng)
        for _ in range(40):
            assert placer.cost(state) == reference(hb.pack(state))
            state = hb.propose(state, rng)


class TestUnifiedCostModel:
    def test_proximity_term_matches(self):
        circuit = fig2_design()
        config = BStarPlacerConfig(proximity_weight=3.5)
        proximity = circuit.constraints().proximity
        assert proximity, "fig2 should carry a proximity group"
        fast = model_for_config(circuit.modules(), circuit.nets, proximity, config)
        reference = _legacy_object_cost(circuit.modules(), circuit.nets, proximity, config)
        hb = HBStarTreePlacement(circuit.hierarchy, circuit.modules())
        rng = random.Random(5)
        state = hb.initial_state(rng)
        for _ in range(20):
            placement = hb.pack(state)
            assert fast(placement_to_coords(placement)) == reference(placement)
            state = hb.propose(state, rng)
