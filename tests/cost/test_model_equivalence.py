"""The unified cost model is bit-identical to the legacy objectives.

Property tests (hypothesis, over the shared strategies in
``tests/strategies.py``) pinning the refactor's core contract:

* every per-placer default model computes the *same floats* as a
  replica of the legacy placer-private cost formula it replaced — over
  random module sets, nets, orientations/variants and states;
* the delta path (:class:`repro.cost.CostEvaluator` driving
  :class:`repro.cost.DeltaHPWL` and :class:`repro.cost.DeltaProximity`)
  matches both a full :meth:`CostModel.evaluate` recompute and a raw
  :func:`repro.cost.hpwl_of` rescan across random commit/rollback
  walks;
* the flat-tuple :func:`repro.circuit.constraints.rects_connected`
  gives the boundary tier, the coordinate tier and a replica of the
  legacy ``Rect``-object check the same answer;
* the reference model ranks placements exactly like the legacy
  ``_CostModel`` + violation-penalty closure did.

All equalities are exact (``==``): the cost layer must never drift by
an ulp, or annealed trajectories stop being reproducible.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bstar import BStarPlacerConfig
from repro.bstar.tree import BStarTree
from repro.circuit import ProximityGroup, fig2_design, miller_opamp
from repro.circuit.constraints import rects_connected
from repro.cost import (
    CostModel,
    DeltaHPWL,
    hpwl_of,
    model_for_config,
    proximity_satisfied,
    reference_model,
    resolve_nets,
)
from repro.geometry import Module, ModuleSet, Net, PlacedModule, Placement, Rect, total_hpwl
from repro.perf import BStarKernel, bounding_of, placement_to_coords
from repro.seqpair.placer import PlacerConfig
from repro.slicing import SlicingPlacer, SlicingPlacerConfig, shape_function_of
from repro.slicing.polish import PolishExpression

from tests.strategies import mixed_module_sets, seeded_rng


def _random_nets(names, rng, max_nets: int = 12):
    nets = []
    for i in range(rng.randrange(max_nets + 1)):
        k = rng.choice((2, 2, 2, 3))
        if len(names) < k:
            continue
        pins = tuple(rng.sample(list(names), k))
        nets.append(Net(f"n{i}", pins, weight=rng.choice((1.0, 1.5))))
    return tuple(nets)


def _random_coords(modules: ModuleSet, rng) -> dict:
    coords = {}
    for m in modules:
        w, h = m.footprint(0)
        x = rng.uniform(0.0, 40.0)
        y = rng.uniform(0.0, 40.0)
        coords[m.name] = (x, y, x + w, y + h)
    return coords


# -- legacy formula replicas (what the placers computed before PR 4) ----------


def _legacy_bstar_eval(modules, nets, proximity, config):
    """Replica of the deleted ``FastCostModel.evaluate`` (bstar/hbtree)."""
    from repro.cost import proximity_satisfied

    resolved = resolve_nets(nets, modules.names())
    area_scale = max(modules.total_module_area(), 1e-12)
    wl_scale = max(area_scale**0.5 * max(len(nets), 1), 1e-12)

    def evaluate(coords):
        bx0, by0, bx1, by1 = bounding_of(coords.values())
        width = bx1 - bx0
        height = by1 - by0
        cost = config.area_weight * (width * height) / area_scale
        if nets and config.wirelength_weight:
            cost += config.wirelength_weight * hpwl_of(resolved, coords) / wl_scale
        if config.aspect_weight and width > 0 and height > 0:
            ratio = height / width
            deviation = max(ratio, 1.0 / ratio) / max(config.target_aspect, 1e-12)
            cost += config.aspect_weight * max(0.0, deviation - 1.0)
        if config.proximity_weight:
            for group in proximity:
                if not proximity_satisfied(group, coords):
                    cost += config.proximity_weight
        return cost

    return evaluate


def _legacy_seqpair_eval(modules, nets, config):
    """Replica of the deleted ``SequencePairPlacer.cost`` arithmetic."""
    resolved = resolve_nets(nets, modules.names())
    area_scale = max(modules.total_module_area(), 1e-12)
    wl_scale = max(area_scale**0.5 * max(len(nets), 1), 1e-12)

    def evaluate(coords):
        if coords:
            min_x, min_y, max_x, max_y = bounding_of(coords.values())
        else:
            min_x = min_y = max_x = max_y = 0.0
        width = max_x - min_x
        height = max_y - min_y
        cost = config.area_weight * (width * height) / area_scale
        if nets and config.wirelength_weight:
            cost += config.wirelength_weight * hpwl_of(resolved, coords) / wl_scale
        if config.aspect_weight and width > 0:
            ratio = height / width
            deviation = max(ratio, 1.0 / ratio) / max(config.target_aspect, 1e-12)
            cost += config.aspect_weight * max(0.0, deviation - 1.0)
        return cost

    return evaluate


def _legacy_slicing_eval(modules, nets, config):
    """Replica of the deleted ``SlicingPlacer.cost`` arithmetic."""
    resolved = resolve_nets(nets, modules.names())
    area_scale = max(modules.total_module_area(), 1e-12)
    wl_scale = max(area_scale**0.5 * max(len(nets), 1), 1e-12)

    def evaluate(area, coords):
        cost = config.area_weight * area / area_scale
        if nets and config.wirelength_weight:
            cost += config.wirelength_weight * hpwl_of(resolved, coords) / wl_scale
        return cost

    return evaluate


class TestBStarModelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(mixed_module_sets(min_size=2, max_size=10), seeded_rng())
    def test_totals_match_legacy_formula(self, modules, rng):
        nets = _random_nets(modules.names(), rng)
        config = BStarPlacerConfig(
            area_weight=rng.choice((1.0, 0.7)),
            wirelength_weight=rng.choice((0.0, 0.5, 1.2)),
            aspect_weight=rng.choice((0.0, 0.1)),
        )
        model = model_for_config(modules, nets, (), config)
        legacy = _legacy_bstar_eval(modules, nets, (), config)
        kernel = BStarKernel(modules, nets, (), config)
        tree = BStarTree.random(modules.names(), rng)
        coords = kernel.pack(tree)
        assert model.evaluate(coords) == legacy(coords)
        assert kernel.cost(tree) == legacy(coords)

    @pytest.mark.parametrize("make", [fig2_design, miller_opamp], ids=["fig2", "miller"])
    def test_constrained_circuit_matches_legacy(self, make):
        circuit = make()
        config = BStarPlacerConfig(proximity_weight=2.0)
        proximity = circuit.constraints().proximity
        modules = circuit.modules()
        model = model_for_config(modules, circuit.nets, proximity, config)
        legacy = _legacy_bstar_eval(modules, circuit.nets, proximity, config)
        rng = random.Random(7)
        for _ in range(15):
            coords = _random_coords(modules, rng)
            assert model.evaluate(coords) == legacy(coords)


class TestSeqPairModelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(mixed_module_sets(min_size=1, max_size=10), seeded_rng())
    def test_totals_match_legacy_formula(self, modules, rng):
        nets = _random_nets(modules.names(), rng)
        config = PlacerConfig(
            wirelength_weight=rng.choice((0.0, 0.5)),
            aspect_weight=rng.choice((0.0, 0.1)),
        )
        model = model_for_config(modules, nets, (), config)
        legacy = _legacy_seqpair_eval(modules, nets, config)
        coords = _random_coords(modules, rng)
        assert model.evaluate(coords) == legacy(coords)

    def test_empty_coords_cost_zero_area(self):
        modules = ModuleSet.of([Module.hard("a", 2.0, 3.0)])
        model = model_for_config(modules, (), (), PlacerConfig())
        legacy = _legacy_seqpair_eval(modules, (), PlacerConfig())
        assert model.evaluate({}) == legacy({}) == 0.0


class TestSlicingModelEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(mixed_module_sets(min_size=1, max_size=8), seeded_rng())
    def test_totals_match_legacy_formula(self, modules, rng):
        nets = _random_nets(modules.names(), rng)
        config = SlicingPlacerConfig(wirelength_weight=rng.choice((0.0, 0.4)))
        placer = SlicingPlacer(modules, nets, config)
        legacy = _legacy_slicing_eval(modules, nets, config)
        expr = PolishExpression.random(modules.names(), rng)
        best = shape_function_of(
            expr, modules, max_shapes=config.max_shapes
        ).min_area_shape()
        assert placer.cost(expr) == legacy(best.area, best.coords())


class TestDeltaWalkEquivalence:
    """Random commit/rollback walks: the delta path never drifts from a
    full recompute — neither the model total nor the raw HPWL rescan."""

    @settings(max_examples=40, deadline=None)
    @given(mixed_module_sets(min_size=2, max_size=10), seeded_rng())
    def test_evaluator_matches_full_recompute(self, modules, rng):
        nets = _random_nets(modules.names(), rng, max_nets=15)
        config = BStarPlacerConfig(wirelength_weight=0.8, aspect_weight=0.1)
        model = model_for_config(modules, nets, (), config)
        evaluator = model.evaluator()
        resolved = model.resolved_nets

        committed = _random_coords(modules, rng)
        assert evaluator.reset(dict(committed)) == model.evaluate(committed)

        names = modules.names()
        for _ in range(30):
            candidate = dict(committed)
            for name in rng.sample(list(names), rng.randrange(1, len(names) + 1)):
                x0, y0, x1, y1 = candidate[name]
                dx, dy = rng.uniform(-5, 5), rng.uniform(-5, 5)
                candidate[name] = (x0 + dx, y0 + dy, x1 + dx, y1 + dy)
            proposed = evaluator.propose(candidate)
            # delta total == from-scratch model total == raw hpwl path
            assert proposed == model.evaluate(candidate)
            if model.tracks_wirelength:
                assert evaluator._delta.total() == hpwl_of(resolved, candidate)
            if rng.random() < 0.5:
                evaluator.commit()
                committed = candidate
            else:
                evaluator.rollback()
            # the committed baseline is intact after either outcome
            assert evaluator.propose(dict(committed)) == model.evaluate(committed)
            evaluator.rollback()

    @settings(max_examples=30, deadline=None)
    @given(mixed_module_sets(min_size=2, max_size=8), seeded_rng())
    def test_moved_hint_equals_diff_detection(self, modules, rng):
        """Explicit ``moved`` lists and baseline diffing agree exactly."""
        nets = _random_nets(modules.names(), rng, max_nets=10)
        config = BStarPlacerConfig(wirelength_weight=0.6)
        model = model_for_config(modules, nets, (), config)
        hinted = model.evaluator()
        diffed = model.evaluator()
        committed = _random_coords(modules, rng)
        assert hinted.reset(dict(committed)) == diffed.reset(dict(committed))
        names = list(modules.names())
        for _ in range(20):
            candidate = dict(committed)
            moved = rng.sample(names, rng.randrange(1, len(names) + 1))
            for name in moved:
                x0, y0, x1, y1 = candidate[name]
                dx = rng.uniform(-3, 3)
                candidate[name] = (x0 + dx, y0, x1 + dx, y1)
            a = hinted.propose(dict(candidate), moved=moved)
            b = diffed.propose(dict(candidate))
            assert a == b == model.evaluate(candidate)
            if rng.random() < 0.5:
                hinted.commit()
                diffed.commit()
                committed = candidate
            else:
                hinted.rollback()
                diffed.rollback()


def _legacy_rects_connected(rects, gap):
    """Replica of the ``Rect``-object connectivity test that the flat
    tuple form replaced."""
    n = len(rects)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        gi = rects[i].inflated(gap / 2.0)
        for j in range(i + 1, n):
            if gi.overlaps(rects[j].inflated(gap / 2.0), strict=False):
                parent[find(i)] = find(j)
    root = find(0)
    return all(find(i) == root for i in range(n))


def _grid_placement(rng, n):
    """Rectangles on a half-unit grid: edges often touch exactly and
    gaps often equal a half-unit-multiple margin."""
    placed = []
    for i in range(n):
        w = rng.choice((0.5, 1.0, 1.5, 2.0))
        h = rng.choice((0.5, 1.0, 1.5, 2.0))
        x = rng.randrange(13) * 0.5
        y = rng.randrange(13) * 0.5
        placed.append(PlacedModule(Module.hard(f"m{i}", w, h), Rect.from_size(x, y, w, h)))
    return Placement(tuple(placed))


class TestDeltaHPWLArrayMode:
    """From ``batch_min_nets`` nets on, :class:`DeltaHPWL` keeps its
    per-net values and module centres in numpy arrays between steps.
    Random propose / commit / rollback walks mixing small moves (scalar
    path), large moves (full recompute over the maintained centres) and
    diff-detected proposals (``moved=None``) must total exactly what a
    raw :func:`hpwl_of` rescan and the list-mode cache give."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.sampled_from((0.0, 0.02, 0.1, 0.3, 1.0)),
        st.data(),
    )
    def test_totals_match_hpwl_of_and_list_mode(self, n, fraction, data):
        rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
        modules = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(n)]
        )
        names = modules.names()
        nets = [
            Net(f"n{i}", tuple(rng.sample(names, min(n, rng.choice((2, 2, 3, 5, 8))))),
                weight=rng.choice((1.0, 0.7, 1.5)))
            for i in range(rng.randrange(1, 3 * n))
        ]
        nets.append(Net("ghost", (names[0], "nowhere")))
        resolved = resolve_nets(nets, names)
        arrays = DeltaHPWL(resolved, names, batch_fraction=fraction, batch_min_nets=1)
        listed = DeltaHPWL(resolved, names, batch_min_nets=10**9)

        # in place: one table mutated under explicit moved lists (the
        # flat engines' way); otherwise a fresh table per proposal,
        # with a moved list or diffed against the committed one
        in_place = data.draw(st.booleans(), label="in_place")
        committed = _random_coords(modules, rng)
        live = dict(committed)
        total = arrays.reset(live if in_place else dict(live))
        assert (arrays._cx is not None) == bool(resolved) and listed._cx is None
        assert total == listed.reset(dict(committed)) == hpwl_of(resolved, committed)
        for step in range(data.draw(st.integers(1, 25), label="steps")):
            size = data.draw(st.sampled_from(("one", "few", "most")), label="size")
            count = {"one": 1, "few": min(n, 3), "most": n}[size]
            moved = rng.sample(names, count)
            undo = [(name, live[name]) for name in moved]
            for name in moved:
                x0, y0, x1, y1 = live[name]
                dx, dy = rng.uniform(-6, 6), rng.uniform(-6, 6)
                live[name] = (x0 + dx, y0 + dy, x1 + dx, y1 + dy)
            if in_place:
                # plus a bystander: extra names only cost time
                proposed = arrays.propose(live, moved + [names[0]])
            elif data.draw(st.booleans(), label="diffed"):
                proposed = arrays.propose(dict(live))
            else:
                proposed = arrays.propose(dict(live), moved)
            expected = hpwl_of(resolved, live)
            assert proposed == expected == listed.propose(dict(live)), f"step {step}"
            if data.draw(st.booleans(), label="keep"):
                arrays.commit()
                listed.commit()
                committed = dict(live)
            else:
                arrays.rollback()
                listed.rollback()
                live.update(undo)
            assert arrays.total() == listed.total() == hpwl_of(resolved, committed)


class TestProximityTiers:
    def test_boundary_and_coordinate_tiers_agree(self):
        rng = random.Random(11)
        outcomes = set()
        touching = 0
        for _ in range(600):
            n = rng.randrange(2, 7)
            placement = _grid_placement(rng, n)
            names = [f"m{i}" for i in range(n)]
            group = ProximityGroup("p", tuple(rng.sample(names, rng.randrange(2, n + 1))),
                                   margin=rng.choice((0.0, 0.5, 1.0)))
            rects = [placement[m].rect for m in group.members_]
            boundary = group.is_satisfied(placement)
            assert boundary == proximity_satisfied(group, placement_to_coords(placement))
            assert boundary == _legacy_rects_connected(rects, group.margin + 1e-6)
            # with no tolerance, only the non-strict test joins touching edges
            tuples = [(r.x0, r.y0, r.x1, r.y1) for r in rects]
            assert rects_connected(tuples, 0.0) == _legacy_rects_connected(rects, 0.0)
            outcomes.add(boundary)
            touching += any(
                a.x1 == b.x0 or a.y1 == b.y0 for a in rects for b in rects if a is not b
            )
        # both answers occur, and exactly touching edges are exercised
        assert outcomes == {True, False}
        assert touching > 100


class TestDeltaProximityWalks:
    @settings(max_examples=40, deadline=None)
    @given(seeded_rng())
    def test_flags_match_full_recount(self, rng):
        """Moved hints, full re-tests and a from-scratch evaluation agree
        on every proposal, through commits and rollbacks."""
        n = rng.randrange(3, 10)
        placement = _grid_placement(rng, n)
        modules = ModuleSet.of([p.module for p in placement.placed])
        names = list(modules.names())
        groups = tuple(
            ProximityGroup(f"p{g}", tuple(rng.sample(names, rng.randrange(2, n + 1))),
                           margin=rng.choice((0.0, 0.5)))
            for g in range(rng.randrange(1, 4))
        )
        model = model_for_config(modules, (), groups, BStarPlacerConfig())
        hinted, full = model.evaluator(), model.evaluator()
        committed = placement_to_coords(placement)
        assert hinted.reset(dict(committed)) == full.reset(dict(committed)) \
            == model.evaluate(committed)
        for _ in range(25):
            candidate = dict(committed)
            moved = rng.sample(names, rng.randrange(0, 3))
            for name in moved:
                x0, y0, x1, y1 = candidate[name]
                dx, dy = rng.randrange(-4, 5) * 0.5, rng.randrange(-4, 5) * 0.5
                candidate[name] = (x0 + dx, y0 + dy, x1 + dx, y1 + dy)
            a = hinted.propose(candidate, moved)
            b = full.propose(candidate)
            assert a == b == model.evaluate(candidate)
            unsatisfied = sum(not proximity_satisfied(g, candidate) for g in groups)
            assert hinted._proximity._unsatisfied == unsatisfied
            if rng.random() < 0.5:
                hinted.commit()
                full.commit()
                committed = candidate
            else:
                hinted.rollback()
                full.rollback()
            assert hinted.propose(committed, ()) == model.evaluate(committed)
            hinted.rollback()

    def test_models_without_groups_keep_no_proximity_state(self):
        modules = ModuleSet.of([Module.hard("a", 1.0, 1.0), Module.hard("b", 1.0, 1.0)])
        group = ProximityGroup("p", ("a", "b"))
        assert model_for_config(modules, (), (), BStarPlacerConfig()).evaluator()._proximity is None
        weightless = BStarPlacerConfig(proximity_weight=0.0)
        assert model_for_config(modules, (), (group,), weightless).evaluator()._proximity is None


class TestReferenceModelEquivalence:
    """The portfolio yardstick equals the legacy closure bit for bit."""

    def _legacy_reference(self, circuit):
        modules = circuit.modules()
        nets = circuit.nets
        config = BStarPlacerConfig()
        area_scale = max(modules.total_module_area(), 1e-12)
        wl_scale = max(area_scale**0.5 * max(len(nets), 1), 1e-12)
        constraints = circuit.constraints()

        def cost(placement):
            bb = placement.bounding_box()
            total = config.area_weight * bb.area / area_scale
            if nets and config.wirelength_weight:
                total += (
                    config.wirelength_weight * total_hpwl(nets, placement) / wl_scale
                )
            if config.aspect_weight and bb.width > 0 and bb.height > 0:
                ratio = bb.height / bb.width
                deviation = max(ratio, 1.0 / ratio) / max(config.target_aspect, 1e-12)
                total += config.aspect_weight * max(0.0, deviation - 1.0)
            return total + 2.0 * len(constraints.violations(placement))

        return cost

    @pytest.mark.parametrize("make", [fig2_design, miller_opamp], ids=["fig2", "miller"])
    @pytest.mark.parametrize("engine", ["hbtree", "slicing"])
    def test_matches_legacy_reference(self, make, engine):
        circuit = make()
        legacy = self._legacy_reference(circuit)
        model = reference_model(circuit)
        if engine == "hbtree":
            from repro.bstar import HierarchicalPlacer

            placement = HierarchicalPlacer(
                circuit, BStarPlacerConfig(seed=3, alpha=0.7, steps_per_epoch=10)
            ).run().placement
        else:
            placement = SlicingPlacer(
                circuit.modules(),
                circuit.nets,
                SlicingPlacerConfig(seed=3, alpha=0.7, steps_per_epoch=10),
            ).run().placement
        assert model.evaluate_placement(placement) == legacy(placement)
        breakdown = model.breakdown_placement(placement)
        assert set(breakdown) == {"area", "wirelength", "aspect", "violations"}

    def test_placement_tier_equals_flat_tier(self):
        """evaluate_placement flattens to the very same floats."""
        circuit = fig2_design()
        config = BStarPlacerConfig()
        model = model_for_config(
            circuit.modules(), circuit.nets, circuit.constraints().proximity, config
        )
        from repro.bstar import HierarchicalPlacer

        placement = HierarchicalPlacer(
            circuit, BStarPlacerConfig(seed=1, alpha=0.7, steps_per_epoch=10)
        ).run().placement
        assert model.evaluate_placement(placement) == model.evaluate(
            placement_to_coords(placement)
        )
