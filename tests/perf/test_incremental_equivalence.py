"""Incremental evaluation must equal full repack, bit for bit.

These tests lock the PR-2 contract the same way ``tests/perf/`` locked
PR 1: over random perturbation sequences — including rejected moves and
their rollbacks, orientation and variant overrides, soft modules and
square (rotation-neutral) footprints — the dirty-suffix engine's cost,
coordinates, pre-order book-keeping and HPWL cache all agree exactly
(``==``, no tolerances) with a from-scratch ``pack_tree_coords`` +
unified :class:`repro.cost.CostModel` evaluation of the same state.  Every placer wired
onto the incremental protocol gets the same commit *and* rollback
treatment.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anneal import (
    Annealer,
    FunctionMoveSet,
    GeometricSchedule,
    IncrementalAnnealer,
    StateEngine,
)
from repro.bstar import BStarPlacer, BStarPlacerConfig, HierarchicalPlacer
from repro.bstar.hb_tree import HBIncrementalEngine, HBStarTreePlacement
from repro.circuit import fig2_design, miller_opamp, simple_testcase
from repro.geometry import Module, ModuleSet, Net
from repro.cost import model_for_config
from repro.perf import (
    BStarKernel,
    DeltaHPWL,
    FullRepackBStarEngine,
    IncrementalBStarEngine,
    hpwl_of,
    resolve_nets,
)
from repro.perf.coords import bounding_of, placement_to_coords
from repro.seqpair import PlacerConfig, SequencePairPlacer
from repro.slicing import SlicingPlacer, SlicingPlacerConfig
from repro.workloads import resolve_workload

from tests.strategies import mixed_module_sets


def _walk_both(inc, full, steps: int, seed: int, kernel=None, check_every: int = 7):
    """Drive both engines through an identical random walk with random
    accept/reject decisions, asserting bit-equality throughout."""
    r1, r2 = random.Random(seed), random.Random(seed)
    accept = random.Random(seed + 1)
    for step in range(steps):
        c1 = inc.propose(r1)
        c2 = full.propose(r2)
        assert c1 == c2, f"step {step}: {c1} != {c2}"
        if accept.random() < 0.5:
            inc.commit()
            full.commit()
        else:
            inc.rollback()
            full.rollback()
        if kernel is not None and step % check_every == 0:
            # the engine's committed state must evaluate (and pack)
            # identically through the full PR-1 kernel
            state = inc.snapshot()
            packed = kernel.pack(state.tree, state.orientations, state.variants)
            assert inc._coords == packed
            assert inc._order == list(inc._tree.preorder())


class TestIncrementalBStarEngine:
    @settings(max_examples=40, deadline=None)
    @given(mixed_module_sets(min_size=2, max_size=14), st.integers(0, 2**31))
    def test_matches_full_repack_over_random_walks(self, mods, seed):
        rng = random.Random(seed)
        nets = ()
        if len(mods.names()) >= 2:
            names = mods.names()
            nets = tuple(
                Net(f"n{i}", tuple(rng.sample(names, 2)))
                for i in range(min(6, len(names)))
            )
        config = BStarPlacerConfig(wirelength_weight=0.7, aspect_weight=0.2)
        inc = IncrementalBStarEngine(mods, nets, (), config)
        full = FullRepackBStarEngine(mods, nets, (), config)
        kernel = BStarKernel(mods, nets, (), config)
        init = inc.initial_state(rng)
        assert inc.reset(init) == full.reset(init)
        _walk_both(inc, full, steps=60, seed=seed ^ 0x5A5A, kernel=kernel)
        inc._tree.validate()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31))
    def test_nets_with_multi_pin_and_dangling(self, seed):
        rng = random.Random(seed)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(10)]
        )
        names = mods.names()
        nets = tuple(
            [Net(f"t{i}", tuple(rng.sample(names, 3)), weight=1.5) for i in range(3)]
            + [Net(f"n{i}", tuple(rng.sample(names, 2))) for i in range(5)]
            + [Net("ghost", (names[0], "nowhere"))]
        )
        config = BStarPlacerConfig(wirelength_weight=0.5)
        inc = IncrementalBStarEngine(mods, nets, (), config)
        full = FullRepackBStarEngine(mods, nets, (), config)
        init = inc.initial_state(rng)
        assert inc.reset(init) == full.reset(init)
        _walk_both(inc, full, steps=50, seed=seed)

    def test_reject_all_walk_preserves_state(self):
        """A run of nothing but rollbacks must leave every engine
        structure exactly as reset() built it."""
        rng = random.Random(5)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(12)]
        )
        nets = tuple(
            Net(f"n{i}", (f"m{i}", f"m{(i + 3) % 12}")) for i in range(10)
        )
        config = BStarPlacerConfig()
        engine = IncrementalBStarEngine(mods, nets, (), config)
        cost0 = engine.reset(engine.initial_state(rng))
        coords0 = dict(engine._coords)
        order0 = list(engine._order)
        tree0 = engine._tree.clone()
        vals0 = list(engine._eval._delta._vals)
        for _ in range(40):
            engine.propose(rng)
            engine.rollback()
        assert engine._cost == cost0
        assert engine._coords == coords0
        assert engine._order == order0
        assert engine._tree.left == tree0.left
        assert engine._tree.right == tree0.right
        assert engine._tree.parent == tree0.parent
        assert engine._tree.root == tree0.root
        assert engine._eval._delta._vals == vals0

    def test_snapshot_is_isolated(self):
        rng = random.Random(3)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(8)]
        )
        config = BStarPlacerConfig()
        engine = IncrementalBStarEngine(mods, (), (), config)
        engine.reset(engine.initial_state(rng))
        snap = engine.snapshot()
        frozen = dict(snap.tree.left)
        for _ in range(25):
            engine.propose(rng)
            engine.commit()
        assert snap.tree.left == frozen  # snapshots never alias engine state

    def test_annealed_best_cost_matches_full_twin(self):
        """Whole annealing runs: identical walks, identical best costs."""
        rng = random.Random(0)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 10), rng.uniform(1, 10)) for i in range(20)]
        )
        names = mods.names()
        nets = tuple(Net(f"n{i}", (names[i], names[(i + 7) % 20])) for i in range(15))
        config = BStarPlacerConfig(seed=4, alpha=0.85, steps_per_epoch=15, t_final=1e-3)
        schedule = GeometricSchedule(
            t_initial=config.t_initial,
            t_final=config.t_final,
            alpha=config.alpha,
            steps_per_epoch=config.steps_per_epoch,
        )

        def run(cls):
            run_rng = random.Random(config.seed)
            engine = cls(mods, nets, (), config)
            engine.reset(engine.initial_state(run_rng))
            return IncrementalAnnealer(engine, schedule, run_rng).run()

        a = run(IncrementalBStarEngine)
        b = run(FullRepackBStarEngine)
        assert a.best_cost == b.best_cost
        assert a.stats.accepted == b.stats.accepted
        kernel = BStarKernel(mods, nets, (), config)
        assert (
            kernel.cost(a.best_state.tree, a.best_state.orientations, a.best_state.variants)
            == a.best_cost
        )


class TestDeltaHPWL:
    @settings(max_examples=30, deadline=None)
    @given(mixed_module_sets(min_size=2, max_size=10), st.integers(0, 2**31))
    def test_totals_match_hpwl_of(self, mods, seed):
        from repro.bstar.tree import BStarTree

        rng = random.Random(seed)
        names = mods.names()
        nets = tuple(
            Net(f"n{i}", tuple(rng.sample(names, min(len(names), rng.choice((2, 2, 2, 3))))))
            for i in range(6)
        ) if len(names) >= 2 else ()
        resolved = resolve_nets(nets, names)
        kernel = BStarKernel(mods)
        delta = DeltaHPWL(resolved, names)
        coords = kernel.pack(BStarTree.random(names, rng))
        assert delta.reset(dict(coords)) == hpwl_of(resolved, coords)
        committed = hpwl_of(resolved, coords)
        for _ in range(15):
            cand = kernel.pack(BStarTree.random(names, rng))
            total = delta.propose(dict(cand))
            assert total == hpwl_of(resolved, cand)
            if rng.random() < 0.5:
                delta.commit()
                committed = total
            else:
                delta.rollback()
            assert delta.total() == committed

    def test_batch_path_matches_scalar(self):
        """The numpy pin-index batch recompute produces the same floats
        as the scalar per-net path."""
        rng = random.Random(11)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(30)]
        )
        names = mods.names()
        nets = tuple(
            [Net(f"n{i}", tuple(rng.sample(names, 2)), weight=rng.uniform(0.5, 2.0)) for i in range(40)]
            + [Net(f"t{i}", tuple(rng.sample(names, 4))) for i in range(10)]
        )
        resolved = resolve_nets(nets, names)
        from repro.bstar.tree import BStarTree

        kernel = BStarKernel(mods)
        scalar = DeltaHPWL(resolved, names, batch_min_nets=10**9)  # never batch
        batch = DeltaHPWL(resolved, names, batch_min_nets=1, batch_fraction=0.0)
        coords = kernel.pack(BStarTree.random(names, rng))
        assert scalar.reset(dict(coords)) == batch.reset(dict(coords))
        for _ in range(10):
            cand = dict(kernel.pack(BStarTree.random(names, rng)))
            t_scalar = scalar.propose(cand)
            t_batch = batch.propose(cand)
            assert t_scalar == t_batch == hpwl_of(resolved, cand)
            # list mode keeps a list, array mode a float64 array
            assert scalar._vals == batch._vals.tolist()
            scalar.commit()
            batch.commit()

    def test_batch_tables_cached_across_proposes(self, monkeypatch):
        """The numpy batch path builds its degree-class pin tables once,
        at reset, and every full recompute reuses them (with the centre
        arrays it keeps between proposals); caching must not change a
        single float against a fresh session per candidate."""
        from repro.bstar.tree import BStarTree
        from repro.cost import hpwl as hpwl_module

        rng = random.Random(7)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(60)]
        )
        names = mods.names()
        nets = tuple(
            [Net(f"n{i}", tuple(rng.sample(names, 2))) for i in range(220)]
            + [Net(f"t{i}", tuple(rng.sample(names, 5))) for i in range(30)]
        )
        resolved = resolve_nets(nets, names)
        kernel = BStarKernel(mods)
        base = dict(kernel.pack(BStarTree.random(names, rng)))
        cands = [
            dict(kernel.pack(BStarTree.random(names, rng))) for _ in range(40)
        ]

        calls = {"pin_index_tables": 0, "batch_net_hpwl": 0}

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(hpwl_module, name, counted(getattr(hpwl_module, name)))
        delta = DeltaHPWL(resolved, names, batch_min_nets=1, batch_fraction=0.0)
        assert delta.reset(dict(base)) == hpwl_of(resolved, base)
        totals = []
        for i, cand in enumerate(cands):
            totals.append(delta.propose(cand))
            if i % 3:
                delta.rollback()
            else:
                delta.commit()
        # one table build; every proposal took the full recompute
        assert calls == {"pin_index_tables": 1, "batch_net_hpwl": 1 + len(cands)}
        fresh = []
        for cand in cands:
            session = DeltaHPWL(resolved, names, batch_min_nets=1, batch_fraction=0.0)
            fresh.append(session.reset(dict(cand)))
        assert totals == fresh == [hpwl_of(resolved, cand) for cand in cands]


def _hb_engine(circuit, config):
    modules = circuit.modules()
    proximity = circuit.constraints().proximity
    hb = HBStarTreePlacement(circuit.hierarchy, modules)
    model = model_for_config(modules, circuit.nets, proximity, config)
    return hb, HBIncrementalEngine(hb, model), model


class TestHBIncrementalEngine:
    @pytest.mark.parametrize(
        "make",
        [
            fig2_design,
            miller_opamp,
            lambda: simple_testcase(12, seed=4),
            lambda: resolve_workload("gen:n=60,seed=1"),
            lambda: resolve_workload("gen:n=100,seed=2"),
            lambda: resolve_workload("gen:n=150,seed=3"),
        ],
        ids=["fig2", "miller", "synth12", "gen60", "gen100", "gen150"],
    )
    def test_matches_uncached_cost_with_commit_and_rollback(self, make):
        circuit = make()
        config = BStarPlacerConfig(proximity_weight=2.5, wirelength_weight=0.5)
        hb, engine, fast = _hb_engine(circuit, config)
        rng = random.Random(2)
        committed = hb.initial_state(rng)
        assert engine.reset(committed) == fast(hb.pack_coords(committed))
        # the functional path draws the same candidate from a twin rng
        walk, twin = random.Random(3), random.Random(3)
        accept = random.Random(4)
        for step in range(300):
            candidate = hb.propose(committed, twin)
            cost = engine.propose(walk)
            assert cost == fast(hb.pack_coords(candidate)), f"step {step}"
            if accept.random() < 0.5:
                engine.commit()
                committed = candidate
            else:
                engine.rollback()
            # committed engine state must evaluate identically uncached
            assert engine._cost == fast(hb.pack_coords(engine.snapshot()))
            assert engine._cost == fast(hb.pack_coords(committed))

    @settings(max_examples=12, deadline=None)
    @given(st.integers(8, 90), st.integers(0, 2**16), st.integers(0, 2**31))
    def test_level_tables_equal_a_fresh_pack_and_their_extent(self, n, circuit_seed, seed):
        """Every cached level table — copy-on-write or not — equals the
        from-scratch pack of the committed state, and its bounding box
        is exactly ``(0.0, 0.0, *extent)``: the identity that lets a
        parent size its children, and the cost model its bounding box,
        without scanning a table."""
        circuit = resolve_workload(f"gen:n={n},seed={circuit_seed}")
        hb, engine, _ = _hb_engine(circuit, BStarPlacerConfig())
        rng = random.Random(seed)
        engine.reset(hb.initial_state(rng))
        for step in range(60):
            engine.propose(rng)
            if rng.random() < 0.5:
                engine.commit()
            else:
                engine.rollback()
            if step % 6:
                continue
            fresh = hb.pack_levels(engine.snapshot())
            for name, table in engine._tables.items():
                assert table.coords == fresh[name].coords, name
                assert table.extent == fresh[name].extent, name
                assert bounding_of(table.coords.values()) == (0.0, 0.0, *table.extent)

    def test_moved_set_names_exactly_the_changed_modules(self):
        """The root's moved list is the set of entries that differ from
        the committed table — what the removed full-table diff found."""
        circuit = resolve_workload("gen:n=100,seed=2")
        hb, engine, _ = _hb_engine(circuit, BStarPlacerConfig())
        rng = random.Random(5)
        engine.reset(hb.initial_state(rng))
        root = circuit.hierarchy.name
        for _ in range(200):
            before = engine._tables[root].coords
            engine.propose(rng)
            pending = engine._pending.get(root)
            moved = pending.moved if pending is not None else []
            engine.commit()
            after = engine._tables[root].coords
            changed = [n for n, e in after.items() if before[n] != e]
            assert sorted(moved) == sorted(changed)
            assert engine.last_repack_len == len(changed)

    def test_trajectory_identical_to_functional_path(self):
        """HierarchicalPlacer draws and costs are unchanged by the
        engine, so whole runs match the PR-1 functional loop exactly."""
        circuit = fig2_design()
        config = BStarPlacerConfig(seed=7, alpha=0.85, steps_per_epoch=15, t_final=1e-3)
        placer = HierarchicalPlacer(circuit, config)
        schedule = GeometricSchedule(
            t_initial=config.t_initial,
            t_final=config.t_final,
            alpha=config.alpha,
            steps_per_epoch=config.steps_per_epoch,
        )
        rng = random.Random(config.seed)
        annealer = Annealer(placer.cost, placer._hb, schedule, rng)
        functional = annealer.run(placer._hb.initial_state(rng))
        incremental = placer.run()
        assert incremental.cost == functional.best_cost
        assert incremental.placement.positions() == placer._hb.pack(
            functional.best_state
        ).positions()


def _symmetric_design(rng: random.Random, config: PlacerConfig) -> SequencePairPlacer:
    """Ten hard modules, one symmetric pair: every code packs."""
    mods = ModuleSet.of(
        [Module.hard("a1", 4, 6), Module.hard("a2", 4, 6)]
        + [Module.hard(f"m{i}", rng.uniform(1, 8), rng.uniform(1, 8)) for i in range(8)]
    )
    from repro.circuit import SymmetryGroup

    groups = (SymmetryGroup("g", pairs=(("a1", "a2"),)),)
    names = mods.names()
    nets = tuple(Net(f"n{i}", tuple(rng.sample(names, 2))) for i in range(6))
    return SequencePairPlacer(mods, groups, nets, config)


class TestSeqPairEngine:
    @pytest.mark.parametrize(
        "design, seed, steps, unpackable",
        [
            (_symmetric_design, 1, 30, False),
            # the Fig. 6 op amp's symmetry groups leave some codes
            # unpackable: commits and rollbacks of `inf` candidates
            (
                lambda rng, config: SequencePairPlacer.for_circuit(miller_opamp(), config),
                0, 60, True,
            ),
        ],
        ids=["symmetric-pair", "miller_opamp"],
    )
    def test_matches_placer_cost_with_commit_and_rollback(
        self, design, seed, steps, unpackable
    ):
        rng = random.Random(seed)
        config = PlacerConfig(wirelength_weight=0.5, aspect_weight=0.1)
        placer = design(rng, config)
        engine = placer.engine()
        state = placer.initial_state(rng)
        assert engine.reset(state) == placer.cost(state)
        accept = random.Random(seed + 1)
        infinite = {"commit": 0, "rollback": 0}
        for _ in range(steps):
            cost = engine.propose(rng)
            assert cost == placer.cost(engine._candidate)
            decision = "commit" if accept.random() < 0.5 else "rollback"
            getattr(engine, decision)()
            if math.isinf(cost):
                infinite[decision] += 1
            assert engine._cost == placer.cost(engine.snapshot())
        assert all(infinite.values()) == unpackable, infinite

    def test_run_matches_functional_annealer(self):
        """run() through the protocol equals the PR-1 functional loop."""
        rng = random.Random(6)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 8), rng.uniform(1, 8)) for i in range(7)]
        )
        nets = tuple(Net(f"n{i}", (f"m{i}", f"m{(i + 2) % 7}")) for i in range(5))
        config = PlacerConfig(seed=3, alpha=0.85, steps_per_epoch=12, t_final=1e-3)
        placer = SequencePairPlacer(mods, (), nets, config)
        schedule = GeometricSchedule(
            t_initial=config.t_initial,
            t_final=config.t_final,
            alpha=config.alpha,
            steps_per_epoch=config.steps_per_epoch,
        )
        run_rng = random.Random(config.seed)
        annealer = Annealer(placer.cost, placer._moves, schedule, run_rng)
        functional = annealer.run(placer.initial_state(run_rng))
        incremental = placer.run()
        assert incremental.cost == functional.best_cost
        assert incremental.state == functional.best_state


class TestSlicingEngine:
    def test_matches_placer_cost_with_commit_and_rollback(self):
        rng = random.Random(4)
        mods = ModuleSet.of(
            [Module.hard(f"b{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(8)]
        )
        names = mods.names()
        nets = tuple(Net(f"n{i}", tuple(rng.sample(names, 2))) for i in range(5))
        config = SlicingPlacerConfig(wirelength_weight=0.4)
        placer = SlicingPlacer(mods, nets, config)
        engine = placer.engine()
        from repro.slicing.polish import PolishExpression

        expr = PolishExpression.random(mods.names(), rng)
        assert engine.reset(expr) == placer.cost(expr)
        accept = random.Random(5)
        for _ in range(25):
            cost = engine.propose(rng)
            assert cost == placer.cost(engine._candidate)
            if accept.random() < 0.5:
                engine.commit()
            else:
                engine.rollback()
            assert engine._cost == placer.cost(engine.snapshot())

    def test_run_matches_functional_annealer(self):
        rng = random.Random(9)
        mods = ModuleSet.of(
            [Module.hard(f"b{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(7)]
        )
        config = SlicingPlacerConfig(seed=2, alpha=0.85, steps_per_epoch=12)
        placer = SlicingPlacer(mods, config=config)
        schedule = GeometricSchedule(
            t_initial=config.t_initial,
            t_final=config.t_final,
            alpha=config.alpha,
            steps_per_epoch=config.steps_per_epoch,
        )
        from repro.slicing.polish import PolishExpression

        run_rng = random.Random(config.seed)
        annealer = Annealer(placer.cost, FunctionMoveSet(placer._move), schedule, run_rng)
        functional = annealer.run(PolishExpression.random(mods.names(), run_rng))
        incremental = placer.run()
        assert incremental.cost == functional.best_cost
        assert incremental.state == functional.best_state


class TestIncrementalAnnealer:
    def test_state_engine_adapter_matches_functional_annealer(self):
        """The StateEngine adapter consumes randomness exactly like the
        functional loop, so results coincide for any cost/move pair."""

        def cost(x: float) -> float:
            return (x - 3.0) ** 2

        def step(x: float, rng: random.Random) -> float:
            return x + rng.gauss(0.0, 0.5)

        schedule = GeometricSchedule(t_final=0.01, steps_per_epoch=10)
        functional = Annealer(
            cost, FunctionMoveSet(step), schedule, random.Random(42)
        ).run(5.0)
        engine = StateEngine(cost, FunctionMoveSet(step), 5.0)
        incremental = IncrementalAnnealer(
            engine, schedule, random.Random(42)
        ).run()
        assert incremental.best_state == functional.best_state
        assert incremental.best_cost == functional.best_cost
        assert incremental.stats.accepted == functional.stats.accepted
        assert incremental.stats.improved == functional.stats.improved

    def test_flat_placer_produces_valid_best(self, small_modules):
        config = BStarPlacerConfig(seed=1, alpha=0.85, steps_per_epoch=15, t_final=1e-3)
        result = BStarPlacer(small_modules, config=config).run()
        assert result.placement.is_overlap_free()
        # the reported best cost is the kernel cost of the best state
        placer = BStarPlacer(small_modules, config=config)
        packed = placement_to_coords(result.placement)
        model = model_for_config(small_modules, (), (), config)
        assert model(packed) == result.cost
