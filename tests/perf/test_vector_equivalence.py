"""The vector tier is an equal-answers fast path, bit for bit.

These tests lock the vector tier's contract the same
way ``test_incremental_equivalence.py`` locked PR-2's: over random
module sets (hard, square and soft), random nets (two-pin, multi-pin,
weighted, dangling) and random batched walks with accepts and
rejections, the numpy :class:`~repro.perf.BatchCostEvaluator` and the
:class:`~repro.perf.VectorBStarEngine` agree exactly (``==``, no
tolerances) with the scalar :class:`~repro.cost.CostModel` and with
the engine's own scalar-oracle twin.  The driver side gets the same
treatment: chunked :class:`~repro.anneal.BatchedAnnealer` advances
replay one monolithic run bit for bit, and ``batch_max=1`` collapses
to the plain :class:`~repro.anneal.IncrementalAnnealer` loop.

What is deliberately *not* tested here: vector-vs-incremental best
costs.  The vector engine draws a different move family (windowed
suffix moves), so its trajectories are compared only against its own
scalar oracle; quality versus the incremental tier is tracked by the
``bstar-vector`` cell of the quality-sweep matrix.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.anneal import BatchedAnnealer, GeometricSchedule, IncrementalAnnealer
from repro.bstar import BStarPlacer, BStarPlacerConfig
from repro.circuit import ProximityGroup, simple_testcase
from repro.cost import (
    AreaTerm,
    AspectTerm,
    CostModel,
    DeltaHPWL,
    HPWLTerm,
    OutlineTerm,
    area_scale_of,
    hpwl_of,
    model_for_config,
    reference_model,
    resolve_nets,
)
from repro.cost.hpwl import pin_index_tables
from repro.geometry import Module, ModuleSet, Net
from repro.perf import (
    BatchCostEvaluator,
    BStarKernel,
    IncrementalBStarEngine,
    VectorBStarEngine,
    bounding_of,
    incremental,
    vector,
)

from tests.strategies import mixed_module_sets


def _random_nets(names, rng, *, multi=True):
    """A mixed net list: two-pin, multi-pin weighted, and one dangling."""
    if len(names) < 2:
        return ()
    nets = [Net(f"n{i}", tuple(rng.sample(names, 2))) for i in range(min(5, len(names)))]
    if multi and len(names) >= 3:
        nets += [
            Net(f"t{i}", tuple(rng.sample(names, 3)), weight=1.5) for i in range(2)
        ]
    nets.append(Net("ghost", (names[0], "nowhere")))
    return tuple(nets)


def _random_packings(mods, nets, config, seed, k=4):
    """``k`` committed coordinate tables off a short random walk."""
    rng = random.Random(seed)
    engine = IncrementalBStarEngine(mods, nets, (), config)
    kernel = BStarKernel(mods, nets, (), config)
    engine.reset(engine.initial_state(rng))
    tables = []
    for _ in range(k):
        for _ in range(5):
            engine.propose(rng)
            if rng.random() < 0.6:
                engine.commit()
            else:
                engine.rollback()
        state = engine.snapshot()
        tables.append(kernel.pack(state.tree, state.orientations, state.variants))
    return tables


def _center_arrays(tables, names):
    """(K, n) module-center arrays in ``names`` order, plus boundings."""
    k = len(tables)
    cx = np.zeros((k, len(names)), dtype=np.float64)
    cy = np.zeros((k, len(names)), dtype=np.float64)
    boundings = []
    for j, coords in enumerate(tables):
        for i, name in enumerate(names):
            x0, y0, x1, y1 = coords[name]
            cx[j, i] = (x0 + x1) / 2.0
            cy[j, i] = (y0 + y1) / 2.0
        boundings.append(bounding_of(coords.values()))
    return cx, cy, boundings


class TestBatchCostEvaluator:
    @settings(max_examples=40, deadline=None)
    @given(mixed_module_sets(min_size=1, max_size=14), st.integers(0, 2**31))
    def test_totals_match_scalar_evaluate(self, mods, seed):
        """Batched totals == per-candidate ``CostModel.evaluate``, exactly."""
        rng = random.Random(seed)
        names = mods.names()
        nets = _random_nets(names, rng)
        config = BStarPlacerConfig(wirelength_weight=0.7, aspect_weight=0.2)
        model = model_for_config(mods, nets, (), config)
        tables = _random_packings(mods, nets, config, seed ^ 0xC0FFEE)
        cx, cy, boundings = _center_arrays(tables, names)

        evaluator = BatchCostEvaluator(model, names)
        totals = evaluator.totals(cx, cy, boundings)
        for j, coords in enumerate(tables):
            assert totals[j] == model.evaluate(coords), f"candidate {j}"

    @settings(max_examples=25, deadline=None)
    @given(mixed_module_sets(min_size=1, max_size=10), st.integers(0, 2**31))
    def test_single_candidate_fast_path(self, mods, seed):
        """K=1 takes the 1-D fast path; it must score like the 2-D one."""
        rng = random.Random(seed)
        names = mods.names()
        nets = _random_nets(names, rng)
        config = BStarPlacerConfig(wirelength_weight=0.5)
        model = model_for_config(mods, nets, (), config)
        tables = _random_packings(mods, nets, config, seed, k=1)
        cx, cy, boundings = _center_arrays(tables, names)
        evaluator = BatchCostEvaluator(model, names)
        assert evaluator.totals(cx, cy, boundings) == [model.evaluate(tables[0])]

    def test_empty_nets_single_module(self):
        """No nets and one module: the degenerate shapes still agree."""
        mods = ModuleSet.of([Module.hard("a", 3.0, 2.0)])
        config = BStarPlacerConfig()
        model = model_for_config(mods, (), (), config)
        coords = {"a": (0.0, 0.0, 3.0, 2.0)}
        cx, cy, boundings = _center_arrays([coords], mods.names())
        evaluator = BatchCostEvaluator(model, mods.names())
        assert evaluator.totals(cx, cy, boundings) == [model.evaluate(coords)]

    @settings(max_examples=25, deadline=None)
    @given(mixed_module_sets(min_size=2, max_size=10), st.integers(0, 2**31))
    def test_outline_model_matches(self, mods, seed):
        """A hand-built fixed-outline model batches exactly too."""
        rng = random.Random(seed)
        names = mods.names()
        nets = _random_nets(names, rng, multi=False)
        scale = area_scale_of(mods)
        # a deliberately tight outline so some packings spill over
        model = CostModel(
            [
                AreaTerm(1.0, scale),
                HPWLTerm(0.6, nets, names, scale),
                AspectTerm(0.2),
                OutlineTerm(0.5, (scale**0.5, scale**0.5 * 0.8)),
            ]
        )
        config = BStarPlacerConfig(wirelength_weight=0.6)
        tables = _random_packings(mods, nets, config, seed)
        cx, cy, boundings = _center_arrays(tables, names)
        evaluator = BatchCostEvaluator(model, names)
        totals = evaluator.totals(cx, cy, boundings)
        for j, coords in enumerate(tables):
            assert totals[j] == model.evaluate(coords)

    def test_boundary_tier_model_rejected(self):
        """The violations term needs a rich Placement — no array form."""
        circuit = simple_testcase(8)
        model = reference_model(circuit)
        names = circuit.modules().names()
        assert BatchCostEvaluator.unsupported_reason(model) is not None
        with pytest.raises(ValueError, match="violations"):
            BatchCostEvaluator(model, names)


def _high_fanout_nets(names, rng):
    """One 40-pin net (a 64-deep degree class) beside 200 nets of 3-8
    pins: enough nets for DeltaHPWL's batch path."""
    nets = [Net("fanout", tuple(rng.sample(names, 40)), weight=1.25)]
    nets += [
        Net(f"t{i}", tuple(rng.sample(names, rng.randint(3, 8))), weight=rng.choice((1.0, 0.7)))
        for i in range(200)
    ]
    return tuple(nets)


def _two_pin_nets(names, rng):
    """Every net two-pin: a single degree class covering every net."""
    return tuple(
        Net(f"n{i}", tuple(rng.sample(names, 2)), weight=rng.choice((1.0, 0.7)))
        for i in range(60)
    )


class TestDegreeClassExtremes:
    """Net sets at the edges of the degree-class tables."""

    def _problem(self, make_nets):
        rng = random.Random(17)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(48)]
        )
        return mods, make_nets(mods.names(), rng)

    @pytest.mark.parametrize(
        "make_nets, depths",
        [(_high_fanout_nets, [4, 8, 64]), (_two_pin_nets, [2])],
        ids=["high-fanout", "two-pin"],
    )
    def test_totals_match_scalar_evaluate(self, make_nets, depths):
        mods, nets = self._problem(make_nets)
        names = mods.names()
        config = BStarPlacerConfig(wirelength_weight=0.7, aspect_weight=0.2)
        model = model_for_config(mods, nets, (), config)
        tables = pin_index_tables(model.resolved_nets, names)
        assert [t.pins.shape[0] for t in tables] == depths
        packings = _random_packings(mods, nets, config, 5)
        evaluator = BatchCostEvaluator(model, names)
        for batch in (packings[:1], packings):  # K = 1 and K > 1
            cx, cy, boundings = _center_arrays(batch, names)
            assert evaluator.totals(cx, cy, boundings) == [
                model.evaluate(coords) for coords in batch
            ]

    def test_delta_hpwl_batch_path_matches_hpwl_of(self):
        mods, nets = self._problem(_high_fanout_nets)
        names = mods.names()
        resolved = resolve_nets(nets, names)
        assert len(resolved) >= 192  # the default batch_min_nets
        first, *rest = _random_packings(mods, nets, BStarPlacerConfig(), 9)
        delta = DeltaHPWL(resolved, names)
        assert delta.reset(dict(first)) == hpwl_of(resolved, first)
        assert delta._cx is not None  # reset entered array mode
        for coords in rest:
            assert delta.propose(dict(coords)) == hpwl_of(resolved, coords)
            delta.commit()


def _walk_batched(vec, oracle, steps, seed, kernel, model, check_every=7):
    """Drive both engines through identical batched walks with random
    accept/reject decisions, asserting bit-equality throughout."""
    r1, r2 = random.Random(seed), random.Random(seed)
    chooser = random.Random(seed + 1)
    for step in range(steps):
        width = chooser.randint(1, 5)
        c1 = vec.propose_batch(r1, width)
        c2 = oracle.propose_batch(r2, width)
        assert c1 == c2, f"step {step}: {c1} != {c2}"
        if chooser.random() < 0.5:
            j = chooser.randrange(width)
            vec.accept(j)
            oracle.accept(j)
        else:
            vec.reject_all()
            oracle.reject_all()
        assert vec._cost == oracle._cost
        if step % check_every == 0:
            # the committed state must pack and score identically
            # through the full PR-1 kernel + scalar model
            state = vec.snapshot()
            packed = kernel.pack(state.tree, state.orientations, state.variants)
            assert vec._coords == packed
            assert vec._cost == model.evaluate(packed)


class TestVectorBStarEngine:
    @settings(max_examples=30, deadline=None)
    @given(mixed_module_sets(min_size=2, max_size=14), st.integers(0, 2**31))
    def test_matches_scalar_oracle_over_batched_walks(self, mods, seed):
        rng = random.Random(seed)
        names = mods.names()
        nets = _random_nets(names, rng)
        config = BStarPlacerConfig(wirelength_weight=0.7, aspect_weight=0.2)
        vec = VectorBStarEngine(mods, nets, (), config)
        oracle = VectorBStarEngine(mods, nets, (), config, evaluator="scalar")
        kernel = BStarKernel(mods, nets, (), config)
        model = model_for_config(mods, nets, (), config)
        init = vec.initial_state(rng)
        assert vec.reset(init) == oracle.reset(init)
        # a 4-slot window floor, so 5-14-module sets draw windowed moves
        with mock.patch.object(vector, "_WINDOW_MIN", 4):
            _walk_batched(vec, oracle, 40, seed ^ 0x5A5A, kernel, model)
        vec._tree.validate()

    @settings(max_examples=20, deadline=None)
    @given(mixed_module_sets(min_size=2, max_size=10), st.integers(0, 2**31))
    def test_scalar_protocol_matches_batch_of_one(self, mods, seed):
        """propose/commit/rollback is exactly propose_batch(k=1)."""
        rng = random.Random(seed)
        nets = _random_nets(mods.names(), rng, multi=False)
        config = BStarPlacerConfig(wirelength_weight=0.5)
        one = VectorBStarEngine(mods, nets, (), config)
        batch = VectorBStarEngine(mods, nets, (), config)
        init = one.initial_state(rng)
        assert one.reset(init) == batch.reset(init)
        r1, r2 = random.Random(seed), random.Random(seed)
        chooser = random.Random(seed + 1)
        for step in range(30):
            c1 = one.propose(r1)
            c2 = batch.propose_batch(r2, 1)[0]
            assert c1 == c2, f"step {step}"
            if chooser.random() < 0.5:
                one.commit()
                batch.accept(0)
            else:
                one.rollback()
                batch.reject_all()
            assert one._cost == batch._cost
        assert one._coords == batch._coords

    def test_one_candidate_step_repacks_once(self, monkeypatch):
        """A one-candidate tile packs its candidate in place and leaves it
        pending: accept(0) commits it and reject_all() rolls it back,
        neither packing again.  A wider tile packs each candidate once,
        and only accepting an earlier candidate packs once more (its
        replay)."""
        rng = random.Random(6)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(30)]
        )
        names = mods.names()
        nets = tuple(Net(f"n{i}", tuple(rng.sample(names, 2))) for i in range(30))
        engine = VectorBStarEngine(mods, nets, (), BStarPlacerConfig())
        engine.reset(engine.initial_state(rng))
        engine.collect_stats = True
        packs = []
        original = incremental.pack_suffix

        def counting(*args, **kwargs):
            packs.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr(incremental, "pack_suffix", counting)
        repacked = 0
        for step in range(60):
            width = 1 if step < 40 else 3
            packs.clear()
            engine.propose_batch(rng, width)
            lens = engine.last_repack_lens
            assert len(packs) == sum(1 for length in lens if length), f"step {step}"
            j = rng.randrange(width)
            if rng.random() < 0.5:
                engine.accept(j)
                replayed = j < width - 1 and lens[j]
            else:
                engine.reject_all()
                replayed = 0
            assert len(packs) == sum(1 for length in lens if length) + bool(replayed)
            repacked += len(packs)
        assert repacked
        state = engine.snapshot()
        kernel = BStarKernel(mods, nets, (), BStarPlacerConfig())
        assert engine._coords == kernel.pack(state.tree, state.orientations, state.variants)

    def test_proximity_groups_served_on_the_step(self):
        """Proximity geometry has no array form, so the batch evaluator
        refuses it; the vector engine scores it on the delta path and
        agrees with its scalar oracle on every candidate."""
        rng = random.Random(5)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 6), rng.uniform(1, 6)) for i in range(12)]
        )
        names = mods.names()
        nets = tuple(Net(f"n{i}", tuple(rng.sample(names, 3))) for i in range(10))
        groups = (
            ProximityGroup("g", ("m0", "m1", "m2")),
            ProximityGroup("h", ("m5", "m9")),
        )
        config = BStarPlacerConfig()
        model = model_for_config(mods, nets, groups, config)
        assert model.proximity_term is not None and model.proximity_term.active
        with pytest.raises(ValueError, match="proximity"):
            BatchCostEvaluator(model, names)
        engines = [
            VectorBStarEngine(mods, nets, groups, config, evaluator=evaluator)
            for evaluator in ("vector", "scalar")
        ]
        rngs = [random.Random(3), random.Random(3)]
        costs = [e.reset(e.initial_state(r)) for e, r in zip(engines, rngs)]
        assert costs[0] == costs[1]
        for step in range(80):
            batches = [e.propose_batch(r, 1 + step % 3) for e, r in zip(engines, rngs)]
            assert batches[0] == batches[1]
            j = batches[0].index(min(batches[0]))
            for engine in engines:
                if step % 4:
                    engine.accept(j)
                else:
                    engine.reject_all()
        state = engines[0].snapshot()
        kernel = BStarKernel(mods, nets, groups, config)
        expected = kernel.cost(state.tree, state.orientations, state.variants)
        assert engines[0].initial_cost() == engines[1].initial_cost() == expected

    def test_unknown_evaluator_rejected(self):
        mods = ModuleSet.of([Module.hard("a", 2.0, 2.0)])
        with pytest.raises(ValueError, match="evaluator"):
            VectorBStarEngine(mods, (), (), BStarPlacerConfig(), evaluator="cuda")


def _fresh(mods, nets, config, *, batch_max=None):
    """A (engine, annealer) pair wired the way the placers wire them."""
    rng = random.Random(config.seed)
    engine = VectorBStarEngine(mods, nets, (), config)
    engine.reset(engine.initial_state(rng))
    schedule = GeometricSchedule(
        t_initial=config.t_initial,
        t_final=config.t_final,
        alpha=config.alpha,
        steps_per_epoch=config.steps_per_epoch,
    )
    if batch_max is None:
        annealer = IncrementalAnnealer(engine, schedule, rng)
    else:
        annealer = BatchedAnnealer(engine, schedule, rng, batch_max=batch_max)
    return engine, annealer


class TestBatchedAnnealer:
    def _problem(self, n=24, seed=9):
        rng = random.Random(seed)
        mods = ModuleSet.of(
            [Module.hard(f"m{i}", rng.uniform(1, 9), rng.uniform(1, 9)) for i in range(n)]
        )
        names = mods.names()
        nets = tuple(
            Net(f"n{i}", tuple(rng.sample(names, 2))) for i in range(n)
        )
        return mods, nets

    def test_chunked_advance_matches_monolithic(self):
        """Tiled advances across chunk boundaries replay one run exactly."""
        mods, nets = self._problem()
        config = BStarPlacerConfig(seed=2, alpha=0.85, t_final=1e-2)
        _, mono = _fresh(mods, nets, config, batch_max=8)
        cp_mono = mono.advance(mono.begin(), None, _engine_synced=True)

        _, chunked = _fresh(mods, nets, config, batch_max=8)
        cp = chunked.begin()
        while cp.step < cp.total_steps:
            cp = chunked.advance(cp, 37, _engine_synced=True)
        assert cp.step == cp_mono.step
        assert cp.best_cost == cp_mono.best_cost
        assert cp.current_cost == cp_mono.current_cost
        assert cp.rng_state == cp_mono.rng_state
        assert cp.stats.accepted == cp_mono.stats.accepted

    def test_deferred_best_snapshots_score_their_cost(self):
        """The best state is copied only when a non-improving accept is
        about to leave it.  After every chunk the best state still
        scores the best cost, both for chunks that end on an improvement
        (one snapshot serves as both states) and for chunks that
        improved and then moved on; the chunked walk stays the
        monolithic one."""
        mods, nets = self._problem()
        config = BStarPlacerConfig(seed=2, alpha=0.85, t_final=1e-2)
        placer = BStarPlacer(mods, nets, config)
        _, mono = _fresh(mods, nets, config, batch_max=8)
        cp_mono = mono.advance(mono.begin(), None, _engine_synced=True)

        _, chunked = _fresh(mods, nets, config, batch_max=8)
        cp = chunked.begin()
        ended_on_best = left_best = 0
        while cp.step < cp.total_steps:
            before = cp.best_cost
            cp = chunked.advance(cp, 13, _engine_synced=True)
            assert placer.cost(cp.best_state) == cp.best_cost
            assert placer.cost(cp.state) == cp.current_cost
            if cp.best_cost < before:
                if cp.best_state is cp.state:
                    ended_on_best += 1
                else:
                    left_best += 1
        assert ended_on_best and left_best
        assert cp.best_cost == cp_mono.best_cost
        assert cp.current_cost == cp_mono.current_cost
        assert cp.rng_state == cp_mono.rng_state
        assert cp.stats == cp_mono.stats
        assert placer.cost(cp_mono.best_state) == cp_mono.best_cost
        assert cp.best_state.tree.parent == cp_mono.best_state.tree.parent
        assert cp.best_state.tree.left == cp_mono.best_state.tree.left

    def test_batch_max_one_matches_incremental_annealer(self):
        """K=1 batching is the scalar loop: same draws, same answers."""
        mods, nets = self._problem()
        config = BStarPlacerConfig(seed=4, alpha=0.85, t_final=1e-2)
        _, scalar = _fresh(mods, nets, config, batch_max=None)
        cp_scalar = scalar.advance(scalar.begin(), None, _engine_synced=True)
        _, batched = _fresh(mods, nets, config, batch_max=1)
        cp_batched = batched.advance(batched.begin(), None, _engine_synced=True)
        assert cp_batched.best_cost == cp_scalar.best_cost
        assert cp_batched.current_cost == cp_scalar.current_cost
        assert cp_batched.step == cp_scalar.step

    def test_multi_candidate_walk_keeps_its_parent_answers(self):
        """A cold schedule drives acceptance below a third, so tiles of
        up to five candidates run, accepting the pending last candidate
        and replaying earlier ones.  Best cost, accepts, improvements
        and steps are pinned to the values of the off-state candidate
        engine this in-place step replaced."""
        mods, nets = self._problem()
        config = BStarPlacerConfig(seed=2, alpha=0.7, t_final=1e-12, steps_per_epoch=40)
        engine, annealer = _fresh(mods, nets, config, batch_max=8)
        widths, accepted = [], []
        propose_batch, accept = engine.propose_batch, engine.accept

        def counting_propose(rng, k):
            widths.append(k)
            return propose_batch(rng, k)

        def counting_accept(j):
            accepted.append((j, widths[-1]))
            accept(j)

        engine.propose_batch, engine.accept = counting_propose, counting_accept
        cp = annealer.advance(annealer.begin(), None, _engine_synced=True)
        assert max(widths) == 5
        assert any(j < k - 1 for j, k in accepted)  # replayed candidates
        assert any(j == k - 1 > 0 for j, k in accepted)  # pending last ones
        assert cp.best_cost == 1.5123826778265348
        assert cp.stats.accepted == 506
        assert cp.stats.improved == 63
        assert cp.step == 3120
        assert BStarPlacer(mods, nets, config).cost(cp.best_state) == cp.best_cost

    def test_batch_max_validated(self):
        mods, nets = self._problem(n=4)
        config = BStarPlacerConfig()
        engine = VectorBStarEngine(mods, nets, (), config)
        with pytest.raises(ValueError, match="batch_max"):
            BatchedAnnealer(engine, rng=random.Random(0), batch_max=0)
