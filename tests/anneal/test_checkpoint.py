"""Checkpointed walks are bit-identical to monolithic runs.

The portfolio runner slices annealing walks into chunks (pausing,
pickling and resuming them across processes), so the checkpoint API
must reproduce ``IncrementalAnnealer.run`` exactly — same best state,
same best cost, same statistics — for any chunking, including chunks
resumed on a freshly rebuilt engine.  The best state is copied lazily
(only when a non-improving accept is about to leave it), which rests
on every engine's ``snapshot`` returning the committed state while a
proposal is still pending.
"""

import pickle
import random

import pytest

from repro.anneal import (
    FunctionMoveSet,
    GeometricSchedule,
    IncrementalAnnealer,
    StateEngine,
    WalkCheckpoint,
)
from repro.bstar import BStarPlacerConfig
from repro.bstar.perturb import BStarState
from repro.circuit import simple_testcase
from repro.perf import (
    FullRepackBStarEngine,
    IncrementalBStarEngine,
    VectorBStarEngine,
    placement_to_coords,
)
from repro.placers import make_placer

SCHEDULE = GeometricSchedule(t_initial=1.0, t_final=1e-2, alpha=0.7, steps_per_epoch=20)


# -- a tiny 1-D toy problem over the functional adapter -----------------------


def _toy_annealer(seed: int) -> IncrementalAnnealer:
    def cost(x: float) -> float:
        return (x - 3.0) ** 2

    class Moves:
        def propose(self, state, rng):
            return state + rng.uniform(-1.0, 1.0)

    engine = StateEngine(cost, Moves(), 10.0)
    return IncrementalAnnealer(engine, SCHEDULE, random.Random(seed))


def _bstar_annealer(seed: int) -> IncrementalAnnealer:
    circuit = simple_testcase(12, seed=1)
    rng = random.Random(seed)
    engine = IncrementalBStarEngine(
        circuit.modules(), circuit.nets, (), BStarPlacerConfig(seed=seed)
    )
    engine.reset(engine.initial_state(rng))
    return IncrementalAnnealer(engine, SCHEDULE, rng)


@pytest.mark.parametrize("make", [_toy_annealer, _bstar_annealer])
@pytest.mark.parametrize("chunk", [1, 7, 64, 10_000])
def test_chunked_equals_monolithic(make, chunk):
    mono = make(seed=5).run()

    annealer = make(seed=5)
    checkpoint = annealer.begin()
    while not checkpoint.finished:
        checkpoint = annealer.advance(checkpoint, chunk)

    assert checkpoint.best_cost == mono.best_cost
    assert checkpoint.stats == mono.stats
    assert checkpoint.step == checkpoint.total_steps


def test_pickled_resume_on_rebuilt_engine_is_identical():
    """A checkpoint hopping 'processes' (pickle + fresh engine) changes
    nothing — the exact contract the portfolio workers rely on."""
    mono = _bstar_annealer(seed=9).run()

    checkpoint = _bstar_annealer(seed=9).begin()
    while not checkpoint.finished:
        checkpoint = pickle.loads(pickle.dumps(checkpoint))
        fresh = _bstar_annealer(seed=9)  # new engine, new rng
        checkpoint = fresh.advance(checkpoint, 37)

    assert checkpoint.best_cost == mono.best_cost
    assert checkpoint.stats == mono.stats


def test_advance_on_finished_checkpoint_is_a_noop():
    annealer = _toy_annealer(seed=3)
    checkpoint = annealer.begin()
    done = annealer.advance(checkpoint)
    assert done.finished
    assert annealer.advance(done, 10) is done


def test_advance_rejects_mismatched_schedule():
    checkpoint = _toy_annealer(seed=3).begin()
    other = IncrementalAnnealer(
        StateEngine(lambda x: x * x, None, 0.0),
        GeometricSchedule(t_initial=1.0, t_final=1e-2, alpha=0.7, steps_per_epoch=7),
        random.Random(0),
    )
    with pytest.raises(ValueError, match="schedule spans"):
        other.advance(checkpoint, 1)


def test_checkpoint_is_immutable_across_advance():
    """advance returns fresh checkpoints; earlier ones stay resumable."""
    annealer = _toy_annealer(seed=11)
    first = annealer.begin()
    mid = annealer.advance(first, 50)
    end_a = annealer.advance(mid)
    # resuming from the same mid checkpoint again reproduces the tail
    end_b = _toy_annealer(seed=11).advance(mid)
    assert first.step == 0 and mid.step == 50
    assert end_a.best_cost == end_b.best_cost
    assert end_a.stats == end_b.stats


def test_run_still_matches_begin_advance_composition():
    mono = _toy_annealer(seed=2).run()
    annealer = _toy_annealer(seed=2)
    checkpoint = annealer.advance(annealer.begin())
    assert isinstance(checkpoint, WalkCheckpoint)
    assert mono.best_cost == checkpoint.best_cost
    assert mono.stats == checkpoint.stats


# -- the lazy best state and the snapshot contract behind it -----------------


#: short walks of three engine families over one hierarchical circuit
WALKS = {
    "flat": ("bstar", ()),
    "vector": ("bstar", (("vector_tier", True),)),
    "hbtree": ("hbtree", ()),
}


def _placer_walk(name: str):
    """A placer, a freshly reset engine and the placer's annealer."""
    engine_name, overrides = WALKS[name]
    overrides += (("alpha", 0.85), ("t_final", 1e-2))
    placer = make_placer(simple_testcase(12, seed=1), engine_name, 2, overrides)
    rng = random.Random(2)
    engine = placer.engine()
    engine.reset(placer.initial_state(rng))
    return placer, engine, placer.annealer(engine, rng)


@pytest.mark.parametrize("walk", WALKS)
def test_deferred_best_snapshots_score_their_cost(walk):
    """After every chunk the best state still scores the best cost,
    both for chunks that end on an improvement (one snapshot serves as
    both states) and for chunks that improved and then moved on; the
    chunked walk stays the monolithic one."""
    placer, _, mono = _placer_walk(walk)
    cp_mono = mono.advance(mono.begin(), None, _engine_synced=True)

    placer, _, chunked = _placer_walk(walk)
    cp = chunked.begin()
    ended_on_best = left_best = 0
    while not cp.finished:
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
    assert placement_to_coords(placer.finalize(cp.best_state)) == placement_to_coords(
        placer.finalize(cp_mono.best_state)
    )


def test_flat_walk_snapshots_at_most_once_per_improvement_and_chunk():
    """A run of improving accepts shares one best-state copy, taken
    when the first non-improving accept leaves it; a chunk's end takes
    one more for its checkpoint."""
    _, engine, annealer = _placer_walk("flat")
    calls = []
    snapshot = engine.snapshot

    def counting():
        calls.append(None)
        return snapshot()

    engine.snapshot = counting
    cp = annealer.begin()
    calls.clear()
    chunks = 0
    while not cp.finished:
        cp = annealer.advance(cp, 13, _engine_synced=True)
        chunks += 1
    assert len(calls) <= cp.stats.improved + chunks
    # consecutive improvements took no copy in between
    assert len(calls) < cp.stats.improved + chunks


def _flat_engine(cls, **kwargs):
    circuit = simple_testcase(12, seed=1)
    engine = cls(circuit.modules(), circuit.nets, (), BStarPlacerConfig(), **kwargs)
    return engine, engine.initial_state(random.Random(1))


def _placer_engine(name: str):
    placer = make_placer(simple_testcase(12, seed=1), name, 1)
    return placer.engine(), placer.initial_state(random.Random(1))


def _state_engine():
    def swap(state, rng):
        i, j = rng.sample(range(len(state)), 2)
        out = list(state)
        out[i], out[j] = out[j], out[i]
        return tuple(out)

    def cost(state):
        return float(sum(i * v for i, v in enumerate(state)))

    initial = tuple(range(8))
    return StateEngine(cost, FunctionMoveSet(swap), initial), initial


ENGINES = {
    "incremental": lambda: _flat_engine(IncrementalBStarEngine),
    "full-repack": lambda: _flat_engine(FullRepackBStarEngine),
    "vector": lambda: _flat_engine(VectorBStarEngine),
    "vector-scalar": lambda: _flat_engine(VectorBStarEngine, evaluator="scalar"),
    "hbtree": lambda: _placer_engine("hbtree"),
    "seqpair": lambda: _placer_engine("seqpair"),
    "slicing": lambda: _placer_engine("slicing"),
    "state": _state_engine,
}


def _same_state(a, b) -> bool:
    """B*-tree states carry a mutable tree and are compared by its
    pointers; every other engine hands out its committed immutable
    state object itself."""
    if not isinstance(a, BStarState):
        return a is b
    return _tree_image(a) == _tree_image(b)


def _tree_image(state: BStarState) -> tuple:
    tree = state.tree
    return (
        tree.root, tree.left, tree.right, tree.parent,
        dict(state.orientations), dict(state.variants),
    )


@pytest.mark.parametrize("build", ENGINES.values(), ids=ENGINES)
def test_snapshot_is_the_committed_state_while_a_proposal_is_pending(build):
    engine, initial = build()
    engine.reset(initial)
    rng, chooser = random.Random(7), random.Random(8)
    for step in range(40):
        committed = engine.snapshot()
        engine.propose(rng)
        pending = engine.snapshot()
        assert _same_state(pending, committed), f"step {step}"
        if chooser.random() < 0.5:
            engine.rollback()
            assert _same_state(pending, engine.snapshot()), f"step {step}"
        else:
            engine.commit()
