"""Engine registry: specs rebuild placers, budgets compress correctly."""

import pytest

from repro.circuit import miller_opamp
from repro.cost import reference_model
from repro.parallel import (
    ENGINE_NAMES,
    WalkSpec,
    build_placer,
    build_placer_by_name,
    compress_overrides,
    validate_engines,
    walk_total_steps,
)

FAST = (("alpha", 0.7), ("steps_per_epoch", 20), ("t_final", 1e-2))


def spec_for(engine: str, seed: int = 0, overrides=FAST) -> WalkSpec:
    return WalkSpec(0, "miller_opamp", engine, seed, overrides)


class TestRegistry:
    def test_engine_names_cover_all_annealing_placers(self):
        assert set(ENGINE_NAMES) == {"bstar", "hbtree", "seqpair", "slicing"}

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_build_placer_exposes_the_walk_api(self, engine):
        placer = build_placer_by_name(spec_for(engine))
        for method in ("schedule", "engine", "initial_state", "finalize", "run"):
            assert callable(getattr(placer, method))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            validate_engines(("bstar", "magic"))
        with pytest.raises(ValueError, match="at least one"):
            validate_engines(())

    def test_unknown_circuit_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            build_placer_by_name(WalkSpec(0, "nope", "bstar", 0, ()))


class TestBudgets:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_walk_total_matches_the_placer_schedule(self, engine):
        spec = spec_for(engine)
        placer = build_placer_by_name(spec)
        assert walk_total_steps(spec) == placer.schedule().total_steps

    @pytest.mark.parametrize("budget", [150, 600, 10_000])
    def test_compressed_schedule_fits_the_budget(self, budget):
        overrides = compress_overrides("bstar", FAST, budget)
        spec = spec_for("bstar", overrides=overrides)
        assert 0 < walk_total_steps(spec) <= budget

    def test_compression_below_one_step_per_epoch_raises(self):
        with pytest.raises(ValueError, match="below one step per epoch"):
            compress_overrides("bstar", FAST, 3)

    def test_compression_overrides_replace_steps_per_epoch(self):
        overrides = compress_overrides("bstar", FAST, 600)
        keys = [k for k, _ in overrides]
        assert keys.count("steps_per_epoch") == 1


class TestReferenceCost:
    def test_scores_every_engines_placement_on_one_scale(self):
        circuit = miller_opamp()
        ref = reference_model(circuit).evaluate_placement
        costs = {}
        for engine in ENGINE_NAMES:
            placer = build_placer(circuit, spec_for(engine))
            result = placer.run()
            costs[engine] = ref(result.placement)
        assert all(c > 0 and c != float("inf") for c in costs.values())

    def test_is_the_bstar_objective_plus_violation_penalties(self):
        # same formula, same weights: the flat placer's own cost plus
        # 2.0 per violated constraint IS the reference cost
        circuit = miller_opamp()
        placer = build_placer(circuit, spec_for("bstar"))
        result = placer.run()
        violations = circuit.constraints().violations(result.placement)
        ref = reference_model(circuit).evaluate_placement
        assert ref(result.placement) == pytest.approx(
            result.cost + 2.0 * len(violations), rel=1e-9
        )

    def test_constraint_violations_demote_a_placement(self):
        circuit = miller_opamp()
        ref = reference_model(circuit).evaluate_placement
        clean = build_placer(circuit, spec_for("hbtree")).run().placement
        flat = build_placer(circuit, spec_for("bstar")).run().placement
        if circuit.constraints().violations(flat):
            assert ref(flat) > ref(clean)
