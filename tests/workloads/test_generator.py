"""Generator properties: determinism, validity, constraint injection,
and the all-engines annealing smoke the issue demands."""

from __future__ import annotations

import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anneal import IncrementalAnnealer
from repro.circuit import ProximityGroup, SymmetryGroup
from repro.parallel import ENGINE_NAMES, WalkSpec, build_placer
from repro.workloads import (
    WorkloadSpec,
    canonical_json,
    generate_circuit,
    parse_gen_spec,
)

#: short-schedule overrides so a smoke walk stays in the milliseconds
FAST = (("alpha", 0.8), ("t_final", 1e-2))


@st.composite
def specs(draw) -> WorkloadSpec:
    return WorkloadSpec(
        n=draw(st.integers(2, 40)),
        seed=draw(st.integers(0, 2**32)),
        soft=draw(st.floats(0.0, 0.6, allow_nan=False)),
        area_sigma=draw(st.floats(0.0, 1.5, allow_nan=False)),
        nets=draw(st.floats(0.0, 2.0, allow_nan=False)),
        depth=draw(st.integers(2, 5)),
        sym=draw(st.floats(0.0, 0.6, allow_nan=False)),
        prox=draw(st.floats(0.0, 0.4, allow_nan=False)),
        outline=draw(st.one_of(st.none(), st.floats(0.0, 1.0, allow_nan=False))),
    )


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(specs())
    def test_same_spec_yields_byte_identical_circuits(self, spec):
        a = canonical_json(generate_circuit(spec))
        b = canonical_json(generate_circuit(spec))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_circuit(WorkloadSpec(n=30, seed=1))
        b = generate_circuit(WorkloadSpec(n=30, seed=2))
        assert canonical_json(a) != canonical_json(b)

    @pytest.mark.parametrize(
        "name, digest",
        [
            (
                "gen:n=5000,seed=0,sym=0,prox=0",
                "eea3291cd40c3c8f7bfdc5baaa297bbf58aa36fe3b5ac42903c55b84453c28ed",
            ),
            (
                "gen:n=1000,seed=3",
                "1db29237ed668143749bc53cc8c9930602ff63ff66c45577d1702103d650fb63",
            ),
        ],
    )
    def test_pinned_circuits_keep_their_bytes(self, name, digest):
        """Pinned sha256 of two benchmark-sized circuits: a change to
        how the generator draws (e.g. how net degrees are weighted) must
        keep every draw, and so every byte, of the circuits the
        benchmark and the tests are built on."""
        text = canonical_json(generate_circuit(parse_gen_spec(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_name_and_direct_generation_agree(self):
        """resolve-by-name and generate-by-spec are the same function."""
        spec = parse_gen_spec("gen:n=25,seed=9,sym=0.3,soft=0.2")
        assert canonical_json(generate_circuit(spec)) == canonical_json(
            generate_circuit(parse_gen_spec(spec.canonical_name()))
        )


class TestValidity:
    @settings(max_examples=30, deadline=None)
    @given(specs())
    def test_generated_circuits_validate(self, spec):
        # Circuit.__post_init__ + hierarchy.validate() run on
        # construction: unknown net pins, duplicate names and
        # out-of-subtree constraints would all raise here
        circuit = generate_circuit(spec)
        assert circuit.n_modules == spec.n
        assert circuit.hierarchy.depth() <= spec.depth + 1
        for net in circuit.nets:
            assert len(net.pins) >= 2

    def test_constraint_injection(self):
        circuit = generate_circuit(WorkloadSpec(n=60, seed=4, sym=0.5, prox=0.4))
        constraints = circuit.constraints()
        assert constraints.symmetry, "sym=0.5 produced no symmetry groups"
        assert constraints.proximity, "prox=0.4 produced no proximity groups"
        for group in constraints.symmetry:
            assert isinstance(group, SymmetryGroup)
            for left, right in group.pairs:
                # matched footprints, rotation locked
                assert (
                    circuit.module(left).variants == circuit.module(right).variants
                )
                assert not circuit.module(left).rotatable
        for group in constraints.proximity:
            assert isinstance(group, ProximityGroup)

    def test_fixed_outline_attached_and_sized(self):
        spec = WorkloadSpec(n=20, seed=1, outline=0.25, outline_aspect=2.0)
        circuit = generate_circuit(spec)
        width, height = circuit.outline
        total = sum(m.area for m in circuit.modules())
        assert width * height == pytest.approx(total * 1.25)
        assert height / width == pytest.approx(2.0)

    def test_outline_free_by_default(self):
        assert generate_circuit(WorkloadSpec(n=10, seed=0)).outline is None

    def test_scales_to_thousands(self):
        circuit = generate_circuit(WorkloadSpec(n=2000, seed=0))
        assert circuit.n_modules == 2000
        assert len(circuit.nets) > 1000


def _walk(circuit, engine: str, seed: int, steps: int = 200):
    """Run ``steps`` annealing steps of ``engine`` on ``circuit`` via
    the same walk API the portfolio drives, returning the placement."""
    spec = WalkSpec(0, circuit.name, engine, seed, FAST)
    placer = build_placer(circuit, spec)
    rng = random.Random(seed)
    engine_obj = placer.engine()
    engine_obj.reset(placer.initial_state(rng))
    annealer = IncrementalAnnealer(engine_obj, placer.schedule(), rng)
    checkpoint = annealer.advance(annealer.begin(), steps, _engine_synced=True)
    return placer.finalize(checkpoint.best_state), checkpoint.best_cost


class TestEnginesSmoke:
    """Issue acceptance: every generated workload runs 200 annealing
    steps on all four engines without error, bit-identically per seed."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize(
        "name",
        [
            "gen:n=12,seed=3",
            "gen:n=18,seed=5,sym=0.4,prox=0.3,soft=0.25",
            "gen:n=24,seed=8,depth=4,outline=0.3",
        ],
    )
    def test_200_steps_on_every_engine(self, engine, name):
        circuit = generate_circuit(parse_gen_spec(name))
        placement_a, best_a = _walk(circuit, engine, seed=1)
        placement_b, best_b = _walk(circuit, engine, seed=1)
        assert placement_a is not placement_b
        assert best_a == best_b
        assert pickle.dumps(placement_a) == pickle.dumps(placement_b)
        assert len(placement_a) == circuit.n_modules
