"""Registry resolution: built-ins, gen:, file:, caching, errors."""

from __future__ import annotations

import pickle
import random
from pathlib import Path

import pytest

from repro.anneal import IncrementalAnnealer
from repro.parallel import ENGINE_NAMES, PortfolioRunner, WalkSpec, build_placer
from repro.workloads import (
    BUILTIN_WORKLOADS,
    canonical_json,
    clear_workload_cache,
    resolve_workload,
    unknown_workload_message,
    workload_names,
    workload_summaries,
)

DATA = Path(__file__).parent / "data"

FAST = (("alpha", 0.8), ("t_final", 1e-2))


class TestBuiltins:
    def test_every_legacy_name_resolves(self):
        for name in ("miller_opamp", "fig2", "buffer", "lnamixbias"):
            assert resolve_workload(name).n_modules > 0

    def test_builtin_set_matches_the_legacy_registry(self):
        """The registry absorbed the old circuit lookup; the set is
        pinned explicitly so a name can neither vanish nor appear
        unreviewed."""
        assert set(BUILTIN_WORKLOADS) == {
            "miller_opamp",
            "fig2",
            "sized_folded_cascode",
            "miller_v2",
            "comparator_v2",
            "folded_cascode",
            "buffer",
            "biasynth",
            "lnamixbias",
        }

    def test_builds_are_cached(self):
        clear_workload_cache()
        assert resolve_workload("fig2") is resolve_workload("fig2")

    def test_summaries_cover_every_builtin(self):
        lines = workload_summaries()
        assert len(lines) == len(workload_names())
        assert any("miller-opamp" in line for line in lines)


class TestGenerated:
    def test_gen_resolution_is_cached_across_spellings(self):
        clear_workload_cache()
        a = resolve_workload("gen:n=16,seed=2,sym=0.5")
        b = resolve_workload("gen:sym=0.5,seed=2,n=16")
        assert a is b

    def test_gen_resolution_matches_direct_generation(self):
        from repro.workloads import generate_circuit, parse_gen_spec

        name = "gen:n=16,seed=2"
        assert canonical_json(resolve_workload(name)) == canonical_json(
            generate_circuit(parse_gen_spec(name))
        )

    def test_bad_gen_spec_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown workload parameter"):
            resolve_workload("gen:n=16,wat=3")


class TestFiles:
    def test_file_resolution(self):
        circuit = resolve_workload(f"file:{DATA / 'toy4.blocks'}")
        assert circuit.n_modules == 4

    def test_file_resolution_is_not_cached(self, tmp_path):
        """file: workloads re-read the disk — edits are visible."""
        src = (DATA / "toy4.blocks").read_text()
        target = tmp_path / "t.blocks"
        target.write_text(src)
        first = resolve_workload(f"file:{target}")
        target.write_text(
            src + "b9 hardrectilinear 4 (0, 0) (0, 1) (1, 1) (1, 0)\n"
        )
        assert resolve_workload(f"file:{target}").n_modules == first.n_modules + 1

    def test_missing_file_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="no such benchmark"):
            resolve_workload(f"file:{tmp_path / 'ghost.blocks'}")


class TestUnknownNames:
    def test_nearest_match_is_suggested(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_workload("miler_opamp")
        message = excinfo.value.args[0]
        assert "did you mean 'miller_opamp'" in message
        assert "gen:" in message and "file:" in message

    def test_message_always_lists_the_builtins(self):
        message = unknown_workload_message("zzz")
        for name in workload_names():
            assert name in message


def _walk(circuit, engine: str, seed: int, steps: int = 200):
    spec = WalkSpec(0, circuit.name, engine, seed, FAST)
    placer = build_placer(circuit, spec)
    rng = random.Random(seed)
    engine_obj = placer.engine()
    engine_obj.reset(placer.initial_state(rng))
    annealer = IncrementalAnnealer(engine_obj, placer.schedule(), rng)
    checkpoint = annealer.advance(annealer.begin(), steps, _engine_synced=True)
    return placer.finalize(checkpoint.best_state)


class TestBookshelfWorkloadsAnneal:
    """Acceptance: a Bookshelf fixture parsed from disk anneals on all
    four engines with bit-identical results across two same-seed runs."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_fixture_anneals_bit_identically(self, engine):
        circuit = resolve_workload(f"file:{DATA / 'mixed6.blocks'}")
        a = _walk(circuit, engine, seed=3)
        b = _walk(circuit, engine, seed=3)
        assert pickle.dumps(a) == pickle.dumps(b)
        assert len(a) == circuit.n_modules


class TestPortfolioIntegration:
    """Workload strings stay spawn-safe: workers re-resolve gen:/file:
    names; serial and 2-worker spawn runs return identical winners."""

    def test_gen_workload_through_the_portfolio(self):
        serial = PortfolioRunner(
            "gen:n=14,seed=2", ("bstar", "slicing"), starts=2, workers=0,
            budget=400, overrides=FAST,
        ).run()
        spawned = PortfolioRunner(
            "gen:n=14,seed=2", ("bstar", "slicing"), starts=2, workers=2,
            budget=400, overrides=FAST,
        ).run()
        assert pickle.dumps(serial.placement) == pickle.dumps(spawned.placement)
        assert serial.cost == spawned.cost

    def test_file_workload_through_the_portfolio(self):
        result = PortfolioRunner(
            f"file:{DATA / 'toy4.blocks'}", ("seqpair",), starts=2, workers=0,
            budget=400, overrides=FAST,
        ).run()
        assert len(result.leaderboard) >= 2
        assert len(result.placement) == 4
