"""Set-up does each piece of work once and loads each tier on demand.

* A placer and the engine it builds share one
  :class:`~repro.perf.BStarKernel` (footprint tables, default sizes,
  cost model) on the flat B*-tree, and one cost model on the HB*-tree
  forest; counted here by wrapping the constructors.
* numpy and the vector tier load on first use: a portfolio worker's
  chunks on a circuit below ``DeltaHPWL``'s ``batch_min_nets`` never
  import numpy, while the vector tier (by name from :mod:`repro.perf`,
  or built by a ``vector_tier`` placer) still loads it.  Checked in
  fresh interpreters, since this process imported numpy long ago.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.bstar.placer as bstar_placer
import repro.cost as cost
import repro.cost.model as cost_model
from repro.circuit import fig2_design
from repro.perf import BStarKernel
from repro.placers import make_placer
from repro.workloads import resolve_workload

SRC = Path(__file__).resolve().parents[2] / "src"


def _fresh(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; its stdout lines."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture
def built_kernels(monkeypatch) -> list:
    """Every :class:`BStarKernel` constructed while the test runs."""
    built = []
    original = BStarKernel.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(BStarKernel, "__init__", counting)
    return built


class TestBuiltOncePerPlacer:
    @pytest.mark.parametrize(
        "overrides", [(), (("vector_tier", True),)], ids=["incremental", "vector"]
    )
    def test_bstar_placer_and_engine_build_one_kernel(self, built_kernels, overrides):
        circuit = resolve_workload("gen:n=60,seed=2,sym=0,prox=0")
        placer = make_placer(circuit, "bstar", 3, overrides)
        engine = placer.engine()
        state = placer.initial_state(random.Random(3))
        # the shared kernel serves both sides: same cost, bit for bit
        assert engine.reset(state) == placer.cost(state)
        assert len(built_kernels) == 1

    def test_directly_built_engines_build_their_own_kernel(self, built_kernels):
        from repro.bstar import BStarPlacerConfig
        from repro.perf import IncrementalBStarEngine, VectorBStarEngine

        circuit = resolve_workload("gen:n=40,seed=1,sym=0,prox=0")
        config = BStarPlacerConfig(seed=1)
        for cls in (IncrementalBStarEngine, VectorBStarEngine):
            cls(circuit.modules(), circuit.nets, (), config)
        assert len(built_kernels) == 2

    def test_hbtree_placer_and_engine_build_one_model(self, monkeypatch):
        calls = []
        original = cost_model.model_for_config

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # every name the model builder is reached through
        for owner in (cost_model, cost, bstar_placer):
            monkeypatch.setattr(owner, "model_for_config", counting)
        placer = make_placer(fig2_design(), "hbtree", 4)
        engine = placer.engine()
        state = placer.initial_state(random.Random(4))
        assert engine.reset(state) == placer.cost(state)
        assert len(calls) == 1


class TestLoadedOnFirstUse:
    def test_portfolio_worker_chunks_never_import_numpy(self):
        lines = _fresh(
            "import sys\n"
            "import repro.parallel.remote\n"
            "from repro.parallel.jobs import ChunkTask, WalkSpec\n"
            "from repro.parallel.runner import _execute\n"
            "for walk, engine in enumerate(('hbtree', 'bstar')):\n"
            "    spec = WalkSpec(walk, 'lnamixbias', engine, 7)\n"
            "    result = _execute(ChunkTask(spec, None, 300))\n"
            "    print(engine, result.checkpoint.step)\n"
            "print('numpy imported:', 'numpy' in sys.modules)\n"
        )
        assert lines == ["hbtree 300", "bstar 300", "numpy imported: False"]

    def test_vector_tier_still_loads_by_name_and_from_a_placer(self):
        lines = _fresh(
            "import sys\n"
            "import repro.perf\n"
            "print('numpy imported:', 'numpy' in sys.modules)\n"
            "from repro.perf import BatchCostEvaluator, VectorBStarEngine\n"
            "from repro.perf import vector\n"
            "print(VectorBStarEngine is vector.VectorBStarEngine,\n"
            "      BatchCostEvaluator is vector.BatchCostEvaluator)\n"
            "print('numpy imported:', 'numpy' in sys.modules)\n"
            "try:\n"
            "    repro.perf.NoSuchEngine\n"
            "except AttributeError as exc:\n"
            "    print('missing:', exc)\n"
        )
        assert lines == [
            "numpy imported: False",
            "True True",
            "numpy imported: True",
            "missing: module 'repro.perf' has no attribute 'NoSuchEngine'",
        ]
        lines = _fresh(
            "import random, sys\n"
            "from repro.placers import make_placer\n"
            "from repro.workloads import resolve_workload\n"
            "circuit = resolve_workload('gen:n=40,seed=1,sym=0,prox=0')\n"
            "placer = make_placer(circuit, 'bstar', 1, (('vector_tier', True),))\n"
            "print('numpy imported:', 'numpy' in sys.modules)\n"
            "engine = placer.engine()\n"
            "import repro.perf\n"
            "print(type(engine) is repro.perf.VectorBStarEngine)\n"
            "print('numpy imported:', 'numpy' in sys.modules)\n"
            "state = placer.initial_state(random.Random(1))\n"
            "print(engine.reset(state) == placer.cost(state))\n"
        )
        assert lines == [
            "numpy imported: False", "True", "numpy imported: True", "True",
        ]
