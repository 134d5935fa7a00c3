"""B*-tree placers: flat and hierarchical simulated annealing.

The hierarchical placer is the section-III flow: simultaneous annealing
over the whole HB*-tree forest, with symmetry islands and common-
centroid arrays maintained by construction and proximity rewarded in the
cost.

Both placers anneal the unified objective from :mod:`repro.cost`
(area + wirelength + aspect + proximity under this config's weights);
there is no placer-private cost code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..anneal import AnnealConfig, AnnealingPlacer, BatchedAnnealer, IncrementalAnnealer
from ..anneal.walk import CostInputs
from ..circuit import Circuit
from ..cost import DEFAULT_TARGET_ASPECT, DEFAULT_WEIGHTS, model_for_config
from ..geometry import ModuleSet, Net, Placement
from ..perf import BStarKernel, IncrementalBStarEngine
from .hb_tree import HBIncrementalEngine, HBStarTreePlacement, HBState
from .perturb import BStarState
from .tree import BStarTree


@dataclass(frozen=True)
class BStarPlacerConfig(AnnealConfig):
    """Cost weights and annealing parameters (shared by both placers).

    The weight fields *declare* the objective: :func:`~repro.cost.
    model_for_config` turns them into the placer's
    :class:`~repro.cost.CostModel`.  Defaults come from the canonical
    :data:`~repro.cost.DEFAULT_WEIGHTS`.
    """

    area_weight: float = DEFAULT_WEIGHTS["area"]
    wirelength_weight: float = DEFAULT_WEIGHTS["wirelength"]
    aspect_weight: float = DEFAULT_WEIGHTS["aspect"]
    proximity_weight: float = DEFAULT_WEIGHTS["proximity"]
    target_aspect: float = DEFAULT_TARGET_ASPECT
    #: opt into the vector tier (flat placer only):
    #: :class:`~repro.perf.VectorBStarEngine`'s windowed moves, annealed
    #: by :class:`~repro.anneal.BatchedAnnealer`.
    #: A different move/draw family from the incremental engine — same
    #: objective, not the same trajectory (see ``docs/perf.md``).
    vector_tier: bool = False


class BStarPlacer(AnnealingPlacer[BStarState]):
    """Flat simulated-annealing placement over B*-trees (no hierarchy)."""

    def __init__(
        self,
        modules: ModuleSet,
        nets: tuple[Net, ...] = (),
        config: BStarPlacerConfig | None = None,
    ) -> None:
        self._modules = modules
        self._nets = nets
        self._config = config or BStarPlacerConfig()
        # Reference evaluation tier: packed coordinates and the unified
        # cost model with no Placement/PlacedModule churn.  The
        # annealing loop itself runs the *incremental* engine
        # (dirty-suffix repack + delta HPWL), whose costs are
        # bit-identical to this kernel on every state, and reads the
        # kernel's footprint tables and cost model.
        self._kernel = BStarKernel(modules, nets, (), self._config)
        self._cost_model = self._kernel.model

    @classmethod
    def for_circuit(
        cls, circuit: Circuit, config: BStarPlacerConfig | None = None
    ) -> "BStarPlacer":
        """Flat placer over a circuit's modules and nets (constraints are
        the :class:`HierarchicalPlacer`'s job; this engine ignores them)."""
        return cls(circuit.modules(), circuit.nets, config)

    def _cost_inputs(self, state: BStarState) -> CostInputs:
        return self._kernel.pack(state.tree, state.orientations, state.variants), None

    # -- walk API (shared by run() and repro.parallel) ------------------------

    def engine(self):
        """A fresh annealing engine (call ``reset`` before annealing).

        ``config.vector_tier`` selects the vector tier's
        :class:`~repro.perf.VectorBStarEngine` (imported on first use);
        the default is the dirty-suffix
        :class:`~repro.perf.IncrementalBStarEngine`.  Both reuse this
        placer's kernel.
        """
        if self._config.vector_tier:
            from ..perf.vector import VectorBStarEngine

            return VectorBStarEngine(
                self._modules, self._nets, (), self._config, kernel=self._kernel
            )
        return IncrementalBStarEngine(
            self._modules, self._nets, (), self._config, kernel=self._kernel
        )

    def annealer(self, engine, rng: random.Random) -> IncrementalAnnealer:
        """The annealing driver matched to this config's engine tier."""
        if self._config.vector_tier:
            return BatchedAnnealer(engine, self.schedule(), rng)
        return super().annealer(engine, rng)

    def initial_state(self, rng: random.Random) -> BStarState:
        return BStarState(BStarTree.random(self._modules.names(), rng))

    def finalize(self, state: BStarState) -> Placement:
        """Materialize a state as a normalized :class:`Placement`.

        Packs through the flat kernel, whose coordinates equal the
        object-tier :func:`~repro.bstar.packing.pack` bit for bit
        (``tests/perf/test_kernel_equivalence.py``).
        """
        return self._kernel.placement(
            state.tree, state.orientations, state.variants
        ).normalized()


class HierarchicalPlacer(AnnealingPlacer[HBState]):
    """Section-III hierarchical placer over the HB*-tree forest."""

    def __init__(self, circuit: Circuit, config: BStarPlacerConfig | None = None) -> None:
        self._circuit = circuit
        self._config = config or BStarPlacerConfig()
        self._modules = circuit.modules()
        self._hb = HBStarTreePlacement(circuit.hierarchy, self._modules)
        self._constraints = circuit.constraints()
        # The shared objective, fed by the forest's flat-coordinate
        # packer (bit-identical to the rich-placement evaluation).
        self._cost_model = model_for_config(
            self._modules, circuit.nets, self._constraints.proximity, self._config
        )

    @classmethod
    def for_circuit(
        cls, circuit: Circuit, config: BStarPlacerConfig | None = None
    ) -> "HierarchicalPlacer":
        """Uniform factory (the constructor already takes a circuit)."""
        return cls(circuit, config)

    def pack(self, state: HBState) -> Placement:
        return self._hb.pack(state)

    def _cost_inputs(self, state: HBState) -> CostInputs:
        return self._hb.pack_coords(state), None

    # -- walk API (shared by run() and repro.parallel) ------------------------

    def engine(self) -> HBIncrementalEngine:
        """A fresh incremental forest engine: repacks only the perturbed
        level's root path (cached subtrees elsewhere) and delta-evaluates
        wirelength; draws and costs match the functional path bit for
        bit, so trajectories are unchanged — only faster."""
        if self._config.vector_tier:
            raise ValueError(
                "vector_tier is flat-placer only: the HB*-tree forest "
                "has no vector-tier engine (use engine 'bstar')"
            )
        return HBIncrementalEngine(self._hb, self._cost_model)

    def initial_state(self, rng: random.Random) -> HBState:
        return self._hb.initial_state(rng)

    def finalize(self, state: HBState) -> Placement:
        return self._hb.pack(state)
