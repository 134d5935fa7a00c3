"""Simulated-annealing sequence-pair placer with symmetry constraints.

This is the section-II flow end to end: explore only symmetric-feasible
codes with a symmetry-preserving move set, evaluate each code with the
fast packer against the unified objective from :mod:`repro.cost`
(area + wirelength + aspect under this config's weights), and return
the best placement found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..anneal import AnnealConfig, AnnealingPlacer, CoordsEngine
from ..anneal.walk import CostInputs
from ..circuit import Circuit, SymmetryGroup
from ..cost import DEFAULT_TARGET_ASPECT, DEFAULT_WEIGHTS, model_for_config
from ..geometry import ModuleSet, Net, Placement
from .moves import PlacementState, SymmetricMoveSet
from .symmetry import SymmetricPackingError, pack_symmetric, pack_symmetric_coords


@dataclass(frozen=True)
class PlacerConfig(AnnealConfig):
    """Cost weights and annealing parameters.

    The weight fields declare the objective (no proximity term: the
    sequence-pair flow handles symmetry by construction and carries no
    proximity constraints); defaults come from the canonical
    :data:`~repro.cost.DEFAULT_WEIGHTS`.
    """

    area_weight: float = DEFAULT_WEIGHTS["area"]
    wirelength_weight: float = DEFAULT_WEIGHTS["wirelength"]
    aspect_weight: float = DEFAULT_WEIGHTS["aspect"]
    target_aspect: float = DEFAULT_TARGET_ASPECT


class SequencePairPlacer(AnnealingPlacer[PlacementState]):
    """Anneal over S-F sequence-pairs for a module set with constraints."""

    def __init__(
        self,
        modules: ModuleSet,
        groups: tuple[SymmetryGroup, ...] = (),
        nets: tuple[Net, ...] = (),
        config: PlacerConfig | None = None,
    ) -> None:
        self._modules = modules
        self._groups = groups
        self._nets = nets
        self._config = config or PlacerConfig()
        self._moves = SymmetricMoveSet(modules, groups)
        # The unified objective; net pins are resolved once inside it
        # and the annealing loop evaluates codes on flat coordinates,
        # never building intermediate placements.
        self._cost_model = model_for_config(modules, nets, (), self._config)

    @classmethod
    def for_circuit(cls, circuit: Circuit, config: PlacerConfig | None = None) -> "SequencePairPlacer":
        """Placer over all modules of a circuit and its symmetry groups."""
        return cls(
            circuit.modules(),
            circuit.constraints().symmetry,
            circuit.nets,
            config,
        )

    def pack(self, state: PlacementState) -> Placement:
        """Placement for a state (exact mirror symmetry enforced)."""
        return pack_symmetric(
            state.sp, self._modules, self._groups, state.orientations, state.variants
        )

    # -- walk API (shared by run() and repro.parallel) ------------------------

    def engine(self) -> CoordsEngine[PlacementState]:
        """A fresh incremental engine: rejected codes roll back per-net
        HPWL caches instead of being re-summed next step; draws and
        costs match the functional path bit for bit."""
        return CoordsEngine(
            self._moves.propose, self._cost_inputs, self._cost_model.evaluator()
        )

    def initial_state(self, rng: random.Random) -> PlacementState:
        return self._moves.initial_state(rng)

    def finalize(self, state: PlacementState) -> Placement:
        """Materialize a state as a normalized :class:`Placement`."""
        return self.pack(state).normalized()

    def _cost_inputs(self, state: PlacementState) -> CostInputs:
        """Flat coordinate table of a state (``None`` when infeasible).

        The packed rectangles are the same floats as :meth:`pack`'s
        (see ``tests/perf/``), but no ``Placement`` is allocated.
        """
        try:
            xs, ys, sizes = pack_symmetric_coords(
                state.sp,
                self._modules,
                self._groups,
                state.orientations,
                state.variants,
            )
        except SymmetricPackingError:
            return None
        coords: dict[str, tuple[float, float, float, float]] = {}
        for name in state.sp.names:
            w, h = sizes[name]
            x0, y0 = xs[name], ys[name]
            coords[name] = (x0, y0, x0 + w, y0 + h)
        return coords, None

