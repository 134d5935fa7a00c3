"""Simulated-annealing placer over normalized Polish expressions.

The classic Wong-Liu slicing floorplanner: anneal over normalized
Polish expressions with the M1/M2/M3 move set, evaluating each
expression by Stockmeyer shape-function packing against the unified
objective from :mod:`repro.cost` (area + wirelength; the slicing
baseline carries no aspect or proximity terms).  Provided so the
paper's section-I claim — slicing degrades density when cells differ
strongly in size — can be measured against the non-slicing engines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..anneal import AnnealConfig, AnnealingPlacer, CoordsEngine
from ..anneal.walk import CostInputs
from ..cost import DEFAULT_WEIGHTS, model_for_config
from ..geometry import ModuleSet, Net, Placement
from .packing import pack_slicing, shape_function_of
from .polish import PolishExpression


@dataclass(frozen=True)
class SlicingPlacerConfig(AnnealConfig):
    """Cost weights and annealing parameters.

    Wirelength defaults to 0.0 — the classic Wong-Liu objective is
    area-only; enable it to make the baseline net-aware.
    """

    area_weight: float = DEFAULT_WEIGHTS["area"]
    wirelength_weight: float = 0.0
    max_shapes: int | None = 16


class SlicingPlacer(AnnealingPlacer[PolishExpression]):
    """Anneal over the slicing floorplan space."""

    def __init__(
        self,
        modules: ModuleSet,
        nets: tuple[Net, ...] = (),
        config: SlicingPlacerConfig | None = None,
    ) -> None:
        self._modules = modules
        self._nets = nets
        self._config = config or SlicingPlacerConfig()
        self._cost_model = model_for_config(modules, nets, (), self._config)

    @classmethod
    def for_circuit(
        cls, circuit, config: SlicingPlacerConfig | None = None
    ) -> "SlicingPlacer":
        """Placer over a circuit's modules and nets.  Slicing ignores
        symmetry/proximity constraints by construction (the section-I
        baseline the topological engines are measured against)."""
        return cls(circuit.modules(), circuit.nets, config)

    def _cost_inputs(self, expr: PolishExpression) -> CostInputs:
        sf = shape_function_of(expr, self._modules, max_shapes=self._config.max_shapes)
        best = sf.min_area_shape()
        # The selected shape's own area is the objective (not a bounding
        # box over blocks); coordinates are walked only when an active
        # wirelength term will read them.
        coords = best.coords() if self._cost_model.tracks_wirelength else {}
        return coords, best.area

    def _move(self, expr: PolishExpression, rng: random.Random) -> PolishExpression:
        roll = rng.random()
        if roll < 0.4:
            return expr.swap_adjacent_operands(rng)
        if roll < 0.8:
            return expr.complement_chain(rng)
        return expr.swap_operand_operator(rng)

    # -- walk API (shared by run() and repro.parallel) ------------------------

    def engine(self) -> CoordsEngine[PolishExpression]:
        """A fresh incremental engine (propose -> commit/rollback):
        wirelength, when enabled, is maintained per net by the model's
        :class:`~repro.cost.CostEvaluator` instead of rescanned; draws
        and costs match the functional path bit for bit."""
        return CoordsEngine(self._move, self._cost_inputs, self._cost_model.evaluator())

    def initial_state(self, rng: random.Random) -> PolishExpression:
        return PolishExpression.random(self._modules.names(), rng)

    def finalize(self, expr: PolishExpression) -> Placement:
        return pack_slicing(expr, self._modules, max_shapes=self._config.max_shapes)
