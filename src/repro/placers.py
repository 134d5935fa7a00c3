"""The engine registry: annealing engine names -> configs and placers.

One table serves the CLI's single runs, the quality sweep and the
multi-start portfolio (:mod:`repro.parallel.engines` rebuilds walks
through it).  It lives outside :mod:`repro.parallel` so a single-run
command never imports the portfolio machinery.  The deterministic
shape-function placer enumerates instead of annealing, so it is not an
engine here.
"""

from __future__ import annotations

from .bstar import BStarPlacer, BStarPlacerConfig, HierarchicalPlacer
from .circuit import Circuit
from .seqpair import PlacerConfig, SequencePairPlacer
from .slicing import SlicingPlacer, SlicingPlacerConfig

#: engine name -> (config class, placer factory)
_REGISTRY = {
    "bstar": (BStarPlacerConfig, BStarPlacer.for_circuit),
    "hbtree": (BStarPlacerConfig, HierarchicalPlacer.for_circuit),
    "seqpair": (PlacerConfig, SequencePairPlacer.for_circuit),
    "slicing": (SlicingPlacerConfig, SlicingPlacer.for_circuit),
}

#: all annealing engines, in registry order
ENGINE_NAMES = tuple(_REGISTRY)


def validate_engines(engines: tuple[str, ...]) -> tuple[str, ...]:
    """Check every name against the registry; returns the tuple."""
    unknown = [e for e in engines if e not in _REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown engine(s) {', '.join(map(repr, unknown))}; "
            f"try: {', '.join(ENGINE_NAMES)}"
        )
    if not engines:
        raise ValueError("need at least one engine")
    return tuple(engines)


def build_config(engine: str, seed: int, overrides: tuple[tuple[str, object], ...] = ()):
    """The engine's config dataclass with ``seed`` and overrides applied."""
    config_cls, _ = _REGISTRY[engine]
    return config_cls(seed=seed, **dict(overrides))


def make_placer(
    circuit: Circuit, engine: str, seed: int, overrides: tuple[tuple[str, object], ...] = ()
):
    """The engine's placer over ``circuit`` under :func:`build_config`."""
    _, factory = _REGISTRY[engine]
    return factory(circuit, build_config(engine, seed, overrides))
