"""Sequence-pair placement with symmetry constraints (paper section II)."""

from .enumerate_sp import (
    all_sequence_pairs,
    count_sf_bruteforce,
    count_sf_closed_form,
    count_sf_semi_enumerated,
)
from .moves import PlacementState, SymmetricMoveSet
from .packing import pack_lcs, pack_longest_path
from .placer import PlacerConfig, SequencePairPlacer
from .seqpair import Relation, SequencePair
from .tcg import TransitiveClosureGraph
from .symmetry import (
    SymmetricPackingError,
    is_symmetric_feasible,
    make_symmetric_feasible,
    pack_symmetric,
    random_symmetric_feasible,
    search_space_reduction,
    sf_count_upper_bound,
    sf_violations,
    total_sequence_pairs,
)

__all__ = [
    "PlacementState",
    "PlacerConfig",
    "Relation",
    "SequencePair",
    "SequencePairPlacer",
    "SymmetricMoveSet",
    "SymmetricPackingError",
    "TransitiveClosureGraph",
    "all_sequence_pairs",
    "count_sf_bruteforce",
    "count_sf_closed_form",
    "count_sf_semi_enumerated",
    "is_symmetric_feasible",
    "make_symmetric_feasible",
    "pack_lcs",
    "pack_longest_path",
    "pack_symmetric",
    "random_symmetric_feasible",
    "search_space_reduction",
    "sf_count_upper_bound",
    "sf_violations",
    "total_sequence_pairs",
]
