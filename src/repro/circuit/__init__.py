"""Circuit model: devices, netlists, hierarchy, constraints, benchmarks."""

from .constraints import (
    CommonCentroidGroup,
    Constraint,
    ConstraintSet,
    ProximityGroup,
    SymmetryGroup,
    symmetry_group_of_pairs,
)
from .device import TECH, Device, DeviceType, matched_pair
from .hierarchy import ConstraintKind, HierarchyNode, cluster_by
from .library import (
    TABLE1_MODULE_COUNTS,
    fig1_modules,
    fig1_sequence_pair,
    fig2_design,
    miller_opamp,
    simple_testcase,
    sized_folded_cascode,
    synthesize_circuit,
    table1_circuit,
    table1_circuits,
)
from .netlist import Circuit

__all__ = [
    "TABLE1_MODULE_COUNTS",
    "TECH",
    "Circuit",
    "CommonCentroidGroup",
    "Constraint",
    "ConstraintKind",
    "ConstraintSet",
    "Device",
    "DeviceType",
    "HierarchyNode",
    "ProximityGroup",
    "SymmetryGroup",
    "cluster_by",
    "fig1_modules",
    "fig1_sequence_pair",
    "fig2_design",
    "matched_pair",
    "miller_opamp",
    "simple_testcase",
    "sized_folded_cascode",
    "symmetry_group_of_pairs",
    "synthesize_circuit",
    "table1_circuit",
    "table1_circuits",
]
