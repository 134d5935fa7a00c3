"""Benchmark circuit library.

The paper evaluates on six industrial circuits (Table I) that are not
publicly available.  Per the reproduction plan (DESIGN.md §4) we
synthesize stand-ins with the *same module counts*, analog-typical size
heterogeneity (large capacitors next to small transistors — the property
that makes slicing floorplans lose density, §I), and a realistic
constraint mix.  All generators are deterministic (seeded).

Also provided: the Fig. 1 sequence-pair example, the Fig. 2 hierarchical
design, and the Fig. 6 Miller op amp with its exact hierarchy tree.
"""

from __future__ import annotations

import random

from ..geometry import Module, ModuleSet, Net
from .constraints import (
    CommonCentroidGroup,
    ProximityGroup,
    SymmetryGroup,
)
from .device import Device, DeviceType
from .hierarchy import HierarchyNode
from .netlist import Circuit

# ---------------------------------------------------------------------------
# Fig. 1 — the S-F sequence-pair example of section II
# ---------------------------------------------------------------------------


def fig1_modules() -> tuple[ModuleSet, SymmetryGroup]:
    """Cells and symmetry group of the paper's Fig. 1.

    Symmetry group gamma = {(C, D), (B, G), A, F}: two symmetric pairs and
    two self-symmetric cells; E is unconstrained.  Sizes are chosen to
    resemble the figure (E is a tall block on the left, A and F are wide
    cells straddling the axis).
    """
    modules = ModuleSet.of(
        [
            Module.hard("A", 10.0, 4.0, rotatable=False),
            Module.hard("B", 4.0, 6.0, rotatable=False),
            Module.hard("C", 4.0, 5.0, rotatable=False),
            Module.hard("D", 4.0, 5.0, rotatable=False),
            Module.hard("E", 5.0, 14.0, rotatable=False),
            Module.hard("F", 12.0, 4.0, rotatable=False),
            Module.hard("G", 4.0, 6.0, rotatable=False),
        ]
    )
    group = SymmetryGroup("gamma", pairs=(("C", "D"), ("B", "G")), self_symmetric=("A", "F"))
    return modules, group


def fig1_sequence_pair() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The S-F sequence-pair (EBAFCDG, EBCDFAG) quoted in section II."""
    return tuple("EBAFCDG"), tuple("EBCDFAG")


# ---------------------------------------------------------------------------
# Fig. 6 — Miller op amp with its hierarchy tree
# ---------------------------------------------------------------------------


def miller_opamp() -> Circuit:
    """The Miller op amp of Fig. 6 with its exact design hierarchy.

    Basic module sets: DP = {P1, P2} (differential pair, symmetry),
    CM1 = {N3, N4} (current mirror, common-centroid on unit level is
    modelled as symmetry here because each device is one module),
    CM2 = {P5, P6, P7} (mirror bank), plus output device N8 and the
    compensation capacitor C.  CORE = {DP, CM1, CM2}.
    """
    p1 = Device("P1", DeviceType.PMOS, width=20.0, length=0.5, fingers=2, model="pmos-lv")
    p2 = Device("P2", DeviceType.PMOS, width=20.0, length=0.5, fingers=2, model="pmos-lv")
    n3 = Device("N3", DeviceType.NMOS, width=8.0, length=1.0, model="nmos-lv")
    n4 = Device("N4", DeviceType.NMOS, width=8.0, length=1.0, model="nmos-lv")
    p5 = Device("P5", DeviceType.PMOS, width=12.0, length=0.5, model="pmos-lv")
    p6 = Device("P6", DeviceType.PMOS, width=12.0, length=0.5, model="pmos-lv")
    p7 = Device("P7", DeviceType.PMOS, width=24.0, length=0.5, fingers=2, model="pmos-lv")
    n8 = Device("N8", DeviceType.NMOS, width=40.0, length=0.5, fingers=4, model="nmos-lv")
    cc = Device("C", DeviceType.CAPACITOR, value=900.0)
    devices = (p1, p2, n3, n4, p5, p6, p7, n8, cc)

    mod = {d.name: d.to_module(rotatable=False) for d in devices}

    dp = HierarchyNode(
        "DP",
        modules=[mod["P1"], mod["P2"]],
        constraint=SymmetryGroup("sym-DP", pairs=(("P1", "P2"),)),
    )
    cm1 = HierarchyNode(
        "CM1",
        modules=[mod["N3"], mod["N4"]],
        constraint=SymmetryGroup("sym-CM1", pairs=(("N3", "N4"),)),
    )
    cm2 = HierarchyNode(
        "CM2",
        modules=[mod["P5"], mod["P6"], mod["P7"]],
        constraint=SymmetryGroup("sym-CM2", pairs=(("P5", "P6"),), self_symmetric=("P7",)),
    )
    core = HierarchyNode("CORE", children=[dp, cm1, cm2])
    top = HierarchyNode("OPAMP", modules=[mod["N8"], mod["C"]], children=[core])

    nets = (
        Net("in-pair", ("P1", "P2"), weight=2.0),
        Net("mirror1", ("N3", "N4", "P1")),
        Net("mirror2", ("P5", "P6", "P7")),
        Net("first-out", ("P2", "N4", "N8", "C"), weight=2.0),
        Net("out", ("N8", "C", "P7")),
        Net("tail", ("P1", "P2", "P5")),
    )
    return Circuit("miller-opamp", top, nets=nets, devices=devices)


# ---------------------------------------------------------------------------
# Fig. 2 — hierarchical design with per-sub-circuit constraints
# ---------------------------------------------------------------------------


def fig2_design() -> Circuit:
    """A design shaped like Fig. 2: a top level with plain modules plus
    sub-circuits carrying proximity, symmetry (hierarchical) and
    common-centroid constraints.

    Module names follow the figure (A..K); H and I are common-centroid
    sub-circuits realized as 2x2 unit arrays, matching Fig. 4.
    """
    hard = Module.hard

    # Common-centroid sub-circuit H: devices Ha/Hb split into 2 units each.
    h_units = [hard(n, 3.0, 3.0, rotatable=False) for n in ("H1", "H2", "H3", "H4")]
    cc_h = CommonCentroidGroup(
        "cc-H", units=(("Ha", ("H1", "H4")), ("Hb", ("H2", "H3")))
    )
    node_h = HierarchyNode("H", modules=h_units, constraint=cc_h)

    i_units = [hard(n, 2.5, 2.5, rotatable=False) for n in ("I1", "I2", "I3", "I4")]
    cc_i = CommonCentroidGroup(
        "cc-I", units=(("Ia", ("I1", "I4")), ("Ib", ("I2", "I3")))
    )
    node_i = HierarchyNode("I", modules=i_units, constraint=cc_i)

    # Hierarchical symmetry sub-circuit: modules D, E mirrored, with the
    # common-centroid sub-circuits H and I inside (Fig. 4).
    d = hard("D", 6.0, 4.0, rotatable=False)
    e = hard("E", 6.0, 4.0, rotatable=False)
    a = hard("A", 8.0, 3.0, rotatable=False)
    sym_node = HierarchyNode(
        "SYM",
        modules=[d, e, a],
        children=[node_h, node_i],
        constraint=SymmetryGroup("sym-ADE", pairs=(("D", "E"),), self_symmetric=("A",)),
    )

    # Proximity sub-circuit {J, K, F, G}: same well / common guard ring.
    j = hard("J", 4.0, 5.0)
    k = hard("K", 5.0, 4.0)
    f = hard("F", 3.0, 3.0)
    g = hard("G", 3.0, 4.0)
    prox_node = HierarchyNode(
        "PROX",
        modules=[j, k, f, g],
        constraint=ProximityGroup("prox-JKFG", ("J", "K", "F", "G")),
    )

    b = hard("B", 7.0, 6.0)
    c = hard("C", 5.0, 7.0)
    top = HierarchyNode("TOP", modules=[b, c], children=[sym_node, prox_node])

    nets = (
        Net("n1", ("B", "D", "J")),
        Net("n2", ("C", "E", "K")),
        Net("n3", ("A", "H1", "I1")),
        Net("n4", ("F", "G")),
        Net("n5", ("D", "E", "A"), weight=2.0),
    )
    return Circuit("fig2-design", top, nets=nets)


# ---------------------------------------------------------------------------
# Table I circuits — synthesized stand-ins with matching module counts
# ---------------------------------------------------------------------------

#: Module counts of the six circuits in Table I of the paper.
TABLE1_MODULE_COUNTS = {
    "miller_v2": 13,
    "comparator_v2": 10,
    "folded_cascode": 22,
    "buffer": 46,
    "biasynth": 65,
    "lnamixbias": 110,
}

_TABLE1_SEEDS = {
    "miller_v2": 101,
    "comparator_v2": 202,
    "folded_cascode": 303,
    "buffer": 404,
    "biasynth": 505,
    "lnamixbias": 606,
}


def _random_device(rng: random.Random, name: str) -> Device:
    """A device with analog-typical random dimensions."""
    roll = rng.random()
    if roll < 0.62:
        dtype = DeviceType.NMOS if rng.random() < 0.5 else DeviceType.PMOS
        return Device(
            name,
            dtype,
            width=rng.uniform(2.0, 40.0),
            length=rng.choice([0.35, 0.5, 1.0, 2.0]),
            fingers=rng.choice([1, 1, 2, 4]),
            model=f"{dtype.value}-m{rng.randrange(3)}",
        )
    if roll < 0.80:
        return Device(name, DeviceType.CAPACITOR, value=rng.uniform(100.0, 2000.0))
    return Device(name, DeviceType.RESISTOR, value=rng.uniform(500.0, 20000.0))


def _chunk_sizes(n: int, rng: random.Random, lo: int = 2, hi: int = 4) -> list[int]:
    """Partition ``n`` into chunks of size lo..hi (last chunk may be 1)."""
    sizes = []
    left = n
    while left > 0:
        size = min(left, rng.randint(lo, hi))
        sizes.append(size)
        left -= size
    return sizes


def synthesize_circuit(name: str, n_modules: int, seed: int) -> Circuit:
    """Synthesize a hierarchical analog circuit with ``n_modules`` modules.

    The construction mimics how the Table-I circuits are structured:
    modules are grouped into basic module sets of 2-4 devices; about half
    of the even-sized sets are differential (symmetry constraint with
    matched pair footprints); some sets are proximity clusters; the
    remaining are unconstrained.  Basic sets are then clustered into
    intermediate hierarchy nodes of fan-out 2-3 up to a single root.
    """
    rng = random.Random(seed)
    devices: list[Device] = []
    modules: list[Module] = []
    for i in range(n_modules):
        dev = _random_device(rng, f"{name}_m{i}")
        devices.append(dev)
        modules.append(dev.to_module(rotatable=not dev.is_mos))

    # --- basic module sets ---------------------------------------------------
    set_sizes = _chunk_sizes(n_modules, rng)
    nodes: list[HierarchyNode] = []
    nets: list[Net] = []
    index = 0
    for set_id, size in enumerate(set_sizes):
        members = modules[index : index + size]
        index += size
        node = HierarchyNode(f"{name}_set{set_id}", modules=members)

        roll = rng.random()
        if size >= 2 and roll < 0.45:
            # Differential set: match pair footprints, add symmetry group.
            pairs = []
            selfsym = []
            for j in range(0, size - 1, 2):
                left, right = members[j], members[j + 1]
                right_matched = Module(right.name, left.variants, rotatable=False)
                left_matched = Module(left.name, left.variants, rotatable=False)
                members[j] = left_matched
                members[j + 1] = right_matched
                pairs.append((left.name, right.name))
            if size % 2 == 1:
                selfsym.append(members[-1].name)
            node.modules = members
            node.constraint = SymmetryGroup(
                f"sym-{name}-{set_id}", pairs=tuple(pairs), self_symmetric=tuple(selfsym)
            )
        elif size >= 2 and roll < 0.65:
            node.constraint = ProximityGroup(
                f"prox-{name}-{set_id}", tuple(m.name for m in members)
            )
        nodes.append(node)

        if size >= 2:
            nets.append(Net(f"{name}_local{set_id}", tuple(m.name for m in members)))

    # Rebuild the flat module list after matching replacements.
    modules = [m for node in nodes for m in node.modules]

    # --- intermediate hierarchy ------------------------------------------------
    level = 0
    while len(nodes) > 1:
        grouped: list[HierarchyNode] = []
        i = 0
        while i < len(nodes):
            fanout = min(len(nodes) - i, rng.randint(2, 3))
            if fanout == 1:
                grouped[-1].children.append(nodes[i])
            else:
                grouped.append(
                    HierarchyNode(
                        f"{name}_lvl{level}_{len(grouped)}",
                        children=nodes[i : i + fanout],
                    )
                )
            i += fanout
        nodes = grouped
        level += 1
    root = nodes[0]
    root.name = name

    # --- global nets ------------------------------------------------------------
    module_names = [m.name for m in modules]
    if n_modules >= 2:
        for g in range(max(1, n_modules // 3)):
            k = rng.randint(2, min(4, n_modules))
            pins = tuple(rng.sample(module_names, k))
            nets.append(Net(f"{name}_glob{g}", pins))

    circuit = Circuit(name, root, nets=tuple(nets), devices=tuple(devices))
    return circuit


def table1_circuit(key: str) -> Circuit:
    """One of the six Table-I circuits by key (see TABLE1_MODULE_COUNTS)."""
    if key not in TABLE1_MODULE_COUNTS:
        raise KeyError(f"unknown Table-I circuit {key!r}")
    return synthesize_circuit(key, TABLE1_MODULE_COUNTS[key], _TABLE1_SEEDS[key])


def table1_circuits() -> list[Circuit]:
    """All six Table-I circuits in paper order."""
    return [table1_circuit(k) for k in TABLE1_MODULE_COUNTS]


def simple_testcase(n: int, seed: int = 0) -> Circuit:
    """Small synthetic circuit for unit tests."""
    return synthesize_circuit(f"test{n}", n, seed)


def sized_folded_cascode() -> Circuit:
    """The section-V flow's output as a placement problem: devices sized
    by the layout-aware loop, symmetry groups per pair.  Deterministic
    (fixed sizing seed); the ~1s sizing anneal is memoized by the
    workload registry's build cache (:mod:`repro.workloads.registry`),
    not here — resolve through the registry to share the cached build.
    Imported lazily to keep repro.circuit import-independent of
    repro.sizing."""
    from ..sizing import layout_aware_sizing, sizing_to_circuit

    return sizing_to_circuit(layout_aware_sizing(seed=1).sizing)
