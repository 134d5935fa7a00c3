"""Seeded synthetic circuit generator: WorkloadSpec -> Circuit.

The generator is a *pure function* of its spec: one
:class:`random.Random` seeded with ``spec.seed`` drives every draw in
a fixed order, so the same spec always yields a byte-identical circuit
(locked by :func:`canonical_json` in the property tests).  The
construction mirrors how the repo's hand-built benchmarks are shaped:

1. **Modules** — log-normal areas (analog-typical heterogeneity),
   uniform aspect band for hard modules, a configurable fraction of
   soft modules with three aspect variants.
2. **Basic module sets** — modules chunked into sets of 2-4; a
   spec-controlled fraction become symmetry groups (pair footprints
   matched, rotation locked) or proximity clusters.
3. **Hierarchy** — sets clustered bottom-up with a fanout chosen to hit
   the spec's target depth.
4. **Nets** — power-law degrees (many 2-pin nets, a thin wide-bus
   tail) with Rent-style locality: most extra pins come from the seed
   pin's neighborhood in module order, the rest are global.
5. **Fixed outline** — optionally, a die outline of total module area
   times ``1 + spec.outline`` at the requested aspect ratio, attached
   to :attr:`repro.circuit.Circuit.outline` (the reference cost model
   then charges an :class:`~repro.cost.OutlineTerm` for spills).
"""

from __future__ import annotations

import json
import random
from itertools import accumulate
from math import ceil

from ..circuit import (
    Circuit,
    CommonCentroidGroup,
    Constraint,
    HierarchyNode,
    ProximityGroup,
    SymmetryGroup,
)
from ..geometry import Module, Net
from .spec import WorkloadSpec

#: aspect ratios (h/w) given to soft modules, matching Module.soft's default
_SOFT_RATIOS = (0.5, 1.0, 2.0)


def generate_circuit(spec: WorkloadSpec) -> Circuit:
    """The circuit ``spec`` describes — deterministic per (spec, seed)."""
    rng = random.Random(spec.seed)
    name = spec.canonical_name()

    modules = [_module(rng, spec, f"m{i}") for i in range(spec.n)]
    sets, nets = _basic_sets(rng, spec, modules)
    root = _hierarchy(spec, name, sets)
    nets += _global_nets(rng, spec, root.all_modules())
    return Circuit(
        name,
        root,
        nets=tuple(nets),
        outline=_outline(spec, root.all_modules()),
    )


# -- modules ------------------------------------------------------------------


def _module(rng: random.Random, spec: WorkloadSpec, name: str) -> Module:
    """One module: log-normal area, soft or hard per the spec."""
    area = max(1e-3, 2.718281828459045 ** rng.gauss(spec.area_mu, spec.area_sigma))
    if rng.random() < spec.soft:
        return Module.soft(name, area, _SOFT_RATIOS)
    ratio = rng.uniform(spec.ar_min, spec.ar_max)
    width = (area / ratio) ** 0.5
    return Module.hard(name, width, width * ratio)


# -- basic module sets with injected constraints ------------------------------


def _basic_sets(
    rng: random.Random, spec: WorkloadSpec, modules: list[Module]
) -> tuple[list[HierarchyNode], list[Net]]:
    """Chunk modules into sets of 2-4, injecting constraints per spec."""
    sets: list[HierarchyNode] = []
    nets: list[Net] = []
    index = 0
    set_id = 0
    while index < len(modules):
        size = min(len(modules) - index, rng.randint(2, 4))
        members = modules[index : index + size]
        index += size
        node = HierarchyNode(f"set{set_id}", modules=members)

        roll = rng.random()
        if size >= 2 and roll < spec.sym:
            node.modules, node.constraint = _symmetric(set_id, members)
        elif size >= 2 and roll < spec.sym + spec.prox:
            node.constraint = ProximityGroup(
                f"prox{set_id}", tuple(m.name for m in members)
            )
            nets.append(Net(f"local{set_id}", tuple(m.name for m in members)))
        sets.append(node)
        set_id += 1
    return sets, nets


def _symmetric(
    set_id: int, members: list[Module]
) -> tuple[list[Module], SymmetryGroup]:
    """Match pair footprints and lock rotation, as analog matching does."""
    matched: list[Module] = []
    pairs: list[tuple[str, str]] = []
    for j in range(0, len(members) - 1, 2):
        left, right = members[j], members[j + 1]
        matched.append(Module(left.name, left.variants, rotatable=False))
        matched.append(Module(right.name, left.variants, rotatable=False))
        pairs.append((left.name, right.name))
    selfsym: tuple[str, ...] = ()
    if len(members) % 2 == 1:
        last = members[-1]
        matched.append(Module(last.name, last.variants, rotatable=False))
        selfsym = (last.name,)
    return matched, SymmetryGroup(f"sym{set_id}", tuple(pairs), selfsym)


# -- hierarchy ----------------------------------------------------------------


def _hierarchy(
    spec: WorkloadSpec, name: str, sets: list[HierarchyNode]
) -> HierarchyNode:
    """Cluster basic sets bottom-up toward the target depth.

    Each grouping round bundles consecutive nodes with a fanout sized
    so the remaining rounds land on a single root at roughly
    ``spec.depth`` total levels (small designs may come up shallower —
    depth is a target, not a promise).  Fully deterministic — no RNG
    draws, so the clustering never perturbs the module/net draw order.
    """
    nodes = sets
    rounds_left = spec.depth - 1
    level = 0
    while len(nodes) > 1:
        fanout = max(2, ceil(len(nodes) ** (1.0 / max(1, rounds_left))))
        grouped: list[HierarchyNode] = []
        i = 0
        while i < len(nodes):
            take = min(len(nodes) - i, fanout)
            if take == 1:
                grouped[-1].children.append(nodes[i])
            else:
                grouped.append(
                    HierarchyNode(
                        f"lvl{level}_{len(grouped)}", children=nodes[i : i + take]
                    )
                )
            i += take
        nodes = grouped
        level += 1
        rounds_left -= 1
    root = nodes[0]
    root.name = name
    return root


# -- nets ---------------------------------------------------------------------


def _global_nets(
    rng: random.Random, spec: WorkloadSpec, modules: list[Module]
) -> list[Net]:
    """Power-law degree nets with Rent-style pin locality."""
    n = len(modules)
    count = round(spec.nets * n)
    if n < 2 or count == 0:
        return []
    names = [m.name for m in modules]
    degrees = list(range(2, min(spec.max_degree, n) + 1))
    # accumulated once: ``choices`` would re-accumulate plain weights on
    # every call, and draws the same degree from either form
    cum_weights = list(accumulate(k ** -spec.gamma for k in degrees))
    window = max(3, n // 16)

    nets: list[Net] = []
    for g in range(count):
        degree = rng.choices(degrees, cum_weights=cum_weights)[0]
        center = rng.randrange(n)
        pins = {center}
        attempts = 0
        while len(pins) < degree and attempts < 4 * degree:
            attempts += 1
            if rng.random() < spec.locality:
                pins.add((center + rng.randint(-window, window)) % n)
            else:
                pins.add(rng.randrange(n))
        while len(pins) < 2:  # degenerate draws: force a second pin
            pins.add(rng.randrange(n))
        # sorted for a deterministic pin order independent of set-hash
        nets.append(Net(f"net{g}", tuple(names[i] for i in sorted(pins))))
    return nets


# -- fixed outline ------------------------------------------------------------


def _outline(
    spec: WorkloadSpec, modules: list[Module]
) -> tuple[float, float] | None:
    if spec.outline is None:
        return None
    total = sum(m.area for m in modules) * (1.0 + spec.outline)
    width = (total / spec.outline_aspect) ** 0.5
    return (width, width * spec.outline_aspect)


# -- canonical serialization --------------------------------------------------


def canonical_json(circuit: Circuit) -> str:
    """A deterministic, byte-stable serialization of a circuit.

    Two circuits are *identical* exactly when their canonical JSON
    matches byte for byte: module variants, rotation flags, hierarchy
    shape, constraints, nets (names, pin order, weights) and the die
    outline all participate.  The determinism property tests and the
    Bookshelf round-trip tests compare through this.
    """
    return json.dumps(
        {
            "name": circuit.name,
            "outline": list(circuit.outline) if circuit.outline else None,
            "hierarchy": _node_dict(circuit.hierarchy),
            "nets": [
                {"name": n.name, "pins": list(n.pins), "weight": n.weight}
                for n in circuit.nets
            ],
            "extra_constraints": [
                _constraint_dict(c) for c in circuit.extra_constraints.all()
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _node_dict(node: HierarchyNode) -> dict:
    return {
        "name": node.name,
        "modules": [_module_dict(m) for m in node.modules],
        "children": [_node_dict(c) for c in node.children],
        "constraint": (
            _constraint_dict(node.constraint) if node.constraint else None
        ),
    }


def _module_dict(module: Module) -> dict:
    return {
        "name": module.name,
        "rotatable": module.rotatable,
        "variants": [[v.width, v.height, v.tag] for v in module.variants],
    }


def _constraint_dict(constraint: Constraint) -> dict:
    if isinstance(constraint, SymmetryGroup):
        return {
            "kind": "symmetry",
            "name": constraint.name,
            "pairs": [list(p) for p in constraint.pairs],
            "self_symmetric": list(constraint.self_symmetric),
        }
    if isinstance(constraint, CommonCentroidGroup):
        return {
            "kind": "common-centroid",
            "name": constraint.name,
            "units": [[dev, list(us)] for dev, us in constraint.units],
        }
    if isinstance(constraint, ProximityGroup):
        return {
            "kind": "proximity",
            "name": constraint.name,
            "members": list(constraint.members_),
            "margin": constraint.margin,
        }
    raise TypeError(f"unknown constraint type {type(constraint)!r}")
