"""Symmetric-feasible sequence-pairs (paper section II).

Implements:

* property (1) — the *symmetric-feasible* (S-F) predicate;
* random construction of S-F codes (via per-group chain interleaving);
* the search-space reduction lemma (upper bound on the number of S-F
  codes) together with the exact count it equals for disjoint groups;
* the symmetric packer: builds an overlap-free placement from an S-F
  code in which every symmetry group is exactly mirrored about its axis.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Mapping, Sequence

from ..circuit import SymmetryGroup
from ..geometry import ModuleSet, Orientation, Placement
from .packing import _footprints, _to_placement, pack_lcs, pack_lcs_coords
from .seqpair import SequencePair


# ---------------------------------------------------------------------------
# The S-F predicate — property (1)
# ---------------------------------------------------------------------------


def is_symmetric_feasible(sp: SequencePair, groups: Iterable[SymmetryGroup]) -> bool:
    """Check property (1) for every symmetry group.

    A sequence-pair ``(alpha, beta)`` is S-F when for any distinct cells
    x, y of a symmetry group::

        alpha^-1(x) < alpha^-1(y)  <=>  beta^-1(sym(y)) < beta^-1(sym(x))
    """
    for group in groups:
        members = list(group.members())
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                lhs = sp.alpha_index(x) < sp.alpha_index(y)
                rhs = sp.beta_index(group.sym(y)) < sp.beta_index(group.sym(x))
                if lhs != rhs:
                    return False
    return True


def sf_violations(sp: SequencePair, groups: Iterable[SymmetryGroup]) -> list[tuple[str, str]]:
    """All member pairs violating property (1) (diagnostic helper)."""
    bad = []
    for group in groups:
        members = list(group.members())
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                lhs = sp.alpha_index(x) < sp.alpha_index(y)
                rhs = sp.beta_index(group.sym(y)) < sp.beta_index(group.sym(x))
                if lhs != rhs:
                    bad.append((x, y))
    return bad


# ---------------------------------------------------------------------------
# Constructing S-F codes
# ---------------------------------------------------------------------------


def make_symmetric_feasible(
    sp: SequencePair, groups: Sequence[SymmetryGroup]
) -> SequencePair:
    """Repair ``sp`` into an S-F code by reordering beta.

    Property (1) fixes, for each group, the *relative* order in beta of
    the group's members: if the members appear in alpha in the order
    ``x1 .. xm`` then their sym-images must appear in beta in the order
    ``sym(xm) .. sym(x1)``.  We keep beta's positions for each group
    fixed as a set and rewrite the occupants to follow the required
    chain, leaving all other modules untouched.  Alpha is never changed,
    so repairing after an alpha-perturbation preserves the perturbation.
    """
    beta = list(sp.beta)
    for group in groups:
        member_set = group.member_set()
        in_alpha = [m for m in sp.alpha if m in member_set]
        required = [group.sym(m) for m in reversed(in_alpha)]
        slots = [i for i, m in enumerate(beta) if m in member_set]
        for slot, name in zip(slots, required):
            beta[slot] = name
    return SequencePair(sp.alpha, tuple(beta))


def random_symmetric_feasible(
    names: Sequence[str], groups: Sequence[SymmetryGroup], rng: random.Random
) -> SequencePair:
    """A uniformly random alpha with a random S-F-compatible beta."""
    return make_symmetric_feasible(SequencePair.random(names, rng), groups)


# ---------------------------------------------------------------------------
# The counting lemma
# ---------------------------------------------------------------------------


def sf_count_upper_bound(n: int, groups: Iterable[SymmetryGroup]) -> int:
    """The lemma of section II.

    The number of S-F sequence-pairs for ``n`` cells and symmetry groups
    with ``p_k`` pairs and ``s_k`` self-symmetric cells is upper-bounded
    by ``(n!)^2 / prod_k (2 p_k + s_k)!``.

    For disjoint groups (the usual case) the bound is met with equality:
    for each of the ``n!`` alphas, the valid betas are exactly the
    permutations in which each group's members follow one prescribed
    relative order — ``n! / prod_k (group_size_k)!`` of them.
    """
    denominator = 1
    for group in groups:
        denominator *= math.factorial(group.size)
    return math.factorial(n) ** 2 // denominator


def total_sequence_pairs(n: int) -> int:
    """Total number of sequence-pairs over ``n`` cells: (n!)^2."""
    return math.factorial(n) ** 2


def search_space_reduction(n: int, groups: Iterable[SymmetryGroup]) -> float:
    """Fraction of the sequence-pair space removed by restricting to S-F
    codes (the paper reports 99.86% for the Fig. 1 example)."""
    return 1.0 - sf_count_upper_bound(n, groups) / total_sequence_pairs(n)


# ---------------------------------------------------------------------------
# Symmetric packing
# ---------------------------------------------------------------------------


class SymmetricPackingError(RuntimeError):
    """Raised when an exactly symmetric placement cannot be constructed
    (e.g. the code is not S-F, or pair footprints differ)."""


def _solve_x_exact(
    xs: dict[str, float],
    sizes: Mapping[str, tuple[float, float]],
    left_edges: list[tuple[str, str]],
    group_pairs: list[tuple[SymmetryGroup, list[tuple[str, str]]]],
    tol: float,
) -> None:
    """Solve the horizontal system exactly as a linear program.

    Variables: one x per module plus one axis per group.  Constraints:
    ``x_b - x_a >= w_a`` for every left-of edge, mirror equalities for
    pairs (``x_p + x_q = 2 A - w``) and self-symmetric cells
    (``x_s = A - w/2``).  Minimizing the coordinate sum yields the
    tightest symmetric placement; updates ``xs`` in place.
    """
    from scipy.optimize import linprog

    names = list(xs)
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    groups = [g for g, _ in group_pairs]
    axis_index = {g.name: n + i for i, g in enumerate(groups)}
    n_vars = n + len(groups)

    a_ub, b_ub = [], []
    for a, b in left_edges:
        row = [0.0] * n_vars
        row[index[a]] = 1.0
        row[index[b]] = -1.0
        a_ub.append(row)
        b_ub.append(-sizes[a][0])

    a_eq, b_eq = [], []
    for group, pairs in group_pairs:
        ai = axis_index[group.name]
        for p, q in pairs:
            row = [0.0] * n_vars
            row[index[p]] = 1.0
            row[index[q]] = 1.0
            row[ai] = -2.0
            a_eq.append(row)
            b_eq.append(-sizes[p][0])
        for s in group.self_symmetric:
            row = [0.0] * n_vars
            row[index[s]] = 1.0
            row[ai] = -1.0
            a_eq.append(row)
            b_eq.append(-sizes[s][0] / 2.0)

    result = linprog(
        c=[1.0] * n_vars,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(0.0, None)] * n_vars,
        method="highs",
    )
    if not result.success:
        raise SymmetricPackingError(
            f"symmetric placement LP infeasible: {result.message}"
        )
    for name in names:
        xs[name] = float(result.x[index[name]])


def pack_symmetric_coords(
    sp: SequencePair,
    modules: ModuleSet,
    groups: Sequence[SymmetryGroup],
    orientations: Mapping[str, Orientation] | None = None,
    variants: Mapping[str, int] | None = None,
    *,
    max_iterations: int = 200,
    tol: float = 1e-9,
) -> tuple[dict[str, float], dict[str, float], dict[str, tuple[float, float]]]:
    """Coordinate-tier core of :func:`pack_symmetric`.

    Returns ``(xs, ys, sizes)`` — lower-left corners plus the (w, h) each
    module occupies — without building any ``Placement``; the annealing
    loop evaluates codes on these and materializes a placement for the
    best state only.  Raises :class:`SymmetricPackingError` exactly as
    :func:`pack_symmetric` does.

    Starting from the minimal packing, coordinates are raised by monotone
    constraint propagation until both the sequence-pair non-overlap
    constraints and the per-group mirror constraints hold:

    * y: symmetric pair members share a y coordinate;
    * x: pair centers are mirrored about the group axis and
      self-symmetric cells are centered on it.

    All updates only increase coordinates (or the axis), so the iteration
    converges; with an S-F code it reaches an exact fixpoint (property
    (1) is precisely the condition making the constraints compatible).
    """
    footprints = _footprints(sp, modules, orientations, variants)
    xs, ys = pack_lcs_coords(sp, footprints)
    # Sizes as measured off the packed rectangles: ``(x + w) - x`` can
    # differ from ``w`` in the last ulp, and the historical object path
    # used the rectangle-derived value — keep it so results stay
    # bit-identical.
    sizes: dict[str, tuple[float, float]] = {}
    for name in sp.names:
        w, h = footprints[name]
        x, y = xs[name], ys[name]
        sizes[name] = ((x + w) - x, (y + h) - y)
    names = list(sp.names)

    for group in groups:
        for a, b in group.pairs:
            wa, ha = sizes[a]
            wb, hb = sizes[b]
            if abs(wa - wb) > tol or abs(ha - hb) > tol:
                raise SymmetricPackingError(
                    f"pair ({a}, {b}) of group {group.name!r} has mismatched "
                    f"footprints {wa:g}x{ha:g} vs {wb:g}x{hb:g}"
                )

    # Precompute constraint edges once (O(n^2), done a single time).
    left_edges = [
        (a, b) for a in names for b in names if a != b and sp.left_of(a, b)
    ]
    below_edges = [
        (a, b) for a in names for b in names if a != b and sp.below(a, b)
    ]
    # Orient pairs so .pairs[i] = (left member, right member) w.r.t. sp.
    oriented_pairs: list[tuple[str, str]] = []
    for group in groups:
        for a, b in group.pairs:
            oriented_pairs.append((a, b) if sp.left_of(a, b) else (b, a))

    def relax_packing() -> float:
        """One longest-path sweep; returns the largest coordinate change."""
        change = 0.0
        for a, b in left_edges:
            need = xs[a] + sizes[a][0]
            if xs[b] < need - tol:
                change = max(change, need - xs[b])
                xs[b] = need
        for a, b in below_edges:
            need = ys[a] + sizes[a][1]
            if ys[b] < need - tol:
                change = max(change, need - ys[b])
                ys[b] = need
        return change

    group_pairs: list[tuple[SymmetryGroup, list[tuple[str, str]]]] = []
    cursor = 0
    for group in groups:
        k = len(group.pairs)
        group_pairs.append((group, oriented_pairs[cursor : cursor + k]))
        cursor += k

    def relax_symmetry() -> float:
        """Raise coordinates toward mirror symmetry; returns max change.

        A pair short of the mirror condition has its *left* member raised
        by half the deficit: if the pair is packed tightly the right
        member follows through the packing constraints (closing the whole
        deficit); otherwise the remaining deficit halves every sweep, so
        the iteration converges geometrically to the least fixpoint.
        Raising the right member instead can push outer pairs and chase
        the axis indefinitely.
        """
        change = 0.0
        for group, pairs in group_pairs:
            # y equality within pairs.
            for a, b in pairs:
                top = max(ys[a], ys[b])
                change = max(change, top - ys[a], top - ys[b])
                ys[a] = ys[b] = top
            # the axis must accommodate every pair and self-symmetric cell
            axis = 0.0
            for a, b in pairs:
                ca = xs[a] + sizes[a][0] / 2.0
                cb = xs[b] + sizes[b][0] / 2.0
                axis = max(axis, (ca + cb) / 2.0)
            for s in group.self_symmetric:
                axis = max(axis, xs[s] + sizes[s][0] / 2.0)
            for a, b in pairs:
                ca = xs[a] + sizes[a][0] / 2.0
                cb = xs[b] + sizes[b][0] / 2.0
                deficit = 2.0 * axis - ca - cb
                if deficit > tol:
                    xs[a] += deficit / 2.0
                    change = max(change, deficit / 2.0)
            for s in group.self_symmetric:
                cs = xs[s] + sizes[s][0] / 2.0
                deficit = axis - cs
                if deficit > tol:
                    xs[s] += deficit
                    change = max(change, deficit)
        return change

    converged = False
    for _ in range(max_iterations):
        moved = relax_packing()
        moved = max(moved, relax_symmetry())
        if moved <= tol:
            converged = True
            break
    if not converged:
        # Exact fallback: solve the x system (packing + mirror equalities)
        # as a linear program; y converges by monotone iteration alone.
        _solve_x_exact(xs, sizes, left_edges, group_pairs, tol)
        for _ in range(max_iterations):
            moved = 0.0
            for a, b in below_edges:
                need = ys[a] + sizes[a][1]
                if ys[b] < need - tol:
                    moved = max(moved, need - ys[b])
                    ys[b] = need
            for group, pairs in group_pairs:
                for a, b in pairs:
                    top = max(ys[a], ys[b])
                    moved = max(moved, top - ys[a], top - ys[b])
                    ys[a] = ys[b] = top
            if moved <= tol:
                break
        else:
            raise SymmetricPackingError(
                "vertical symmetric packing did not converge; "
                "is the sequence-pair S-F?"
            )

    return xs, ys, sizes


def pack_symmetric(
    sp: SequencePair,
    modules: ModuleSet,
    groups: Sequence[SymmetryGroup],
    orientations: Mapping[str, Orientation] | None = None,
    variants: Mapping[str, int] | None = None,
    *,
    max_iterations: int = 200,
    tol: float = 1e-9,
) -> Placement:
    """Build an overlap-free placement with exact mirror symmetry.

    Object-tier wrapper over :func:`pack_symmetric_coords`; see there
    for the algorithm.
    """
    xs, ys, sizes = pack_symmetric_coords(
        sp,
        modules,
        groups,
        orientations,
        variants,
        max_iterations=max_iterations,
        tol=tol,
    )
    return _to_placement(sp, modules, xs, ys, sizes, orientations, variants)
