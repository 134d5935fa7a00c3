"""Wirelength evaluation: full and incremental (delta) HPWL.

This is the wirelength backbone of the unified cost layer.  Net pins
are resolved to name lists once up front (dropping pins that can never
be placed and nets left with fewer than two pins — those contribute
exactly ``0.0`` either way), so each evaluation is a single pass of
float arithmetic over a flat coordinate table.

:class:`DeltaHPWL` is the *incremental* layer on top: it keeps one
cached value per net plus a module -> incident-nets adjacency,
recomputes only the nets touching modules that actually moved, and
re-sums the per-net cache left to right in net order
(:func:`~repro.geometry.ordered_sum`; from Python 3.12 builtin ``sum``
compensates rounding and would not) — so the total stays bit identical
to :func:`hpwl_of` while the per-step work shrinks to the
perturbation's neighborhood.  When a move displaces most of the design
it falls back to a numpy-vectorized batch recompute over degree-class
pin tables (:func:`pin_index_tables`, :func:`batch_net_hpwl`:
IEEE-identical per-net values, same summation order), which imports
numpy when it first runs (see ``docs/perf.md``, "Set-up").
It is the delta path behind :class:`repro.cost.HPWLTerm` and follows
the same ``propose -> commit/rollback`` protocol as the annealing
engines that drive it.

Every formula reproduces the object path operation for operation —
``(max - min) + (max - min)`` per net over ``(x0 + x1) / 2`` centers —
so totals agree bit for bit with :func:`repro.geometry.total_hpwl`
over the equivalent :class:`~repro.geometry.Placement` (see
``tests/perf/`` and ``tests/cost/``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from ..geometry import ordered_sum

if TYPE_CHECKING:  # pragma: no cover - repro.perf imports back into this
    # package, so the Coords/Net aliases must stay annotation-only here
    from ..geometry import Net
    from ..perf.coords import Coords

#: A net resolved against the placeable names: (weight, pin names).
ResolvedNet = tuple[float, tuple[str, ...]]


class PinClass(NamedTuple):
    """The nets of one degree class, as numpy tables (see
    :func:`pin_index_tables`)."""

    #: each net's position in the resolved net list, ``(count,)``
    pos: object
    #: each net's weight, ``(count,)`` float64
    weights: object
    #: pin rows, ``(depth, count)``: row ``d`` holds every net's
    #: ``d``-th pin, so a reduction over rows is full-width elementwise
    pins: object


def pin_index_tables(
    resolved: Sequence[ResolvedNet], names: Sequence[str]
) -> tuple[PinClass, ...]:
    """Group nets into degree classes for vectorized per-net HPWL.

    A net's class is its pin count rounded up to a power of two (2, 4,
    8, ...); each :class:`PinClass` holds a ``(depth, count)`` table of
    its nets' pin rows in ``names`` order.  A net shorter than its
    class depth is padded with its own first pin, which moves neither
    extreme, so one max/min reduction over the table's rows yields
    every net's span at once (:func:`batch_net_hpwl`).  Power-of-two
    depths keep padding below 2x however the degrees are distributed,
    where one table as deep as the largest net would let a single
    high-fanout net inflate every row.  ``pos`` scatters the values
    back into net order, so totals still sum in the exact
    :func:`hpwl_of` accumulation order.  Shared by :class:`DeltaHPWL`'s
    batch recompute and the array tier (:mod:`repro.perf.vector`);
    imports numpy on first call.
    """
    import numpy as np

    index = {name: i for i, name in enumerate(names)}
    classes: dict[int, list[int]] = {}
    for i, (_weight, pins) in enumerate(resolved):
        depth = 2
        while depth < len(pins):
            depth *= 2
        classes.setdefault(depth, []).append(i)
    tables = []
    for depth in sorted(classes):
        members = classes[depth]
        rows = []
        for i in members:
            row = [index[p] for p in resolved[i][1]]
            rows.append(row + row[:1] * (depth - len(row)))
        tables.append(
            PinClass(
                pos=np.asarray(members, dtype=np.intp),
                weights=np.asarray(
                    [resolved[i][0] for i in members], dtype=np.float64
                ),
                pins=np.asarray(rows, dtype=np.intp).T.copy(),
            )
        )
    return tuple(tables)


def batch_net_hpwl(tables: Sequence[PinClass], cx, cy, out):
    """Per-net weighted HPWL from module-center arrays, into ``out``.

    ``cx``/``cy`` hold centers in row order, shaped ``(n,)`` or
    ``(K, n)``; ``out`` is ``(n_nets,)`` or ``(K, n_nets)`` and comes
    back filled in net order.  Per class this is a handful of
    full-width ops: ``w * ((max - min)_x + (max - min)_y)`` over the
    pin rows, the formula of :func:`net_hpwl` term for term (for a
    two-pin net ``max - min`` is ``|a - b|`` bit for bit), so every
    value is IEEE-identical to the scalar path.
    """
    for pos, weights, pins in tables:
        px = cx.take(pins, axis=-1)
        py = cy.take(pins, axis=-1)
        span = px.max(axis=-2)
        span -= px.min(axis=-2)
        span_y = py.max(axis=-2)
        span_y -= py.min(axis=-2)
        span += span_y
        span *= weights
        out[..., pos] = span
    return out


def resolve_nets(nets: Iterable[Net], names: Iterable[str]) -> list[ResolvedNet]:
    """Pre-resolve net pins against the set of placeable module names.

    Pins outside ``names`` are dropped (they can never appear in a
    placement over these modules); nets left with fewer than two pins
    always contribute zero wirelength and are dropped entirely.
    """
    known = set(names)
    resolved: list[ResolvedNet] = []
    for net in nets:
        pins = tuple(p for p in net.pins if p in known)
        if len(pins) >= 2:
            resolved.append((net.weight, pins))
    return resolved


def hpwl_of(resolved: Sequence[ResolvedNet], coords: Coords) -> float:
    """Weighted HPWL over module centers (mirrors :func:`total_hpwl`).

    The per-net values of :func:`net_hpwl`, summed left to right in net
    order (:func:`~repro.geometry.ordered_sum`), so a cache of per-net
    values re-summed the same way reproduces the total bit for bit.
    """
    # float(): an empty sum is the int 0
    return float(
        ordered_sum([net_hpwl(weight, pins, coords) for weight, pins in resolved])
    )


def net_hpwl(weight: float, pins: tuple[str, ...], coords: Coords) -> float:
    """One net's weighted HPWL: the term :func:`hpwl_of` adds for it.

    ``0.0`` when fewer than two pins are placed.  Two-pin nets — the
    overwhelming majority in practice — take a branch-free fast path;
    the span ``|c1 - c2|`` equals ``max - min`` bit for bit.
    """
    get = coords.get
    if len(pins) == 2:
        a = get(pins[0])
        if a is None:
            return 0.0
        b = get(pins[1])
        if b is None:
            return 0.0
        ax0, ay0, ax1, ay1 = a
        bx0, by0, bx1, by1 = b
        cax = (ax0 + ax1) / 2.0
        cbx = (bx0 + bx1) / 2.0
        cay = (ay0 + ay1) / 2.0
        cby = (by0 + by1) / 2.0
        dx = cax - cbx if cax >= cbx else cbx - cax
        dy = cay - cby if cay >= cby else cby - cay
        return weight * (dx + dy)
    min_x = max_x = min_y = max_y = 0.0
    count = 0
    for pin in pins:
        entry = get(pin)
        if entry is None:
            continue
        x0, y0, x1, y1 = entry
        cx = (x0 + x1) / 2.0
        cy = (y0 + y1) / 2.0
        if count == 0:
            min_x = max_x = cx
            min_y = max_y = cy
        else:
            if cx < min_x:
                min_x = cx
            elif cx > max_x:
                max_x = cx
            if cy < min_y:
                min_y = cy
            elif cy > max_y:
                max_y = cy
        count += 1
    if count >= 2:
        return weight * ((max_x - min_x) + (max_y - min_y))
    return 0.0


class DeltaHPWL:
    """Incremental weighted HPWL with commit/rollback semantics.

    Maintains one cached value per resolved net and a module ->
    incident-net adjacency.  A proposal recomputes only the nets
    touching moved modules (undo-logged), then re-sums the cache *in net
    order* — the float accumulation :func:`hpwl_of` performs — so totals
    are bit-identical to a from-scratch evaluation of the same table.

    Two proposal styles:

    * ``propose(coords, moved=names)`` — the caller knows which modules
      changed (the dirty-suffix B*-tree engine tracks them during the
      partial repack; ``coords`` may be the same dict mutated in place);
    * ``propose(coords)`` — diff ``coords`` against the last committed
      table entry by entry (placers that repack into a fresh dict each
      step, e.g. the HB*-tree forest and sequence-pair loops).

    When a proposal touches more than ``batch_fraction`` of the nets on
    a design with at least ``batch_min_nets`` of them, the whole cache
    is rebuilt through the numpy degree-class batch path instead
    (:func:`batch_net_hpwl`; per-net values are IEEE-identical to the
    scalar path, and the total is still summed in net order).
    """

    def __init__(
        self,
        resolved: Sequence[ResolvedNet],
        names: Iterable[str],
        *,
        batch_fraction: float = 0.5,
        batch_min_nets: int = 192,
    ) -> None:
        self._resolved = list(resolved)
        self._names = list(names)
        self._batch_fraction = batch_fraction
        self._batch_min_nets = batch_min_nets
        adj: dict[str, list[int]] = {}
        for i, (_w, pins) in enumerate(self._resolved):
            for pin in pins:
                adj.setdefault(pin, []).append(i)
        self._adj: dict[str, tuple[int, ...]] = {
            name: tuple(nets) for name, nets in adj.items()
        }
        self._vals: list[float] = [0.0] * len(self._resolved)
        self._base: Coords | None = None
        # pending-proposal undo state: per-net log, or a whole-list swap
        self._log: list[tuple[int, float]] | None = None
        self._swapped_out: list[float] | None = None
        self._pending_base: Coords | None = None
        # numpy batch state, built lazily on first batch recompute: the
        # degree-class pin tables and a preallocated (n, 4) gather
        # buffer reused across recomputes (rebuilding the array from a
        # dict comprehension each time dominated the batch path's cost)
        self._np_tables = None
        self._np_buf = None

    # -- full recompute -----------------------------------------------------

    def reset(self, coords: Coords) -> float:
        """Rebuild the whole cache for ``coords`` and return the total."""
        self._log = None
        self._swapped_out = None
        self._pending_base = None
        if self._batch_usable(coords) and len(self._resolved) >= self._batch_min_nets:
            self._vals = self._batch_vals(coords)
        else:
            self._vals = [net_hpwl(w, pins, coords) for w, pins in self._resolved]
        self._base = coords
        return ordered_sum(self._vals)

    # -- propose / commit / rollback ---------------------------------------

    def propose(self, coords: Coords, moved: Iterable[str] | None = None) -> float:
        """Update the cache for a candidate table; return the new total.

        Must be followed by :meth:`commit` or :meth:`rollback` before
        the next proposal.
        """
        if self._log is not None or self._swapped_out is not None:
            raise RuntimeError("previous proposal not committed or rolled back")
        adj_get = self._adj.get
        affected: set[int] = set()
        if moved is None:
            base = self._base if self._base is not None else {}
            base_get = base.get
            for name, entry in coords.items():
                if base_get(name) != entry:
                    nets = adj_get(name)
                    if nets:
                        affected.update(nets)
        else:
            for name in moved:
                nets = adj_get(name)
                if nets:
                    affected.update(nets)
        n_nets = len(self._resolved)
        if (
            n_nets >= self._batch_min_nets
            and len(affected) > self._batch_fraction * n_nets
            and self._batch_usable(coords)
        ):
            self._swapped_out = self._vals
            self._vals = self._batch_vals(coords)
        else:
            log: list[tuple[int, float]] = []
            vals = self._vals
            resolved = self._resolved
            get = coords.get
            for i in affected:
                weight, pins = resolved[i]
                # inlined 2-pin fast path (the overwhelming majority);
                # arithmetic identical to hpwl_of / net_hpwl
                if len(pins) == 2:
                    a = get(pins[0])
                    b = get(pins[1])
                    if a is None or b is None:
                        new = 0.0
                    else:
                        ax0, ay0, ax1, ay1 = a
                        bx0, by0, bx1, by1 = b
                        cax = (ax0 + ax1) / 2.0
                        cbx = (bx0 + bx1) / 2.0
                        cay = (ay0 + ay1) / 2.0
                        cby = (by0 + by1) / 2.0
                        dx = cax - cbx if cax >= cbx else cbx - cax
                        dy = cay - cby if cay >= cby else cby - cay
                        new = weight * (dx + dy)
                else:
                    new = net_hpwl(weight, pins, coords)
                old = vals[i]
                if new != old:
                    log.append((i, old))
                    vals[i] = new
            self._log = log
        self._pending_base = coords
        return ordered_sum(self._vals)

    def commit(self) -> None:
        """Keep the pending proposal (no-op when none is pending)."""
        if self._pending_base is not None:
            self._base = self._pending_base
        self._log = None
        self._swapped_out = None
        self._pending_base = None

    def rollback(self) -> None:
        """Restore the cache to the last committed proposal."""
        if self._swapped_out is not None:
            self._vals = self._swapped_out
            self._swapped_out = None
        elif self._log is not None:
            vals = self._vals
            for i, old in reversed(self._log):
                vals[i] = old
            self._log = None
        self._pending_base = None

    def total(self) -> float:
        """The cached total (same accumulation order as :func:`hpwl_of`)."""
        return ordered_sum(self._vals)

    # -- numpy batch path ---------------------------------------------------

    def _batch_usable(self, coords: Coords) -> bool:
        # the vectorized path indexes every module unconditionally, so it
        # needs a complete coordinate table
        return len(coords) >= len(self._names)

    def _batch_vals(self, coords: Coords) -> list[float]:
        import numpy as np

        if self._np_tables is None:
            self._np_tables = pin_index_tables(self._resolved, self._names)
        arr = self._np_buf
        if arr is None:
            arr = self._np_buf = np.empty((len(self._names), 4), dtype=np.float64)
        # gather through a flat python list into the preallocated
        # buffer's flat view: measurably faster than materializing a
        # fresh (n, 4) array from a dict comprehension every recompute
        entries: list[float] = []
        extend = entries.extend
        for name in self._names:
            extend(coords[name])
        arr.reshape(-1)[:] = entries
        cx = (arr[:, 0] + arr[:, 2]) / 2.0
        cy = (arr[:, 1] + arr[:, 3]) / 2.0
        vals = np.empty(len(self._resolved), dtype=np.float64)
        return batch_net_hpwl(self._np_tables, cx, cy, vals).tolist()
