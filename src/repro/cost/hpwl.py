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
perturbation's neighborhood.  On designs of ``batch_min_nets`` nets or
more it keeps the cache and the module centres in numpy arrays, and a
move that affects more than a small share of the nets recomputes them
all at once over degree-class pin tables (:func:`pin_index_tables`,
:func:`batch_net_hpwl`: IEEE-identical per-net values, same summation
order); smaller designs never import numpy (see ``docs/perf.md``,
"Set-up").  It is the delta path behind :class:`repro.cost.HPWLTerm` and follows
the same ``propose -> commit/rollback`` protocol as the annealing
engines that drive it.

Every formula reproduces the object path operation for operation —
``(max - min) + (max - min)`` per net over ``(x0 + x1) / 2`` centers —
so totals agree bit for bit with :func:`repro.geometry.total_hpwl`
over the equivalent :class:`~repro.geometry.Placement` (see
``tests/perf/`` and ``tests/cost/``).
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Collection, Iterable, NamedTuple, Sequence

from ..geometry import ordered_sum

if TYPE_CHECKING:  # pragma: no cover - repro.perf imports back into this
    # package, so the Coords/Net aliases must stay annotation-only here
    from ..geometry import Net
    from ..perf.coords import Coords

#: A net resolved against the placeable names: (weight, pin names).
ResolvedNet = tuple[float, tuple[str, ...]]

#: the net count below which :class:`DeltaHPWL`'s cut stops shrinking:
#: a full recompute pays a fixed cost per degree class, so on a small
#: design it beats the scalar path only past ``batch_fraction`` of this
#: many affected nets (32 at the default fraction; tuned on generated
#: designs of 200 to 5,000 modules, see ``docs/perf.md``)
_CUT_NETS_FLOOR = 1600


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
        # one flat row-major list: numpy converts it much faster than
        # a list per net
        flat: list[int] = []
        extend = flat.extend
        for i in members:
            pins = resolved[i][1]
            extend(map(index.__getitem__, pins))
            extend([index[pins[0]]] * (depth - len(pins)))
        rows = np.array(flat, dtype=np.intp).reshape(len(members), depth)
        tables.append(
            PinClass(
                pos=np.asarray(members, dtype=np.intp),
                weights=np.asarray(
                    [resolved[i][0] for i in members], dtype=np.float64
                ),
                pins=rows.T.copy(),
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

    Each :meth:`reset` picks one of two stores for the cache:

    * **a list** — below ``batch_min_nets`` nets, or when the table
      misses a module; summed by :func:`~repro.geometry.ordered_sum`,
      and numpy is never imported;
    * **arrays** — from ``batch_min_nets`` nets on, over a complete
      table: per-net values and module-centre arrays in numpy, kept
      between steps.  A proposal that affects at most
      ``batch_fraction`` of the nets (counted as at least
      ``_CUT_NETS_FLOOR``) recomputes them on the scalar path and
      writes them into the value array; a larger one recomputes every
      net with :func:`batch_net_hpwl` over the centre arrays, into a
      spare buffer that rollback swaps back.  Centre
      rows are brought up to date only then: the names moved since the
      last full recompute are kept in a set, and only their rows are
      rewritten, from the table being scored (so a rollback never has
      to restore a row: a rolled-back name just stays in the set).
      The total is the last entry of a sequential ``cumsum``, equal to
      ``ordered_sum`` bit for bit, and every per-net value is
      IEEE-identical to the scalar path's.  Every key of an array-mode
      table must be a module name, and a table complete at reset must
      stay complete.
    """

    def __init__(
        self,
        resolved: Sequence[ResolvedNet],
        names: Iterable[str],
        *,
        batch_fraction: float = 0.02,
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
        self._adj = adj
        #: per-net values in net order: a list, or a float64 array
        self._vals = [0.0] * len(self._resolved)
        self._base: Coords | None = None
        # the pending proposal's table (None: nothing pending) and its
        # per-net undo: ``[(net, old)]`` in list mode; ``(nets, old
        # values)``, or None after a full recompute, in array mode
        self._pending_base: Coords | None = None
        self._log = None
        # array mode: pin tables and row index (built once), centres by
        # row (None in list mode), names whose rows may be out of date,
        # and the spare per-net buffer
        self._tables = None
        self._row: dict[str, int] | None = None
        self._cx = None
        self._cy = None
        self._stale: set[str] = set()
        self._spare = None

    # -- full recompute -----------------------------------------------------

    def reset(self, coords: Coords) -> float:
        """Rebuild the whole cache for ``coords`` and return the total."""
        self._pending_base = None
        self._log = None
        self._base = coords
        self._stale = set()
        if (
            len(self._resolved) >= self._batch_min_nets
            and len(coords) >= len(self._names)
        ):
            return self._reset_arrays(coords)
        self._cx = self._cy = self._spare = None
        self._vals = [net_hpwl(w, pins, coords) for w, pins in self._resolved]
        return ordered_sum(self._vals)

    # -- propose / commit / rollback ---------------------------------------

    def propose(self, coords: Coords, moved: Collection[str] | None = None) -> float:
        """Update the cache for a candidate table; return the new total.

        Must be followed by :meth:`commit` or :meth:`rollback` before
        the next proposal.
        """
        if self._pending_base is not None:
            raise RuntimeError("previous proposal not committed or rolled back")
        if moved is None:
            base = self._base if self._base is not None else {}
            base_get = base.get
            moved = [name for name, entry in coords.items() if base_get(name) != entry]
        self._pending_base = coords
        if self._cx is None:
            return self._propose_list(coords, moved)
        return self._propose_arrays(coords, moved)

    def commit(self) -> None:
        """Keep the pending proposal (no-op when none is pending)."""
        if self._pending_base is not None:
            self._base = self._pending_base
        self._pending_base = None
        self._log = None

    def rollback(self) -> None:
        """Restore the cache to the last committed proposal."""
        if self._pending_base is None:
            return
        self._pending_base = None
        log = self._log
        self._log = None
        if self._cx is None:
            vals = self._vals
            for i, old in reversed(log):
                vals[i] = old
        elif log is None:
            self._vals, self._spare = self._spare, self._vals
        else:
            nets, old = log
            self._vals.put(nets, old)

    def total(self) -> float:
        """The cached total (same accumulation order as :func:`hpwl_of`)."""
        if self._cx is not None:
            return float(self._vals.cumsum()[-1])
        return ordered_sum(self._vals)

    # -- internals ----------------------------------------------------------

    def _propose_list(self, coords: Coords, moved: Collection[str]) -> float:
        """List mode: recompute the affected nets in place, logging each
        value that changes."""
        adj_get = self._adj.get
        affected: set[int] = set()
        for name in moved:
            nets = adj_get(name)
            if nets:
                affected.update(nets)
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
        return ordered_sum(vals)

    def _propose_arrays(self, coords: Coords, moved: Collection[str]) -> float:
        """Array mode: the affected nets on the scalar path, or past the
        cut every net at once over the (refreshed) centres."""
        # collection stops at the cut: past it, every net is recomputed
        limit = self._batch_fraction * max(len(self._resolved), _CUT_NETS_FLOOR)
        adj_get = self._adj.get
        affected: set[int] = set()
        for name in moved:
            nets = adj_get(name)
            if nets:
                affected.update(nets)
                if len(affected) > limit:
                    break
        stale = self._stale
        stale.update(moved)
        if len(affected) > limit:
            self._refresh_rows(coords)
            # kept: those rows are stale again if this is rolled back
            stale.update(moved)
            spare = batch_net_hpwl(self._tables, self._cx, self._cy, self._spare)
            self._spare = self._vals
            self._vals = spare
            return float(spare.cumsum()[-1])
        nets = list(affected)
        vals = self._vals
        self._log = (nets, vals.take(nets))
        vals.put(nets, [
            net_hpwl(weight, pins, coords)
            for weight, pins in map(self._resolved.__getitem__, nets)
        ])
        return float(vals.cumsum()[-1])

    def _reset_arrays(self, coords: Coords) -> float:
        """Enter array mode: every centre and net value from scratch."""
        import numpy as np

        names = self._names
        if self._tables is None:
            self._tables = pin_index_tables(self._resolved, names)
            self._row = {name: i for i, name in enumerate(names)}
        self._cx, self._cy = _centres(coords, names)
        n_nets = len(self._resolved)
        self._vals = batch_net_hpwl(
            self._tables, self._cx, self._cy, np.empty(n_nets, dtype=np.float64)
        )
        self._spare = np.empty(n_nets, dtype=np.float64)
        return float(self._vals.cumsum()[-1])

    def _refresh_rows(self, coords: Coords) -> None:
        """Rewrite the stale names' centre rows from ``coords``."""
        import numpy as np

        names = list(self._stale)
        self._stale.clear()
        rows = np.fromiter(map(self._row.__getitem__, names), np.intp, len(names))
        self._cx[rows], self._cy[rows] = _centres(coords, names)


def _centres(coords: Coords, names: Sequence[str]):
    """``(x0 + x1) / 2`` and ``(y0 + y1) / 2`` of ``names``' entries, as
    two float64 arrays in ``names`` order (the scalar path's floats)."""
    import numpy as np

    m = len(names)
    quads = np.fromiter(
        chain.from_iterable(map(coords.__getitem__, names)), np.float64, 4 * m
    ).reshape(m, 4)
    return (quads[:, 0] + quads[:, 2]) / 2.0, (quads[:, 1] + quads[:, 3]) / 2.0
