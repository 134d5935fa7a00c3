"""The vector tier: windowed multi-scale walks on the shared step.

Two pieces
==========

:class:`VectorBStarEngine`
    The flat B*-tree engine of the vector tier.  It runs
    :class:`~repro.perf.incremental.FlatBStarEngine`'s in-place step —
    dirty-suffix repack into the live table, scored by the kernel
    model's delta-capable :class:`~repro.cost.CostEvaluator` — exactly
    as :class:`~repro.perf.IncrementalBStarEngine` does, and
    :class:`~repro.anneal.IncrementalAnnealer` anneals it like every
    other engine; only its draw differs.  Moves are *windowed*
    (:class:`~repro.bstar.perturb.WindowedBStarMoves`): each candidate
    draws a log-uniform suffix length, so the expected repack cost is
    ``O(n / ln n)`` instead of ``O(n)`` while long-range moves are
    still sampled.  On designs of ``DeltaHPWL``'s ``batch_min_nets``
    nets or more the wirelength delta runs on maintained numpy arrays
    (see :class:`~repro.cost.DeltaHPWL`).

:class:`BatchCostEvaluator`
    Vectorized per-term evaluation of ``K`` candidates at once behind
    the :class:`~repro.cost.CostModel` protocol: per-net HPWL over
    ``(K, n)`` centre arrays by :func:`repro.cost.hpwl.batch_net_hpwl`
    (degree-class pin tables), then the model's own
    ``evaluate(coords, hpwl=..., bounding=...)``, so totals are
    byte-identical to the scalar path (``np.cumsum`` row sums in net
    order reproduce the sequential float additions exactly).  The walk
    no longer uses it; it stays as a tested batch evaluator and a
    benchmark reference.

The scalar oracle
    The engine built with ``evaluator="scalar"`` replays identical
    draws but scores every candidate through a full
    ``CostModel.evaluate`` of the live table.  Delta and full
    evaluation are bit-identical, so a vector walk and its
    scalar-oracle twin agree on every candidate cost and every best
    cost — the A/B discipline the bench (``benchmarks/bench_vector.py``)
    and the equivalence suite assert with ``==``, no tolerances.

Bit-identity boundary: within a walk, vector vs scalar-oracle costs
are exact.  Vector-tier walks are *not* draw-compatible with the
global-move :class:`IncrementalBStarEngine` (windowed draws are a
different, equally-distributed family), so cross-tier comparisons pin
placement *quality* (the sweep matrix), not trajectories.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..circuit import ProximityGroup
from ..cost.hpwl import batch_net_hpwl, pin_index_tables
from ..cost.terms import (
    AreaTerm,
    AspectTerm,
    HPWLTerm,
    OutlineTerm,
    ProximityTerm,
)
from ..geometry import ModuleSet, Net
from .incremental import FlatBStarEngine
from .kernel import BStarKernel

if TYPE_CHECKING:  # pragma: no cover
    from ..cost.model import CostModel

#: exponent applied to the uniform draw behind each candidate's
#: log-uniform window size: >1 biases toward short (cheap) windows
#: while keeping the full multi-scale range reachable.  2.5 measured
#: best on the steps/s-vs-quality frontier at n=1000 (see docs/perf.md)
_WINDOW_BIAS = 2.5

#: smallest suffix a windowed move draws: the window length is
#: log-uniform in ``[_WINDOW_MIN, n]``
_WINDOW_MIN = 8

#: term classes the vectorized pass can feed (everything else —
#: e.g. the boundary-tier ViolationTerm — needs inputs the hot loop
#: cannot provide, exactly as in the scalar engines)
_SUPPORTED_TERMS = (AreaTerm, HPWLTerm, AspectTerm, OutlineTerm, ProximityTerm)


class BatchCostEvaluator:
    """Batched, vectorized evaluation behind the ``CostModel`` protocol.

    Construct once from the model and the (row-ordered) module names;
    call :meth:`totals` with ``(K, n)`` center arrays and K
    bounding boxes.  Wirelength — the only O(n) term — is vectorized
    across the whole batch; every other term is O(1) per candidate and
    runs through the model's own ``accumulate`` chain, which is what
    makes totals byte-identical to :meth:`CostModel.evaluate`.
    """

    _EMPTY: dict = {}

    def __init__(self, model: CostModel, names: Sequence[str]) -> None:
        reason = self.unsupported_reason(model)
        if reason:
            raise ValueError(f"model not vectorizable: {reason}")
        self._model = model
        self._names = tuple(names)
        term = model.hpwl_term
        self._wl_active = term is not None and term.active
        resolved = term.resolved if term is not None else []
        self._n_nets = len(resolved)
        self._tables = pin_index_tables(resolved, self._names)

    @staticmethod
    def unsupported_reason(model: CostModel) -> str | None:
        """Why this evaluator cannot score ``model`` (or ``None``)."""
        for term in model.terms:
            if not isinstance(term, _SUPPORTED_TERMS):
                return (
                    f"term {term.name!r} ({type(term).__name__}) has no "
                    "vectorized path (boundary-tier terms never run in "
                    "annealing hot loops)"
                )
            if isinstance(term, ProximityTerm) and term.groups and term.active:
                return (
                    "active proximity groups have no array form (the "
                    "delta path of CostEvaluator serves them)"
                )
        return None

    def batch_hpwl(self, cx, cy):
        """Weighted HPWL of K candidates; ``(K, n)`` centers -> ``(K,)``.

        Per-net values are IEEE-identical to the scalar per-net path and
        the row sum (``cumsum``) replicates the left-to-right float
        accumulation of :func:`~repro.geometry.ordered_sum` exactly.
        """
        vals = np.empty((cx.shape[0], self._n_nets), dtype=np.float64)
        batch_net_hpwl(self._tables, cx, cy, vals)
        return vals.cumsum(axis=1)[:, -1]

    def totals(
        self,
        cx,
        cy,
        boundings: Sequence[tuple[float, float, float, float]],
    ) -> list[float]:
        """Total cost per candidate, in the model's own term order."""
        k = cx.shape[0]
        if self._n_nets and self._wl_active:
            hpwls = self.batch_hpwl(cx, cy).tolist()
        elif self._wl_active:
            # active term over zero resolved nets: the delta path feeds
            # the scalar evaluator an empty sum (0) — match it exactly
            hpwls = [0.0] * k
        else:
            hpwls = [None] * k
        evaluate = self._model.evaluate
        empty = self._EMPTY
        return [evaluate(empty, hpwls[j], boundings[j]) for j in range(k)]


class _FullRescan:
    """The scalar oracle's evaluator: a full ``CostModel.evaluate`` of
    the live table at every proposal (same surface as
    :class:`~repro.cost.CostEvaluator`, nothing cached)."""

    def __init__(self, model: CostModel) -> None:
        self._evaluate = model.evaluate

    def reset(self, coords, *, bounding=None) -> float:
        return self._evaluate(coords, bounding=bounding)

    def propose(self, coords, moved=None, bounding=None) -> float:
        return self._evaluate(coords, bounding=bounding)

    def commit(self) -> None:
        pass

    def rollback(self) -> None:
        pass


class VectorBStarEngine(FlatBStarEngine):
    """Windowed multi-scale B*-tree engine (vector tier).

    Implements the :class:`repro.anneal.IncrementalEngine` protocol on
    :class:`FlatBStarEngine`'s in-place step and is annealed by
    :class:`repro.anneal.IncrementalAnnealer` like every other engine;
    only its draw differs from
    :class:`~repro.perf.IncrementalBStarEngine`'s.

    ``evaluator="scalar"`` builds the bit-identity oracle twin: same
    draws, every candidate scored through a full scalar
    ``CostModel.evaluate`` of the live table.

    :meth:`propose`, :meth:`commit` and :meth:`rollback` run through
    :meth:`propose_batch` (one candidate), :meth:`accept` and
    :meth:`reject_all`, the names the benchmark's per-layer probes time
    this engine by; while :attr:`collect_stats` is set, a proposal also
    publishes :attr:`last_repack_lens` for the probes' repack tally.
    """

    _MOVES = "WindowedBStarMoves"

    #: set by a probe that reads :attr:`last_repack_lens`
    collect_stats = False
    #: the most recent proposal's repacked-suffix length, as a
    #: one-element tuple (refreshed only under :attr:`collect_stats`)
    last_repack_lens: tuple[int, ...] = ()

    def __init__(
        self,
        modules: ModuleSet,
        nets: tuple[Net, ...] = (),
        proximity: tuple[ProximityGroup, ...] = (),
        config=None,
        *,
        allow_rotation: bool = True,
        stride: int | None = None,
        evaluator: str = "vector",
        kernel: BStarKernel | None = None,
    ) -> None:
        if evaluator not in ("vector", "scalar"):
            raise ValueError(f"unknown evaluator {evaluator!r}")
        super().__init__(
            modules, nets, proximity, config,
            allow_rotation=allow_rotation, stride=stride, kernel=kernel,
        )
        if evaluator == "scalar":
            self._eval = _FullRescan(self._kernel.model)

    # -- protocol ------------------------------------------------------------

    def propose(self, rng: random.Random) -> float:
        return self.propose_batch(rng, 1)[0]

    def commit(self) -> None:
        self.accept(0)

    def rollback(self) -> None:
        self.reject_all()

    # -- the same step, under the names the benchmark probes ------------------

    def propose_batch(self, rng: random.Random, k: int) -> list[float]:
        """Propose one windowed candidate (``k`` must be 1), left
        pending; its cost, in a one-element list."""
        if k != 1:
            raise ValueError(f"the vector engine proposes one candidate, got k={k}")
        cost = super().propose(rng)
        if self.collect_stats:
            self.last_repack_lens = (self.last_repack_len,)
        return [cost]

    def accept(self, j: int) -> None:
        """Keep the pending candidate (``j`` must be 0)."""
        if j:
            raise ValueError(f"no candidate {j}: the vector engine proposes one")
        super().commit()

    def reject_all(self) -> None:
        """Roll back the pending candidate."""
        super().rollback()

    # -- internals -----------------------------------------------------------

    def _draw(self, rng: random.Random):
        """One windowed move: a log-uniform suffix of the committed
        pre-order, operands drawn inside it."""
        order = self._order
        n = len(order)
        lo = 0
        wmin = _WINDOW_MIN
        if n > wmin:
            # log-uniform suffix length in [wmin, n] (biased short):
            # cheap local windows dominate, global moves still sampled
            s = int(round(wmin * (n / wmin) ** (rng.random() ** _WINDOW_BIAS)))
            if s > n:
                s = n
            elif s < wmin:
                s = wmin
            lo = n - s
        return self._moves.apply_windowed(
            self._tree, self._orients, self._variants, rng, order, lo
        )
