"""Spawn-safe job specs and result records for the portfolio runner.

Nothing in this module holds a live placer, engine or circuit: a
:class:`WalkSpec` names its workload (resolved through
:func:`repro.workloads.resolve_workload` — a built-in name, a
``gen:...`` family or a ``file:...`` benchmark), its engine (resolved
through :data:`repro.placers.ENGINE_NAMES`) and carries plain
config overrides, so a worker process rebuilds everything it needs from
a few hundred bytes.  The only state that crosses a process boundary
mid-walk is the :class:`~repro.anneal.WalkCheckpoint` inside a
:class:`ChunkTask` / :class:`ChunkResult` pair — plain data, cheap to
pickle, and sufficient to resume the walk bit-identically anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..anneal import AnnealingStats, WalkCheckpoint
from ..geometry import Placement
from ..telemetry import TraceConfig


#: per-walk status values in a leaderboard
FINISHED = "finished"
KILLED = "killed"
#: a walk quarantined by the fault-tolerant executor (deterministic
#: chunk failure or chunk timeout after all retries); failed walks are
#: reported in :attr:`PortfolioResult.failures`, never the leaderboard
FAILED = "failed"


@dataclass(frozen=True)
class WalkSpec:
    """Everything a worker needs to (re)build one annealing walk.

    ``overrides`` are keyword arguments applied to the engine's config
    dataclass (``t_initial``, ``alpha``, ``steps_per_epoch``, weight
    knobs, ...) as ``(key, value)`` pairs — a tuple so specs stay
    hashable and usable as cache keys.
    """

    walk_id: int
    circuit: str
    engine: str
    seed: int
    overrides: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class ChunkTask:
    """Run one chunk of a walk: begin it (``checkpoint is None``) or
    resume from the checkpoint, advancing at most ``max_steps`` steps.

    ``fault`` is test/CI plumbing: the coordinator arms it from a
    :class:`~repro.parallel.faults.FaultPlan` at dispatch time, and the
    worker triggers the named fault instead of executing the chunk
    (see :mod:`repro.parallel.faults`).  ``None`` on every real run.

    ``trace`` carries the portfolio's telemetry settings (a plain-data
    :class:`~repro.telemetry.TraceConfig`) to whichever process runs
    the chunk; the worker opens its own per-pid stream file under the
    trace directory.  ``None`` — the default — means telemetry off.
    """

    spec: WalkSpec
    checkpoint: WalkCheckpoint | None
    max_steps: int | None
    fault: str | None = None
    trace: "TraceConfig | None" = None


@dataclass(frozen=True)
class ChunkResult:
    """The walk frozen again after one chunk.

    ``elapsed_s`` is the worker-measured wall-clock of the annealing
    call itself (no queue wait, no pickling) — the coordinator uses it
    for per-walk steps/s and worker-utilization telemetry.  Volatile:
    never part of any determinism contract.
    """

    walk_id: int
    checkpoint: WalkCheckpoint
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class ChunkFailure:
    """A chunk that exhausted its retries (or timed out): the executor's
    terminal verdict on one walk, surfaced to the coordinator in place
    of a :class:`ChunkResult`.

    ``reason`` is one of ``"error"`` (the chunk raised on every
    attempt), ``"timeout"`` (exceeded the chunk wall-clock limit) or
    ``"worker-death"`` (the owning worker died holding the chunk);
    ``detail`` carries the last traceback or a description.
    """

    walk_id: int
    reason: str
    detail: str
    attempts: int


@dataclass(frozen=True)
class ProgressEvent:
    """Streamed to the coordinator after every completed chunk."""

    walk_id: int
    engine: str
    seed: int
    step: int
    total_steps: int
    best_cost: float
    status: str = "running"


@dataclass
class WalkOutcome:
    """One leaderboard row: a finished (or killed) walk's best result.

    ``best_cost`` is the walk's *own* annealing objective (comparable
    only within one engine); ``ref_cost`` is the shared reference cost
    every placement is ranked by (see
    :func:`repro.cost.reference_model`).
    """

    spec: WalkSpec
    best_cost: float
    ref_cost: float
    placement: Placement
    steps: int
    total_steps: int
    status: str = FINISHED
    stats: AnnealingStats | None = None
    #: engine-family state behind ``placement`` (feeds the polish walk)
    best_state: object = None
    #: per-term contributions of ``ref_cost`` under the reference model
    #: (see :func:`repro.cost.reference_model`); the runner fills it for
    #: the winning row only — rankings need totals, not breakdowns
    ref_breakdown: dict[str, float] | None = None
    #: summed worker-measured chunk wall-clock (volatile; feeds the
    #: per-walk steps/s column in :meth:`PortfolioResult.summary`)
    elapsed_s: float = 0.0
    #: chunk retries this walk consumed (re-dispatches after a failed
    #: or timed-out attempt)
    retries: int = 0


@dataclass
class WalkFailure:
    """One quarantined walk in a :class:`PortfolioResult`'s failure report.

    A failed walk contributes no leaderboard row (its best state may
    never have crossed a chunk boundary), but its identity, failure
    mode and spent steps are preserved so a degraded run is auditable
    — and so budget accounting stays exact.
    """

    spec: WalkSpec
    #: ``"error"`` / ``"timeout"`` / ``"worker-death"``
    reason: str
    #: last traceback or a human-readable description
    detail: str
    #: execution attempts the final chunk consumed
    attempts: int
    #: steps the walk completed before the failing chunk
    steps: int

    def summary_line(self) -> str:
        """One line for result banners and logs."""
        return (
            f"walk {self.spec.walk_id} [{self.spec.engine}/{self.spec.seed}] "
            f"FAILED ({self.reason}) after {self.attempts} attempt"
            f"{'s' if self.attempts != 1 else ''} at step {self.steps}"
        )


@dataclass
class PortfolioResult:
    """Best placement across the whole portfolio plus the leaderboard.

    ``leaderboard`` is sorted best-first with ``(ref_cost, walk_id)``
    as the total order, so the winner — and every rank — is a pure
    function of the walk results, independent of worker scheduling.
    ``failures`` lists walks quarantined by the fault-tolerant
    executor; the leaderboard comes from the survivors.
    """

    placement: Placement
    cost: float
    winner: WalkOutcome
    leaderboard: list[WalkOutcome] = field(default_factory=list)
    total_steps: int = 0
    elapsed_s: float = 0.0
    workers: int = 0
    failures: list[WalkFailure] = field(default_factory=list)
    #: chunk re-dispatches after failed or timed-out attempts
    retries: int = 0
    #: worker processes respawned after a crash
    respawns: int = 0

    def best_by_engine(self) -> dict[str, WalkOutcome]:
        """Best row per engine (by the engine's own objective)."""
        best: dict[str, WalkOutcome] = {}
        for row in self.leaderboard:
            seen = best.get(row.spec.engine)
            if seen is None or (row.best_cost, row.spec.walk_id) < (
                seen.best_cost,
                seen.spec.walk_id,
            ):
                best[row.spec.engine] = row
        return best

    def summary(self) -> str:
        """Human-readable leaderboard table (plus the failure report)."""
        failed = f", {len(self.failures)} failed" if self.failures else ""
        health = ""
        if self.retries or self.respawns:
            health = (
                f", {self.retries} chunk retr{'ies' if self.retries != 1 else 'y'}"
                f", {self.respawns} respawn{'s' if self.respawns != 1 else ''}"
            )
        lines = [
            f"portfolio: {len(self.leaderboard)} walks{failed}, "
            f"{self.total_steps:,} steps in {self.elapsed_s:.2f}s "
            f"({self.total_steps / max(self.elapsed_s, 1e-9):,.0f} aggregate steps/s, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''}{health})",
            f"{'rank':>4} {'engine':<10} {'seed':>5} {'steps':>7} "
            f"{'steps/s':>9} {'ref cost':>10} {'own cost':>10} {'status':<9}",
        ]
        for rank, row in enumerate(self.leaderboard, 1):
            rate = f"{row.steps / row.elapsed_s:>9,.0f}" if row.elapsed_s else f"{'-':>9}"
            retries = f" +{row.retries}r" if row.retries else ""
            lines.append(
                f"{rank:>4} {row.spec.engine:<10} {row.spec.seed:>5} "
                f"{row.steps:>7,} {rate} {row.ref_cost:>10.4f} {row.best_cost:>10.4f} "
                f"{row.status:<9}{retries}"
            )
        if self.winner.ref_breakdown:
            terms = "  ".join(
                f"{name} {value:.4f}"
                for name, value in self.winner.ref_breakdown.items()
            )
            lines.append(f"winner cost terms: {terms}")
        for failure in self.failures:
            lines.append(failure.summary_line())
        return "\n".join(lines)
