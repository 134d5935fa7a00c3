"""Walk specs -> placers, schedules and budgets.

Every annealing placer exposes the same walk API
(:class:`~repro.anneal.AnnealingPlacer`: ``schedule()`` / ``engine()``
/ ``annealer(engine, rng)`` / ``initial_state(rng)`` /
``finalize(state)``), so the portfolio runner drives any of them
through one code path.  Engine names resolve through the one registry
in :mod:`repro.placers`; this module adds what the runner needs on
top:

* :func:`build_placer` — rebuild a placer from a spawn-safe
  :class:`~repro.parallel.jobs.WalkSpec` (used identically by worker
  processes and the in-process executor);
* :func:`compress_overrides` — shrink a schedule to a step budget by
  scaling ``steps_per_epoch``, keeping the temperature *shape* (same
  ``t_initial -> t_final`` decay, fewer moves per epoch) so multi-start
  walks splitting one budget still anneal end to end;
* the walk arithmetic (:func:`walk_total_steps`,
  :func:`walk_chunk_count`, :func:`verify_walk_checkpoint`), read off
  the config's own :meth:`~repro.anneal.AnnealConfig.schedule`.
"""

from __future__ import annotations

from ..circuit import Circuit
from ..placers import build_config, make_placer
from ..workloads import resolve_workload
from .jobs import WalkSpec

def build_placer(circuit: Circuit, spec: WalkSpec):
    """Rebuild the placer a spec describes (worker-side and coordinator-side)."""
    return make_placer(circuit, spec.engine, spec.seed, spec.overrides)


def build_placer_by_name(spec: WalkSpec):
    """:func:`build_placer` resolving the circuit through the registry."""
    return build_placer(resolve_workload(spec.circuit), spec)


def schedule_epochs(engine: str, overrides: tuple[tuple[str, object], ...]) -> int:
    """Cooling epochs of the engine's schedule under ``overrides``.

    Read off the config's own schedule (not a re-implementation):
    checkpoints carry the schedule length, and
    :meth:`~repro.anneal.IncrementalAnnealer.advance` rejects a resume
    whose schedule disagrees — so this count must track the real
    schedule bit for bit, forever.
    """
    return build_config(engine, 0, overrides).schedule().epochs


def compress_overrides(
    engine: str, overrides: tuple[tuple[str, object], ...], budget: int
) -> tuple[tuple[str, object], ...]:
    """Overrides whose schedule spans at most ``budget`` steps.

    The epoch count is fixed by ``t_initial``/``t_final``/``alpha``, so
    the only free knob is ``steps_per_epoch``; the compressed schedule
    spans ``epochs * (budget // epochs) <= budget`` steps.  ``budget``
    must cover at least one step per epoch.
    """
    epochs = schedule_epochs(engine, overrides)
    steps_per_epoch = budget // epochs
    if steps_per_epoch < 1:
        raise ValueError(
            f"budget {budget} is below one step per epoch "
            f"({epochs} epochs for {engine!r})"
        )
    kept = tuple((k, v) for k, v in overrides if k != "steps_per_epoch")
    return kept + (("steps_per_epoch", steps_per_epoch),)


def walk_total_steps(spec: WalkSpec) -> int:
    """Schedule length of a spec's walk, without building the placer."""
    return build_config(spec.engine, spec.seed, spec.overrides).schedule().total_steps


def walk_chunk_count(spec: WalkSpec, chunk_steps: int) -> int:
    """Chunks a spec's walk executes at ``chunk_steps`` steps per chunk.

    Used to validate a :class:`~repro.parallel.faults.FaultPlan` up
    front: a fault aimed past a walk's last chunk would silently never
    fire, turning a fault-injection test into a fault-free one.
    """
    if chunk_steps < 1:
        raise ValueError(f"chunk_steps must be >= 1, got {chunk_steps}")
    total = walk_total_steps(spec)
    return max(1, -(-total // chunk_steps))


def verify_walk_checkpoint(spec: WalkSpec, checkpoint) -> None:
    """Reject a checkpoint that cannot resume the spec's walk.

    A persisted checkpoint is only resumable under the *same* schedule
    it was frozen under; a mismatch means the run directory belongs to
    a different config (or a different build of the schedule code), and
    resuming it would either crash mid-walk or, worse, walk a different
    trajectory.  Fail at load time with the full story instead.
    """
    expected = walk_total_steps(spec)
    if checkpoint.total_steps != expected:
        raise ValueError(
            f"walk {spec.walk_id}: checkpoint was frozen under a "
            f"{checkpoint.total_steps}-step schedule but the spec's schedule "
            f"spans {expected} steps — the run directory does not match this "
            "configuration"
        )
