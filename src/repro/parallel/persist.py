"""Run persistence: snapshot a portfolio run so it can resume.

A *run directory* holds everything needed to continue an interrupted
:class:`~repro.parallel.runner.PortfolioRunner` run bit-identically to
an uninterrupted one:

``manifest.json``
    The coordinator's state as one versioned JSON document — the run
    configuration (circuit, engines, seeds, budget, policy, overrides),
    one record per walk (engine, seed, per-walk overrides, schedule
    length, chunk size, status, checkpoint file), the restart policy's
    counters, and the failure report.  Rewritten atomically
    (write-to-temp + ``os.replace``) on every snapshot, so a kill at
    any instant leaves either the previous or the next consistent
    state — never a torn file.

``walk_<id>.ckpt``
    One pickled, versioned :func:`repro.anneal.checkpoint_payload`
    envelope per walk — the walk frozen at its last snapshot.  Also
    written atomically.  Because a walk's trajectory is a pure function
    of ``(spec, checkpoint)``, re-running from the snapshot reproduces
    the uninterrupted trajectory bit for bit.

Snapshot points are chosen by the runner so that restored state is
always *consistent*: the ``independent`` policy snapshots each walk
after every chunk (walks never interact, so per-walk freshness is
safe), while ``rebalance`` snapshots only at round barriers (the
kill/respawn decision reads every active walk, so mid-round snapshots
of some walks would replay into a different decision).

Nothing here imports the runner: the persistence layer speaks plain
records (:class:`WalkRecord` / :class:`RunState`) and the runner maps
them onto its live bookkeeping.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from ..anneal import WalkCheckpoint, checkpoint_from_payload, checkpoint_payload

#: manifest format version; bump on any incompatible layout change
MANIFEST_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: walk statuses a manifest may record (``active`` walks resume; the
#: rest are replayed into the leaderboard / failure report)
RECORD_STATUSES = ("active", "finished", "killed", "failed")


class RunDirError(RuntimeError):
    """A run directory is missing, unreadable, or incompatible."""


@dataclass
class WalkRecord:
    """One walk as the manifest records it."""

    walk_id: int
    engine: str
    seed: int
    overrides: tuple[tuple[str, object], ...]
    total_steps: int
    chunk: int
    status: str = "active"
    checkpoint_file: str | None = None
    #: accumulated in-chunk annealing seconds (so a resumed leaderboard
    #: reproduces the original per-walk steps/s) and chunk re-dispatches
    elapsed_s: float = 0.0
    retries: int = 0

    def to_json(self) -> dict:
        return {
            "walk_id": self.walk_id,
            "engine": self.engine,
            "seed": self.seed,
            "overrides": [[k, v] for k, v in self.overrides],
            "total_steps": self.total_steps,
            "chunk": self.chunk,
            "status": self.status,
            "checkpoint_file": self.checkpoint_file,
            "elapsed_s": self.elapsed_s,
            "retries": self.retries,
        }

    @classmethod
    def from_json(cls, data: dict) -> "WalkRecord":
        try:
            record = cls(
                walk_id=int(data["walk_id"]),
                engine=data["engine"],
                seed=int(data["seed"]),
                overrides=tuple((k, v) for k, v in data["overrides"]),
                total_steps=int(data["total_steps"]),
                chunk=int(data["chunk"]),
                status=data["status"],
                checkpoint_file=data.get("checkpoint_file"),
                elapsed_s=float(data.get("elapsed_s", 0.0)),
                retries=int(data.get("retries", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RunDirError(f"malformed walk record in manifest: {exc}") from None
        if record.status not in RECORD_STATUSES:
            raise RunDirError(
                f"walk {record.walk_id} has unknown status {record.status!r}"
            )
        return record


@dataclass
class FailureRecord:
    """One quarantined walk as the manifest records it."""

    walk_id: int
    reason: str
    detail: str
    attempts: int
    steps: int

    def to_json(self) -> dict:
        return {
            "walk_id": self.walk_id,
            "reason": self.reason,
            "detail": self.detail,
            "attempts": self.attempts,
            "steps": self.steps,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FailureRecord":
        try:
            return cls(
                walk_id=int(data["walk_id"]),
                reason=data["reason"],
                detail=data["detail"],
                attempts=int(data["attempts"]),
                steps=int(data["steps"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RunDirError(f"malformed failure record in manifest: {exc}") from None


@dataclass
class RunState:
    """Everything the manifest knows about one run."""

    circuit: str
    engines: tuple[str, ...]
    starts: int
    workers: int
    seeds: list[int]
    budget: int | None
    restart_policy: str
    checkpoint_every: int | None
    overrides: tuple[tuple[str, object], ...]
    #: executor topology the run was recorded under: ``"local"``
    #: (in-process, or a pool of local workers) or ``"remote"``
    #: (workers joining a ``listen`` address).  ``resume()`` validates against it so a run cannot
    #: silently continue under a different topology.
    transport: str = "local"
    walks: dict[int, WalkRecord] = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    #: rebalance counters (``next_walk_id`` / ``next_seed`` /
    #: ``engine_cursor``); ``None`` under ``independent``
    policy_state: dict | None = None
    completed: bool = False


class RunDir:
    """Atomic reader/writer for one run directory."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    @property
    def manifest_path(self) -> Path:
        return self.path / MANIFEST_NAME

    # -- writing --------------------------------------------------------------

    def initialize(self, state: RunState) -> None:
        """Create the directory and write the first manifest.

        Refuses a directory that already holds a manifest: silently
        clobbering a previous run's snapshots would destroy exactly the
        state persistence exists to protect.  Resume instead, or point
        ``run_dir`` somewhere fresh.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            raise RunDirError(
                f"{self.path} already holds a portfolio run "
                f"({MANIFEST_NAME} exists); resume it with "
                "PortfolioRunner.resume(), or choose an empty run_dir"
            )
        self.save_manifest(state)

    def save_manifest(self, state: RunState) -> None:
        document = {
            "version": MANIFEST_VERSION,
            "config": {
                "circuit": state.circuit,
                "engines": list(state.engines),
                "starts": state.starts,
                "workers": state.workers,
                "transport": state.transport,
                "seeds": list(state.seeds),
                "budget": state.budget,
                "restart_policy": state.restart_policy,
                "checkpoint_every": state.checkpoint_every,
                "overrides": [[k, v] for k, v in state.overrides],
            },
            "policy_state": state.policy_state,
            "walks": [
                state.walks[walk_id].to_json() for walk_id in sorted(state.walks)
            ],
            "failures": [f.to_json() for f in state.failures],
            "completed": state.completed,
        }
        try:
            payload = json.dumps(document, indent=1).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise RunDirError(
                f"run state is not serializable to a manifest: {exc}"
            ) from None
        self._atomic_write(self.manifest_path, payload)

    def save_walk_checkpoint(self, walk_id: int, checkpoint: WalkCheckpoint) -> str:
        """Freeze one walk; returns the file name for its manifest record."""
        name = f"walk_{walk_id}.ckpt"
        blob = pickle.dumps(checkpoint_payload(checkpoint))
        self._atomic_write(self.path / name, blob)
        return name

    def _atomic_write(self, target: Path, data: bytes) -> None:
        tmp = target.with_name(target.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    # -- reading --------------------------------------------------------------

    def load(self) -> RunState:
        """Read the manifest back into a :class:`RunState`."""
        try:
            raw = self.manifest_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise RunDirError(
                f"{self.path} holds no portfolio run (missing {MANIFEST_NAME})"
            ) from None
        except OSError as exc:
            raise RunDirError(f"cannot read {self.manifest_path}: {exc}") from None
        try:
            document = json.loads(raw)
        except ValueError as exc:
            raise RunDirError(f"corrupt manifest {self.manifest_path}: {exc}") from None
        version = document.get("version")
        if version != MANIFEST_VERSION:
            raise RunDirError(
                f"manifest version {version!r} is not supported "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        try:
            config = document["config"]
            walks = [WalkRecord.from_json(w) for w in document["walks"]]
            state = RunState(
                circuit=config["circuit"],
                engines=tuple(config["engines"]),
                starts=int(config["starts"]),
                workers=int(config["workers"]),
                # absent in manifests written before the remote tier
                # existed; those were by definition local runs
                transport=config.get("transport", "local"),
                seeds=[int(s) for s in config["seeds"]],
                budget=config["budget"],
                restart_policy=config["restart_policy"],
                checkpoint_every=config["checkpoint_every"],
                overrides=tuple((k, v) for k, v in config["overrides"]),
                walks={w.walk_id: w for w in walks},
                failures=[
                    FailureRecord.from_json(f) for f in document.get("failures", ())
                ],
                policy_state=document.get("policy_state"),
                completed=bool(document.get("completed", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RunDirError(
                f"malformed manifest {self.manifest_path}: {exc}"
            ) from None
        if state.transport not in ("local", "remote"):
            raise RunDirError(
                f"manifest records unknown transport {state.transport!r} "
                "(expected 'local' or 'remote')"
            )
        return state

    def load_walk_checkpoint(self, record: WalkRecord) -> WalkCheckpoint | None:
        """The walk's frozen checkpoint, or ``None`` if never snapshot."""
        if record.checkpoint_file is None:
            return None
        path = self.path / record.checkpoint_file
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise RunDirError(
                f"cannot read checkpoint for walk {record.walk_id}: {exc}"
            ) from None
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise RunDirError(
                f"corrupt checkpoint {path.name}: {exc}"
            ) from None
        try:
            return checkpoint_from_payload(payload)
        except ValueError as exc:
            raise RunDirError(f"{path.name}: {exc}") from None
