"""Parallel multi-start placement portfolio (see ``docs/parallel.md``).

Fan one placement job out across engines, seeds and worker processes;
get back the best placement plus a deterministic leaderboard::

    from repro.parallel import PortfolioRunner

    result = PortfolioRunner("miller_opamp", starts=8, workers=4).run()
    print(result.summary())
    best = result.placement

Execution is fault tolerant: failing chunks are retried and then
quarantined, dead workers are respawned, and an optional ``run_dir``
makes the whole run resumable (``PortfolioRunner.resume``) — see the
"Fault tolerance" section of ``docs/parallel.md``.
"""

from ..placers import ENGINE_NAMES, build_config, validate_engines
from .engines import (
    build_placer,
    build_placer_by_name,
    compress_overrides,
    verify_walk_checkpoint,
    walk_chunk_count,
    walk_total_steps,
)
from .faults import (
    DIE_EXIT_CODE,
    FAULT_KINDS,
    NETWORK_FAULT_KINDS,
    Fault,
    FaultInjected,
    FaultPlan,
)
from .jobs import (
    FAILED,
    FINISHED,
    KILLED,
    ChunkFailure,
    ChunkResult,
    ChunkTask,
    PortfolioResult,
    ProgressEvent,
    WalkFailure,
    WalkOutcome,
    WalkSpec,
)
from .net import PROTOCOL_VERSION, format_address, parse_address
from .persist import MANIFEST_VERSION, RunDir, RunDirError, RunState
from .remote import RemoteExecutor, WorkerClient, run_worker
from .runner import RESTART_POLICIES, PortfolioRunner

__all__ = [
    "DIE_EXIT_CODE",
    "ENGINE_NAMES",
    "FAILED",
    "FAULT_KINDS",
    "FINISHED",
    "KILLED",
    "MANIFEST_VERSION",
    "NETWORK_FAULT_KINDS",
    "PROTOCOL_VERSION",
    "RESTART_POLICIES",
    "ChunkFailure",
    "ChunkResult",
    "ChunkTask",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "PortfolioResult",
    "PortfolioRunner",
    "ProgressEvent",
    "RemoteExecutor",
    "RunDir",
    "RunDirError",
    "RunState",
    "WalkFailure",
    "WalkOutcome",
    "WalkSpec",
    "WorkerClient",
    "build_config",
    "build_placer",
    "build_placer_by_name",
    "compress_overrides",
    "format_address",
    "parse_address",
    "run_worker",
    "validate_engines",
    "verify_walk_checkpoint",
    "walk_chunk_count",
    "walk_total_steps",
]
