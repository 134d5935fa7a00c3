"""CI telemetry smoke: trace a bounded portfolio, read the trace back.

An end-to-end drill for the flight recorder
(docs/observability.md), meant to run on every push:

1. a bounded serial portfolio establishes the expected leaderboard;
2. the same portfolio reruns with ``--trace`` armed (2 workers, so the
   executor/queue probes fire too) — telemetry is pure observation, so
   the leaderboard must stay byte-identical to the untraced run;
3. every ``anneal.chunk`` of a ``bstar`` or ``hbtree`` walk carries a
   per-term cost breakdown and a non-empty move-family table — per
   engine, so one engine's telemetry cannot cover for another's;
4. every ``anneal.sample`` and ``anneal.chunk`` temperature is finite:
   a walk whose warmup sampled an unpackable state once ran at
   ``T = inf`` from start to finish (the portfolio's ``seqpair`` walks
   on this circuit), accepting every finite uphill move;
5. ``repro trace report --json`` renders the trace through the real
   CLI entrypoint, and the report is schema-asserted: acceptance
   curves, move-family tables for both B*-tree engines and per-walk
   steps present for every walk, the reported final cost equal to the
   run's.

Exit code 0 on success; an assertion failure (or a hang caught by the
CI step timeout) is a telemetry regression.  A real file — not a
``python -c`` one-liner — so the portfolio side has a stable
``__main__`` under the spawn start method.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

from repro.analysis.trace import REPORT_SCHEMA, load_trace, validate_trace
from repro.parallel import PortfolioRunner

FAST = (("alpha", 0.7), ("steps_per_epoch", 20), ("t_final", 1e-2))
CIRCUIT = "miller_opamp"
STARTS = 4
WORKERS = 2
#: engines whose walks must explain every chunk (terms + move families)
EXPLAINED = ("bstar", "hbtree")


def rows(result):
    return [
        (o.spec.walk_id, o.spec.engine, o.spec.seed, o.best_cost, o.ref_cost, o.status)
        for o in result.leaderboard
    ]


def render_report(trace_dir: Path) -> dict:
    """Run ``repro trace report --json`` as CI would: the real CLI."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "report", str(trace_dir), "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, (
        f"trace report exited {proc.returncode}:\n{proc.stderr}"
    )
    return json.loads(proc.stdout)


def main() -> int:
    base = PortfolioRunner(CIRCUIT, starts=STARTS, overrides=FAST).run()
    assert not base.failures, "untraced run must report no failures"

    trace_dir = Path(tempfile.mkdtemp(prefix="trace-smoke-"))
    try:
        traced = PortfolioRunner(
            CIRCUIT,
            starts=STARTS,
            overrides=FAST,
            workers=WORKERS,
            trace=trace_dir,
        ).run()
        assert not traced.failures, "traced run must report no failures"
        assert rows(traced) == rows(base), (
            "telemetry perturbed the run:\n"
            f"  expected {rows(base)}\n  got      {rows(traced)}"
        )

        trace = load_trace(str(trace_dir))
        problems = validate_trace(trace)
        assert not problems, f"trace failed validation: {problems}"
        chunks = {engine: 0 for engine in EXPLAINED}
        for event in trace.named("anneal.chunk"):
            fields = event["fields"]
            engine = fields.get("engine")
            if engine in chunks:
                chunks[engine] += 1
                assert "terms" in fields, f"{engine} chunk without terms: {fields}"
                assert fields.get("families"), (
                    f"{engine} chunk without move families: {fields}"
                )
        assert all(chunks.values()), f"no anneal.chunk events for: {chunks}"
        for name in ("anneal.sample", "anneal.chunk"):
            hot = [
                event["fields"] for event in trace.named(name)
                if not math.isfinite(event["fields"]["temperature"])
            ]
            assert not hot, f"{len(hot)} {name} events never cooled: {hot[0]}"

        report = render_report(trace_dir)
        assert report["schema"] == REPORT_SCHEMA, report["schema"]
        assert report["events"] > 0
        assert report["config"]["walks"] == STARTS
        assert report["result"]["cost"] == traced.cost
        walk_ids = {str(o.spec.walk_id) for o in traced.leaderboard}
        assert set(report["acceptance"]) == walk_ids, (
            f"acceptance curves missing walks: "
            f"{walk_ids - set(report['acceptance'])}"
        )
        missing = set(EXPLAINED) - set(report["families"])
        assert not missing, f"move-family tables missing engines: {missing}"
        assert report["phases"], "time-in-phase breakdown must not be empty"
        streams = len(report["streams"])
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    print(
        f"trace smoke: {report['events']} events across {streams} streams, "
        f"leaderboard byte-identical to untraced, report schema {REPORT_SCHEMA} ok"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
