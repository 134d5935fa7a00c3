"""The flight recorder's read side (repro.analysis.trace).

Round-trips real recorder output through the loader, pins the
validation problem-list contract, and locks the canonicalization rule
the byte-stability guarantee rests on: drop headers, drop ``wall``,
exclude wall-only events, sort by content.  The end-to-end identity
property (traced == untraced leaderboards) lives in
``tests/parallel/test_trace_identity.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.trace import (
    REPORT_SCHEMA,
    Trace,
    TraceStream,
    acceptance_curves,
    build_report,
    canonical_events,
    counter_totals,
    family_tables,
    load_trace,
    phase_breakdown,
    render_report,
    trace_bytes,
    validate_trace,
    worker_utilization,
)
from repro.parallel import PortfolioRunner
from repro.telemetry import TRACE_SCHEMA, TraceRecorder

CIRCUIT = "gen:n=12,seed=1"
FAST = (("alpha", 0.7), ("steps_per_epoch", 20), ("t_final", 1e-2))


def _traced_run(directory, **kwargs):
    return PortfolioRunner(
        CIRCUIT, ("bstar",), starts=2, overrides=FAST, trace=directory, **kwargs
    ).run()


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("trace")
    result = _traced_run(directory)
    return directory, result


class TestRoundTrip:
    def test_recorder_output_loads_and_validates(self, trace_dir):
        directory, _ = trace_dir
        trace = load_trace(directory)
        assert validate_trace(trace) == []
        # coordinator stream plus at least one worker stream
        names = [s.name for s in trace.streams]
        assert "coordinator" in names
        assert any(n.startswith("worker-") for n in names)

    def test_events_survive_with_fields_and_wall_intact(self, trace_dir):
        directory, result = trace_dir
        trace = load_trace(directory)
        final = trace.named("portfolio.result")
        assert len(final) == 1
        assert final[0]["fields"]["cost"] == result.cost
        assert final[0]["fields"]["walks"] == len(result.leaderboard)
        config = trace.named("portfolio.config")[0]
        assert config["fields"]["circuit"] == CIRCUIT
        for event in trace.events():
            assert {"t", "seq", "pid"} <= set(event["wall"])

    def test_loader_refuses_structural_damage(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_trace(tmp_path / "missing")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no trace streams"):
            load_trace(empty)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "s.jsonl").write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trace(bad)
        headerless = tmp_path / "headerless"
        headerless.mkdir()
        (headerless / "s.jsonl").write_text(
            json.dumps({"kind": "count", "name": "x", "fields": {}, "wall": {}})
            + "\n"
        )
        with pytest.raises(ValueError, match="header"):
            load_trace(headerless)

    def test_validate_flags_soft_shape_problems(self, tmp_path):
        with TraceRecorder(tmp_path, stream="s") as rec:
            rec.count("good")
        trace = load_trace(tmp_path)
        trace.streams[0].events.extend(
            [
                {"kind": "wat", "name": "x", "fields": {}, "wall": {}},
                {"kind": "count", "name": "x", "fields": {}, "wall": {"t": 0}},
                {"kind": "gauge", "name": "", "fields": "nope", "wall": {}},
            ]
        )
        problems = validate_trace(trace)
        assert any("unknown kind" in p for p in problems)
        assert any("no value" in p for p in problems)
        assert any("missing event name" in p for p in problems)
        assert any("wall is missing" in p for p in problems)


class TestCanonicalization:
    def test_canonical_view_drops_headers_wall_and_wall_only_events(
        self, tmp_path
    ):
        with TraceRecorder(tmp_path, stream="s") as rec:
            rec.count("kept", walk=1)
            rec.event("lifecycle", wall={"worker": "w0"})  # wall-only
        events = canonical_events(load_trace(tmp_path))
        assert events == [
            {"kind": "count", "name": "kept", "fields": {"walk": 1, "value": 1}}
        ]

    def test_same_seed_runs_have_identical_trace_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _traced_run(a)
        _traced_run(b)
        blob_a, blob_b = trace_bytes(load_trace(a)), trace_bytes(load_trace(b))
        assert blob_a == blob_b
        assert blob_a  # non-trivial: deterministic events survived

    def test_worker_count_does_not_change_canonical_bytes(self, tmp_path):
        """Scheduling-dependent probes (executor/queue/lifecycle) are
        wall-only by construction, so the canonical view is identical
        across worker counts — only ``portfolio.config`` records the
        pool size, and its ``workers`` field is part of the config the
        caller chose, so it is normalized out here."""

        def scrub(trace):
            return [
                e
                for e in canonical_events(trace)
                if e["name"] != "portfolio.config"
            ]

        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        _traced_run(serial)
        _traced_run(pooled, workers=2)
        assert scrub(load_trace(serial)) == scrub(load_trace(pooled))


class TestChunkSummaries:
    @pytest.mark.parametrize("engine", ["bstar", "hbtree"])
    def test_every_chunk_explains_itself(self, tmp_path, engine):
        """Each ``anneal.chunk`` of a B*-tree walk carries its term
        breakdown and a move-family table covering every step."""
        PortfolioRunner(
            "fig2", (engine,), starts=1, overrides=FAST, trace=tmp_path
        ).run()
        chunks = load_trace(tmp_path).named("anneal.chunk")
        assert chunks
        for event in chunks:
            fields = event["fields"]
            assert fields["engine"] == engine
            assert sum(fields["terms"].values()) == pytest.approx(fields["cost"])
            proposed = sum(count for count, _ in fields["families"].values())
            assert proposed == fields["step_end"] - fields["step_start"]
            assert fields["repack_hist"]
        if engine == "hbtree":
            kinds = {k for e in chunks for k in e["fields"]["families"]}
            assert kinds <= {"tree", "asf", "cc", "noop"} and "tree" in kinds


class TestReport:
    def test_report_shape_and_schema(self, trace_dir):
        directory, result = trace_dir
        trace = load_trace(directory)
        report = build_report(trace)
        assert report["schema"] == REPORT_SCHEMA
        assert report["result"]["cost"] == result.cost
        assert set(report["acceptance"]) == {
            str(o.spec.walk_id) for o in result.leaderboard
        }
        assert report["families"]  # per-engine move tables
        assert report["phases"]["portfolio.walks"]["count"] == 1
        json.dumps(report)  # must be pure JSON data

    def test_report_renders_for_humans(self, trace_dir):
        directory, _ = trace_dir
        text = render_report(build_report(load_trace(directory)))
        for needle in ("trace:", "time in phase", "move families", "walk"):
            assert needle in text

    def test_analysis_helpers_agree_with_the_raw_events(self, trace_dir):
        directory, result = trace_dir
        trace = load_trace(directory)
        curves = acceptance_curves(trace)
        assert set(curves) == {o.spec.walk_id for o in result.leaderboard}
        for points in curves.values():
            steps = [p["step"] for p in points]
            assert steps == sorted(steps)
        families = family_tables(trace)
        for table in families.values():
            for row in table.values():
                assert 0 <= row["accept_rate"] <= 1
                assert row["accepted"] <= row["proposed"]
        phases = phase_breakdown(trace)
        assert phases["portfolio.walks"]["ok"] is True
        totals = counter_totals(trace)
        assert all(isinstance(v, int) for v in totals.values())
        assert worker_utilization(trace) == {}  # serial run: no pool

    def test_worker_rows_ignore_the_old_close_time_summary(self, tmp_path):
        """Older traces also carry an ``executor.worker`` summary per
        pool worker; rows are rebuilt from the chunk events alone and
        match what that summary said."""
        with TraceRecorder(tmp_path, stream="coordinator") as rec:
            for exec_s in (0.1, 0.2):
                rec.event(
                    "executor.chunk",
                    wall={"worker": 0, "exec_s": exec_s, "queue_wait_s": 0.01},
                )
            rec.event(
                "executor.worker", wall={"worker": 0, "busy_s": 0.3, "chunks": 2}
            )
        assert worker_utilization(load_trace(tmp_path)) == {
            "0": {"busy_s": 0.3, "chunks": 2, "queue_wait_s": 0.02}
        }
