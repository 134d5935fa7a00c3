"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro workloads list
    python -m repro place miller_opamp --engine hbtree --seed 3
    python -m repro place gen:n=500,seed=7 --starts 8 --workers 4
    python -m repro place gen:n=500,seed=7 --starts 8 --listen 127.0.0.1:7000
    python -m repro worker --connect 127.0.0.1:7000
    python -m repro place file:bench.blocks --engine seqpair
    python -m repro workloads export gen:n=200,seed=1 --out bench/
    python -m repro route fig2 --pitch 0.5
    python -m repro table1 --circuit folded_cascode
    python -m repro sizing --flow aware

Circuits are *workload names* resolved through
:func:`repro.workloads.resolve_workload`: built-ins, generated
families (``gen:n=...,seed=...``) and on-disk Bookshelf benchmarks
(``file:path.blocks``) — see ``docs/workloads.md``.  The CLI is a thin
veneer over the library: every command prints the same reports the
examples and benchmarks produce.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import render_placement
from .circuit import Circuit, TABLE1_MODULE_COUNTS, table1_circuit
from .cost import TERM_NAMES, check_term_name, reference_model, weight_overrides
from .placers import ENGINE_NAMES, build_config, make_placer
from .route import Router
from .shapes import DeterministicConfig, DeterministicPlacer
from .workloads import (
    FILE_PREFIX,
    GEN_PREFIX,
    resolve_workload,
    workload_summaries,
    write_bookshelf,
)

#: single-run engines: the annealing registry plus the deterministic
#: shape-function placer (which enumerates instead of annealing)
_ENGINES = (*ENGINE_NAMES, "deterministic")


def _load_circuit(name: str) -> Circuit:
    # KeyError: unknown built-in (message names the nearest match);
    # ValueError: malformed gen: spec or unreadable file: benchmark
    try:
        return resolve_workload(name)
    except (KeyError, ValueError) as exc:
        raise SystemExit(exc.args[0]) from None


def _print_workloads() -> None:
    """Every registry entry with module/net counts + the open schemes."""
    for line in workload_summaries():
        print(line)
    print(f"{GEN_PREFIX}n=<modules>,seed=<seed>,...  generated families")
    print(f"{FILE_PREFIX}<path>.blocks                 on-disk Bookshelf benchmarks")


def _parse_cost_weights(text: str | None) -> dict[str, float]:
    """Parse ``term=value,...`` into a term -> weight dict.

    Validates term names against the unified catalog and values as
    floats; per-engine support is checked later (every engine declares
    its own term subset).
    """
    if not text:
        return {}
    weights: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        term, sep, value = item.partition("=")
        term = term.strip()
        if not sep:
            raise SystemExit(
                f"bad --cost-weights entry {item!r}: expected term=value "
                f"(terms: {', '.join(TERM_NAMES)})"
            )
        try:
            check_term_name(term)
        except ValueError as exc:
            raise SystemExit(exc.args[0]) from None
        try:
            weights[term] = float(value)
        except ValueError:
            raise SystemExit(
                f"bad weight for cost term {term!r}: {value.strip()!r} is not a number"
            ) from None
    return weights


def _config_overrides(engine: str, weights: dict[str, float]) -> dict[str, float]:
    """Cost-weight overrides as config kwargs, validated per engine."""
    if not weights:
        return {}
    if engine not in ENGINE_NAMES:
        # the deterministic placer does not anneal a weighted objective
        raise SystemExit(
            f"engine {engine!r} does not anneal a weighted cost; "
            f"--cost-weights applies to: {', '.join(ENGINE_NAMES)}"
        )
    try:
        return weight_overrides(weights, type(build_config(engine, 0)))
    except ValueError as exc:
        raise SystemExit(
            f"engine {engine!r}: {exc.args[0]}"
        ) from None


def _place(
    circuit: Circuit,
    engine: str,
    seed: int,
    weights: dict[str, float] | None = None,
    *,
    vector_tier: bool = False,
):
    overrides = _config_overrides(engine, weights or {})
    if engine == "deterministic":
        return DeterministicPlacer(
            circuit, DeterministicConfig(seed=seed)
        ).run().placement
    if engine not in ENGINE_NAMES:
        raise SystemExit(f"unknown engine {engine!r}; try one of: {', '.join(_ENGINES)}")
    if vector_tier:
        # engine validation happened in cmd_place: bstar only
        overrides["vector_tier"] = True
    return make_placer(circuit, engine, seed, tuple(overrides.items())).run().placement


# -- commands -----------------------------------------------------------------


def cmd_circuits(_args) -> int:
    _print_workloads()
    return 0


def cmd_workloads_list(_args) -> int:
    _print_workloads()
    return 0


def cmd_workloads_export(args) -> int:
    circuit = _load_circuit(args.workload)
    placement = None
    if args.place:
        placement = _place(circuit, args.engine, args.seed)
    paths = write_bookshelf(
        circuit, args.out, args.basename, placement=placement
    )
    print(circuit.summary())
    for ext in ("aux", "blocks", "nets", "pl"):
        print(f"  wrote {paths[ext]}")
    return 0


def _portfolio_place(args, weights: dict[str, float]):
    """Multi-start portfolio run behind ``place --starts/--workers``."""
    from .parallel import PortfolioRunner, RunDirError, format_address

    def show_progress(event) -> None:
        print(
            f"  walk {event.walk_id:>3} [{event.engine}/{event.seed}] "
            f"{event.step:>6}/{event.total_steps} steps  "
            f"best {event.best_cost:.4f}  {event.status}"
        )

    def show_listen(address) -> None:
        # the handle workers need: `repro worker --connect <this>`
        # (flushed so wrapper scripts see it before any chunk output)
        print(f"listening on {format_address(address)}", flush=True)

    on_event = show_progress if args.progress else None
    on_listen = show_listen if args.listen is not None else None
    try:
        if args.resume:
            # config comes from the run directory's manifest; only
            # execution knobs (workers, retries, timeouts) apply here.
            # --workers left at its default resumes under the recorded
            # topology; an explicit value must match it (or pass
            # --allow-topology-change to deliberately move the run)
            runner = PortfolioRunner.resume(
                args.run_dir,
                workers=args.workers,
                on_event=on_event,
                max_retries=args.max_retries,
                chunk_timeout=args.chunk_timeout,
                strict=args.strict,
                listen=args.listen,
                lease_timeout=args.lease_timeout,
                heartbeat_interval=args.heartbeat_interval,
                on_listen=on_listen,
                allow_topology_change=args.allow_topology_change,
                trace=args.trace,
            )
        else:
            engines = (
                tuple(args.engines.split(",")) if args.engines else (args.engine,)
            )
            # the deterministic placer is seed-insensitive, so it never
            # joins a portfolio
            unsupported = [e for e in engines if e not in ENGINE_NAMES]
            if unsupported:
                raise SystemExit(
                    f"engine(s) not usable in a portfolio: "
                    f"{', '.join(unsupported)}; try: {', '.join(ENGINE_NAMES)}"
                )
            # one overrides tuple feeds every walk, so every engine in
            # the portfolio must declare every overridden term; the
            # mappings are identical by construction (term ->
            # f"{term}_weight"), so any of the validated dicts serves as
            # the shared overrides
            per_engine = [_config_overrides(engine, weights) for engine in engines]
            overrides = dict(per_engine[0])
            if args.vector_tier:
                # engine validation happened in cmd_place: bstar only
                overrides["vector_tier"] = True
            runner = PortfolioRunner(
                args.circuit,
                engines,
                starts=args.starts,
                workers=args.workers or 0,
                base_seed=args.seed,
                budget=args.budget,
                restart_policy=args.restart_policy,
                overrides=tuple(overrides.items()),
                on_event=on_event,
                max_retries=args.max_retries,
                chunk_timeout=args.chunk_timeout,
                strict=args.strict,
                run_dir=args.run_dir,
                listen=args.listen,
                lease_timeout=args.lease_timeout,
                heartbeat_interval=args.heartbeat_interval,
                on_listen=on_listen,
                trace=args.trace,
            )
        result = runner.run()
    except (KeyError, ValueError, RunDirError, RuntimeError) as exc:
        # run() raises too: a budget below one step per epoch is only
        # detectable once per-walk schedules are compressed, and the
        # deliberate abort paths (every walk failed, --strict) signal
        # with RuntimeError carrying the failure detail
        raise SystemExit(str(exc.args[0] if exc.args else exc)) from None
    print(result.summary())
    return result.placement


def _print_cost_report(circuit: Circuit, placement) -> None:
    """Per-term breakdown of the final placement under the reference
    model (engine-independent, so every engine — and the portfolio
    winner — is reported on the same scale)."""
    from .perf import placement_to_coords

    model = reference_model(circuit)
    # flatten once; breakdown and the exact total share the table
    coords = placement_to_coords(placement)
    breakdown = model.breakdown(coords, placement=placement)
    total = model.evaluate(coords, placement=placement)
    print("cost report (reference model):")
    for term in model.terms:
        print(
            f"  {term.name:<12} weight {term.weight:>6.2f}  "
            f"contribution {breakdown[term.name]:.4f}"
        )
    print(f"  {'total':<12} {total:>29.4f}")


def cmd_place(args) -> int:
    if args.list_circuits:
        _print_workloads()
        return 0
    if args.circuit_opt is not None:
        if args.circuit is not None and args.circuit != args.circuit_opt:
            raise SystemExit(
                f"place: circuit given twice ({args.circuit!r} positionally, "
                f"{args.circuit_opt!r} via --circuit); pass it once"
            )
        args.circuit = args.circuit_opt
    if args.resume:
        if args.run_dir is None:
            raise SystemExit("place: --resume requires --run-dir")
        # the manifest is the source of truth on a resume: the circuit
        # comes from it, and a contradicting positional is an error
        from .parallel import RunDir, RunDirError

        try:
            manifest_circuit = RunDir(args.run_dir).load().circuit
        except RunDirError as exc:
            raise SystemExit(str(exc)) from None
        if args.circuit is not None and args.circuit != manifest_circuit:
            raise SystemExit(
                f"place: --resume run directory places {manifest_circuit!r} "
                f"but {args.circuit!r} was named; drop the circuit argument"
            )
        args.circuit = manifest_circuit
    if args.circuit is None:
        raise SystemExit(
            "place: no circuit named; pass a workload name (positionally or "
            "via --circuit), or run `place --list-circuits`"
        )
    circuit = _load_circuit(args.circuit)
    weights = _parse_cost_weights(args.cost_weights)
    if args.vector_tier:
        requested = (
            tuple(args.engines.split(",")) if args.engines else (args.engine,)
        )
        not_bstar = [e for e in requested if e != "bstar"]
        if not_bstar:
            raise SystemExit(
                "place: --vector-tier is engine 'bstar' only (got "
                f"{', '.join(not_bstar)}); pass --engine bstar"
            )
    print(circuit.summary())
    # any portfolio flag opts into the portfolio path — passing
    # --engines or --budget without --starts must not be silently
    # ignored (a 1-start portfolio is a valid, budgeted single walk)
    portfolio_requested = (
        args.starts > 1
        or (args.workers or 0) > 1
        or args.engines is not None
        or args.budget is not None
        or args.restart_policy != "independent"
        or args.progress
        or args.run_dir is not None
        or args.resume
        or args.strict
        or args.chunk_timeout is not None
        or args.max_retries != 2
        or args.listen is not None
        or args.lease_timeout is not None
        or args.heartbeat_interval is not None
        or args.allow_topology_change
        or args.trace is not None
    )
    if portfolio_requested:
        placement = _portfolio_place(args, weights)
    else:
        placement = _place(
            circuit, args.engine, args.seed, weights,
            vector_tier=args.vector_tier,
        )
    print(render_placement(placement, width=args.width, height=args.height))
    print(
        f"area usage {100 * placement.area_usage():.1f}%  "
        f"bbox {placement.width:.1f} x {placement.height:.1f}"
    )
    if args.cost_report:
        _print_cost_report(circuit, placement)
    violations = circuit.constraints().violations(placement)
    print(f"constraint violations: {violations or 'none'}")
    return 1 if violations else 0


def cmd_route(args) -> int:
    circuit = _load_circuit(args.circuit)
    placement = _place(circuit, args.engine, args.seed)
    router = Router(placement, circuit.nets, pitch=args.pitch)
    result = router.route_all(retries=args.retries)
    print(result.summary())
    for name, net in sorted(result.routed.items()):
        print(
            f"  {name:16s} wl {net.wirelength:8.1f} um  {net.vias:3d} vias  "
            f"C {net.capacitance:7.2f} fF"
        )
    if result.failed:
        print(f"  failed: {', '.join(result.failed)}")
    return 0 if not result.failed else 1


def cmd_table1(args) -> int:
    keys = [args.circuit] if args.circuit else list(TABLE1_MODULE_COUNTS)
    print(f"{'circuit':<16}{'mods':>6}{'ESF use':>10}{'ESF t':>8}{'RSF use':>10}{'RSF t':>8}{'improv':>8}")
    for key in keys:
        circuit = table1_circuit(key)
        esf = DeterministicPlacer(circuit, DeterministicConfig(enhanced=True)).run()
        rsf = DeterministicPlacer(circuit, DeterministicConfig(enhanced=False)).run()
        print(
            f"{key:<16}{circuit.n_modules:>6}"
            f"{100 * esf.area_usage:>9.2f}%{esf.runtime_s:>7.2f}s"
            f"{100 * rsf.area_usage:>9.2f}%{rsf.runtime_s:>7.2f}s"
            f"{100 * (rsf.area_usage - esf.area_usage):>7.2f}%"
        )
    return 0


def cmd_worker(args) -> int:
    """Join a ``place --listen`` run as one remote portfolio worker."""
    import os
    import socket as socket_mod

    from .parallel import parse_address, run_worker

    try:
        parse_address(args.connect)
    except ValueError as exc:
        raise SystemExit(f"worker: {exc.args[0]}") from None
    name = args.name or f"{socket_mod.gethostname()}:{os.getpid()}"

    def log(text: str) -> None:
        print(f"[{name}] {text}", flush=True)

    return run_worker(
        args.connect,
        name=name,
        max_reconnects=args.max_reconnects,
        reconnect_base=args.reconnect_base,
        log=None if args.quiet else log,
    )


def cmd_sweep(args) -> int:
    """Run the standard-suite quality sweep and gate it on the baseline.

    Thin client over :mod:`repro.analysis.sweep` (the same module
    ``benchmarks/sweep.py`` and the CI ``sweep-smoke`` step drive);
    ``--json`` emits the matrix + diff as one machine-readable document
    (CLI-as-API).  Exit codes: 0 clean, 2 usage/baseline problems, 3
    quality regression.
    """
    import json as json_mod
    from pathlib import Path

    from .analysis import sweep as sweep_mod

    narrowing = {}
    if args.workloads:
        # one name per flag occurrence: gen: names contain commas, so a
        # comma-separated list could never name them unambiguously
        narrowing["workloads"] = tuple(args.workloads)
    if args.engines:
        engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
        unknown = [e for e in engines if e not in ENGINE_NAMES]
        if unknown:
            raise SystemExit(
                f"sweep: unknown engine(s) {', '.join(unknown)}; "
                f"try: {', '.join(ENGINE_NAMES)}"
            )
        narrowing["engines"] = engines
    if args.budget is not None:
        narrowing["budget"] = args.budget
    if args.seed is not None:
        narrowing["seed"] = args.seed
    try:
        cells = sweep_mod.tier_cells(args.tier, **narrowing)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"sweep: {exc.args[0]}") from None
    matrix = sweep_mod.run_sweep(args.tier, cells=cells)

    diff = None
    note = None
    if args.no_diff:
        pass
    elif args.baseline is not None:
        try:
            diff = sweep_mod.diff_matrices(
                sweep_mod.load_matrix(args.baseline), matrix
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(f"sweep: {exc}") from None
    elif narrowing or args.tier != "quick":
        note = (
            "diff skipped: narrowed/non-quick runs have no committed "
            "baseline (pass --baseline to gate, --no-diff to silence)"
        )
    elif sweep_mod.DEFAULT_BASELINE_PATH.exists():
        diff = sweep_mod.diff_matrices(
            sweep_mod.load_matrix(sweep_mod.DEFAULT_BASELINE_PATH), matrix
        )
    else:
        note = f"diff skipped: no baseline at {sweep_mod.DEFAULT_BASELINE_PATH}"

    if args.out:
        sweep_mod.write_matrix(matrix, Path(args.out))
    if args.json:
        document = {
            "matrix": matrix,
            "diff": None
            if diff is None
            else {
                "ok": diff.ok,
                "regressions": diff.regressions,
                "improvements": diff.improvements,
                "added": diff.added,
                "unchanged": diff.unchanged,
            },
        }
        print(json_mod.dumps(document, indent=2, sort_keys=True))
    else:
        print(sweep_mod.format_matrix(matrix))
        if note:
            print(note)
        if diff is not None:
            print(diff.summary())
    return 3 if diff is not None and not diff.ok else 0


def cmd_trace_report(args) -> int:
    """Render a telemetry trace directory (``place --trace DIR``).

    Thin client over :mod:`repro.analysis.trace`, following the
    ``repro sweep`` precedent: ``--json`` emits the full report
    document (CLI-as-API).  Exit codes: 0 clean, 2 for unreadable or
    schema-invalid traces.
    """
    import json as json_mod

    from .analysis import trace as trace_mod

    try:
        trace = trace_mod.load_trace(args.directory)
    except ValueError as exc:
        raise SystemExit(f"trace: {exc.args[0] if exc.args else exc}") from None
    problems = trace_mod.validate_trace(trace)
    if problems:
        for problem in problems:
            print(f"trace: {problem}")
        return 2
    report = trace_mod.build_report(trace)
    if args.json:
        print(json_mod.dumps(report, indent=2, sort_keys=True))
    else:
        print(trace_mod.render_report(report))
    return 0


def cmd_sizing(args) -> int:
    from .sizing import electrical_sizing, layout_aware_sizing

    flow = (
        layout_aware_sizing(seed=args.seed)
        if args.flow == "aware"
        else electrical_sizing(seed=args.seed)
    )
    print(flow.report())
    return 0 if flow.meets_specs_post_layout() else 1


# -- parser ---------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Analog layout synthesis via topological approaches "
        "(reproduction of Graeb et al., DATE 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "circuits", help="list the benchmark circuits (alias of `workloads list`)"
    ).set_defaults(fn=cmd_circuits)

    p = sub.add_parser(
        "workloads", help="inspect and export workloads (see docs/workloads.md)"
    )
    wsub = p.add_subparsers(dest="workloads_command", required=True)
    wsub.add_parser(
        "list", help="every registry entry with module/net counts"
    ).set_defaults(fn=cmd_workloads_list)
    w = wsub.add_parser(
        "export", help="write a workload out as Bookshelf .aux/.blocks/.nets/.pl"
    )
    w.add_argument("workload", help="any workload name (built-in, gen:, file:)")
    w.add_argument("--out", default=".", help="output directory (default: .)")
    w.add_argument(
        "--basename",
        default=None,
        help="file basename (default: a slug of the workload name)",
    )
    w.add_argument(
        "--place",
        action="store_true",
        help="anneal first and write real locations into the .pl file",
    )
    w.add_argument("--engine", choices=_ENGINES, default="hbtree")
    w.add_argument("--seed", type=int, default=0)
    w.set_defaults(fn=cmd_workloads_export)

    p = sub.add_parser("place", help="place a circuit")
    p.add_argument(
        "circuit",
        nargs="?",
        default=None,
        help="workload name: built-in, gen:n=...,seed=... or file:path.blocks",
    )
    p.add_argument(
        "--circuit",
        dest="circuit_opt",
        default=None,
        metavar="NAME",
        help="alternative spelling of the positional circuit argument",
    )
    p.add_argument(
        "--list-circuits",
        action="store_true",
        help="print every registry entry with module/net counts and exit",
    )
    p.add_argument("--engine", choices=_ENGINES, default="hbtree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=70)
    p.add_argument("--height", type=int, default=20)
    p.add_argument(
        "--cost-weights",
        default=None,
        metavar="TERM=W,...",
        help="override objective weights, e.g. area=1,wirelength=2; "
        f"terms: {', '.join(TERM_NAMES)} (each engine supports the "
        "subset its config declares)",
    )
    p.add_argument(
        "--cost-report",
        action="store_true",
        help="print the per-term cost breakdown of the final placement "
        "under the engine-independent reference model",
    )
    p.add_argument(
        "--vector-tier",
        action="store_true",
        help="anneal on the vector tier (engine bstar only): windowed "
        "multi-scale moves on the flat in-place step, one candidate per "
        "step like every engine; a different move family, tuned for "
        "large module counts",
    )
    portfolio = p.add_argument_group(
        "portfolio",
        "multi-start options; passing any of them runs the portfolio "
        "(a plain single walk otherwise)",
    )
    portfolio.add_argument(
        "--starts",
        type=_positive_int,
        default=1,
        help="annealing walks to run (engines cycle over --engines, seeds "
        "count up from --seed)",
    )
    portfolio.add_argument(
        "--workers",
        type=_non_negative_int,
        default=None,
        help="worker processes; 0 or 1 runs in-process (same results); "
        "on --resume the default keeps the run's recorded topology",
    )
    portfolio.add_argument(
        "--engines",
        default=None,
        metavar="A,B,...",
        help="comma-separated engine portfolio (default: --engine); "
        "choose from the annealing engines (deterministic excluded)",
    )
    portfolio.add_argument(
        "--restart-policy",
        choices=("independent", "rebalance"),
        default="independent",
        help="rebalance kills the worst half at checkpoints and gives "
        "their unspent steps to fresh seeds",
    )
    portfolio.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        help="total annealing steps across all starts (default: every "
        "start runs its full schedule)",
    )
    portfolio.add_argument(
        "--progress",
        action="store_true",
        help="print a progress line per completed chunk",
    )
    portfolio.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="write the telemetry flight recorder (repro/trace-v1 JSONL "
        "streams) into DIR; read back with `repro trace report DIR` — "
        "pure observation, the result stays byte-identical",
    )
    resilience = p.add_argument_group(
        "resilience",
        "fault tolerance and run persistence (see docs/parallel.md); "
        "all of these imply the portfolio path",
    )
    resilience.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=2,
        help="extra attempts a failing chunk gets before its walk is "
        "quarantined and the run degrades to the survivors (default: 2)",
    )
    resilience.add_argument(
        "--chunk-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock limit per chunk; a worker exceeding it is killed "
        "and the attempt counts as failed (requires --workers > 1)",
    )
    resilience.add_argument(
        "--strict",
        action="store_true",
        help="fail fast: the first chunk error aborts the whole run "
        "(no retries, no quarantine)",
    )
    resilience.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="snapshot every walk checkpoint + coordinator state into DIR "
        "so an interrupted run can be resumed bit-identically",
    )
    resilience.add_argument(
        "--resume",
        action="store_true",
        help="continue the run persisted in --run-dir (config comes from "
        "its manifest; the circuit argument may be omitted)",
    )
    distributed = p.add_argument_group(
        "distributed",
        "serve the run to remote workers over a socket (see the "
        "Distributed execution section of docs/parallel.md); join with "
        "`repro worker --connect`; results stay byte-identical to a "
        "serial run.  Trusted networks only: frames are unauthenticated "
        "pickles",
    )
    distributed.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve chunks to remote workers on this address "
        "(HOST:PORT, port 0 picks an ephemeral port and prints it; "
        "unix:/path.sock for a Unix domain socket); mutually exclusive "
        "with --workers > 1",
    )
    distributed.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="revoke and re-dispatch a chunk whose worker misses "
        "heartbeats this long (default: 10)",
    )
    distributed.add_argument(
        "--heartbeat-interval",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="heartbeat cadence workers are told to use (default: a "
        "quarter of the lease timeout)",
    )
    distributed.add_argument(
        "--allow-topology-change",
        action="store_true",
        help="let --resume continue under a different transport or "
        "worker count than the run was recorded with (results are "
        "unaffected; the switch just has to be deliberate)",
    )
    p.set_defaults(fn=cmd_place)

    p = sub.add_parser(
        "worker",
        help="join a `place --listen` run as a remote portfolio worker",
    )
    p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address printed by `place --listen` "
        "(HOST:PORT or unix:/path.sock)",
    )
    p.add_argument(
        "--name",
        default=None,
        help="worker name in coordinator logs (default: host:pid)",
    )
    p.add_argument(
        "--max-reconnects",
        type=_non_negative_int,
        default=8,
        help="give up after this many consecutive failed connection "
        "attempts (default: 8)",
    )
    p.add_argument(
        "--reconnect-base",
        type=_positive_float,
        default=0.25,
        metavar="SECONDS",
        help="base of the exponential reconnect backoff (default: 0.25)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-event log lines"
    )
    p.set_defaults(fn=cmd_worker)

    p = sub.add_parser("route", help="place and route a circuit")
    p.add_argument("circuit")
    p.add_argument("--engine", choices=_ENGINES, default="hbtree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pitch", type=float, default=0.5)
    p.add_argument("--retries", type=int, default=10)
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("table1", help="regenerate the Table-I comparison")
    p.add_argument("--circuit", choices=sorted(TABLE1_MODULE_COUNTS), default=None)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser(
        "sweep",
        help="run the standard-suite quality sweep and diff the baseline "
        "(see docs/benchmarks.md)",
    )
    p.add_argument(
        "--tier",
        choices=("quick", "full"),
        default="quick",
        help="declared grid to run (quick: the bounded CI tier)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the matrix + diff as one JSON document (CLI-as-API)",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the full matrix (quality + timing) to FILE",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline matrix to gate against (default: the committed "
        "benchmarks/quality_matrix.json for unnarrowed quick runs)",
    )
    p.add_argument(
        "--no-diff",
        action="store_true",
        help="run and report only; skip the regression gate",
    )
    p.add_argument(
        "--workloads",
        action="append",
        default=None,
        metavar="NAME",
        help="narrow the grid to this workload (repeatable; any registry "
        "name — gen: names contain commas, hence one name per flag)",
    )
    p.add_argument(
        "--engines",
        default=None,
        metavar="A,B,...",
        help="narrow the grid to these annealing engines",
    )
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        help="override the per-cell serial step budget",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the sweep's base seed",
    )
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "trace",
        help="inspect telemetry traces written by `place --trace`",
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)
    t = tsub.add_parser(
        "report",
        help="render acceptance curves, time-in-phase, worker "
        "utilization and move-family win tables from a trace directory",
    )
    t.add_argument("directory", help="directory `place --trace` wrote")
    t.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as one JSON document (CLI-as-API)",
    )
    t.set_defaults(fn=cmd_trace_report)

    p = sub.add_parser("sizing", help="run a Fig.-10 sizing flow")
    p.add_argument("--flow", choices=("plain", "aware"), default="aware")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_sizing)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
