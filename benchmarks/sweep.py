"""Standard-suite quality sweep — run the grid, diff the baseline.

Thin standalone client over :mod:`repro.analysis.sweep` (the CLI's
``repro sweep`` subcommand wraps the same module).  A run:

1. executes the declared tier grid — {committed Bookshelf fixtures +
   ``gen:`` families} x {every annealing engine, serial + portfolio} —
   under fixed seeds and step budgets;
2. writes the full matrix (quality + timing) to
   ``benchmarks/out/quality_matrix_<tier>.json`` (skipped with
   ``--no-write``);
3. diffs the quality fields against the committed baseline
   ``benchmarks/quality_matrix.json`` and **exits 3 on regression**
   (worse ref-cost beyond tolerance, new violations, a formerly
   converging cell failing, or a baseline cell left uncovered);
4. appends a ``mode: "sweep"`` summary entry to the
   ``BENCH_perf_kernel.json`` trajectory (skipped with ``--no-write``
   or when the diff failed — a regressed run never becomes history).

``--no-write`` is read-only: it prints the matrix and gates it, and
writes no tracked file — neither the out matrix nor the trajectory
(CI runs the sweep this way).  Only ``--write-baseline`` still
rewrites the baseline it is asked to.

Re-baselining is deliberate: run with ``--write-baseline`` and commit
the refreshed ``benchmarks/quality_matrix.json`` with an audit note
explaining the quality change (see docs/benchmarks.md).

Usage::

    PYTHONPATH=src python benchmarks/sweep.py --quick            # CI tier
    PYTHONPATH=src python benchmarks/sweep.py                    # full tier
    PYTHONPATH=src python benchmarks/sweep.py --quick --no-write # read-only: no file written
    PYTHONPATH=src python benchmarks/sweep.py --quick --write-baseline
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis.sweep import (
    diff_matrices,
    format_matrix,
    load_matrix,
    matrix_summary,
    run_sweep,
    validate_matrix,
    write_matrix,
)

BENCH_DIR = Path(__file__).resolve().parent
#: the committed quick-tier baseline (the CI gate)
BASELINE_PATH = BENCH_DIR / "quality_matrix.json"
OUT_DIR = BENCH_DIR / "out"


def default_baseline(tier: str) -> Path:
    """The baseline a tier gates against.  Budgets (and therefore cell
    config hashes) differ per tier, so tiers never share a baseline:
    quick uses the committed ``quality_matrix.json``; other tiers use a
    sibling ``quality_matrix_<tier>.json``."""
    return BASELINE_PATH if tier == "quick" else (
        BENCH_DIR / f"quality_matrix_{tier}.json"
    )

#: exit code of a failed quality gate (run_all.py's regression contract)
REGRESSION_EXIT = 3


def _append_trajectory(matrix: dict) -> None:
    """One ``mode: "sweep"`` summary entry in the tracked trajectory."""
    sys.path.insert(0, str(BENCH_DIR))
    from bench_perf_kernel import JSON_PATH, record_trajectory_entry

    record_trajectory_entry("sweep", matrix_summary(matrix), write=True)
    print(f"trajectory entry appended: {JSON_PATH}")


def run_and_gate(
    *,
    tier: str = "quick",
    baseline_path: Path | None = None,
    write: bool = True,
    write_baseline: bool = False,
) -> int:
    """Run a tier, diff it, optionally record it; returns the exit code."""
    if baseline_path is None:
        baseline_path = default_baseline(tier)
    matrix = run_sweep(tier)
    problems = validate_matrix(matrix)
    assert not problems, f"emitted matrix is schema-invalid: {problems}"
    print(format_matrix(matrix))
    if write:
        out_path = write_matrix(matrix, OUT_DIR / f"quality_matrix_{tier}.json")
        print(f"matrix written: {out_path}")

    if write_baseline:
        write_matrix(matrix, baseline_path, canonical=True)
        print(f"baseline rewritten: {baseline_path} — commit it with an "
              "audit note describing the intentional quality change")
        if write:
            _append_trajectory(matrix)
        return 0

    if not baseline_path.exists():
        print(f"no committed baseline at {baseline_path}; run with "
              "--write-baseline to create it", file=sys.stderr)
        return 2
    baseline = load_matrix(baseline_path)
    if baseline.get("tier") != tier:
        print(
            f"baseline {baseline_path} records tier "
            f"{baseline.get('tier')!r}, not {tier!r}; tiers use different "
            "budgets and never share a baseline", file=sys.stderr,
        )
        return 2
    diff = diff_matrices(baseline, matrix)
    print(diff.summary())
    if not diff.ok:
        # mirror the perf guard: a regressed run never enters history
        return REGRESSION_EXIT
    if write:
        _append_trajectory(matrix)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="the bounded CI tier (fixtures + 100-module gen families); "
        "default is the full tier (adds 500/1000-module sizes)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="read-only: write no tracked file (neither "
        "benchmarks/out/quality_matrix_<tier>.json nor a mode:'sweep' "
        "entry in BENCH_perf_kernel.json)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite benchmarks/quality_matrix.json from this run "
        "(deliberate re-baseline; skip the gate)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline matrix to diff against (default: the committed "
        "baseline of the selected tier)",
    )
    args = parser.parse_args(argv)
    return run_and_gate(
        tier="quick" if args.quick else "full",
        baseline_path=args.baseline,
        write=not args.no_write,
        write_baseline=args.write_baseline,
    )


if __name__ == "__main__":
    raise SystemExit(main())
