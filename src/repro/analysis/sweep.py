"""Standard-suite sweep harness: tracked quality matrices + regression gate.

``BENCH_perf_kernel.json`` tracks *speed* from PR to PR; this module
tracks *quality*.  A sweep runs a declared grid of

    {committed Bookshelf fixtures + ``gen:`` families} x
    {every annealing engine, serial and as a portfolio}

under fixed seeds and step budgets, and emits one machine-readable
**quality matrix**: per cell, the engine-agnostic reference cost, its
per-term breakdown (:func:`repro.cost.reference_model`), the raw HPWL,
the constraint-violation count, the step budget actually spent, and the
runtime.  Quality fields are a pure function of the declaration (fixed
seeds, in-process execution), so two runs of the same tier produce
**byte-identical** canonical matrices — the same determinism discipline
:func:`repro.workloads.canonical_json` enforces for circuits.

The committed baseline (``benchmarks/quality_matrix.json``) plus
:func:`diff_matrices` turn the matrix into a regression gate:

* a cell whose ``ref_cost`` worsens beyond its tolerance **fails**;
* a cell with more ``violations`` than the baseline **fails**;
* a formerly-``ok`` cell that errors out **fails**;
* a baseline cell missing from the fresh run **fails** (coverage loss);
* improvements and newly added cells are reported but pass — they are
  the cue to re-baseline deliberately (see ``docs/benchmarks.md``).

**Tolerance model.**  Every cell carries ``rtol`` (relative tolerance
on ``ref_cost``, from the sweep declaration).  The gate is
*inclusive-pass*: a fresh cost fails only when it is **strictly
greater** than ``base * (1 + rtol)`` — a cost exactly on the bound
passes.  Violations have no tolerance: any new violation fails.

Three consumers share this module: ``benchmarks/sweep.py`` (standalone
runner + trajectory append), the ``repro sweep`` CLI subcommand
(``--json`` for agents), and the CI ``sweep-smoke`` step (quick tier
diffed against the committed baseline).
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ..cost import reference_model
from ..geometry import total_hpwl
from ..workloads import FILE_PREFIX, resolve_workload

#: schema tag every matrix carries; the validator pins it
SCHEMA = "repro/quality-matrix-v1"

#: default relative tolerance on a cell's reference cost
DEFAULT_RTOL = 0.02

#: base seed every cell's seed sweep counts up from
DEFAULT_SEED = 17

#: the synthetic cell that stands for "all engines together"
PORTFOLIO = "portfolio"

#: the array-tier cell label: the flat ``bstar`` engine annealed on
#: :class:`~repro.perf.VectorBStarEngine` (``vector_tier`` override) —
#: a different move family, so it gets its own tracked quality cell
VECTOR_ENGINE = "bstar-vector"

#: the override tuple that turns a ``bstar`` walk into a vector-tier walk
VECTOR_OVERRIDES = (("vector_tier", True),)

#: top-level / per-cell fields excluded from the canonical bytes (they
#: vary run to run without the quality changing)
VOLATILE_TOP_FIELDS = ("python", "recorded_at", "elapsed_s")
VOLATILE_CELL_FIELDS = ("runtime_s", "steps_per_sec")

#: repo root, for resolving the committed ``file:`` fixtures no matter
#: the caller's working directory (src/repro/analysis/ -> repo)
REPO_ROOT = Path(__file__).resolve().parents[3]

#: the committed quick-tier baseline every consumer gates against
DEFAULT_BASELINE_PATH = REPO_ROOT / "benchmarks" / "quality_matrix.json"

#: the two committed standard-suite fixtures (MCNC ami33-class and
#: GSRC n100-class subsets), as registry ``file:`` names relative to
#: the repo root — the form recorded in the matrix
FIXTURE_WORKLOADS = (
    f"{FILE_PREFIX}benchmarks/fixtures/ami33s.aux",
    f"{FILE_PREFIX}benchmarks/fixtures/n100s.aux",
)

#: the two generated families the grid sweeps (a constrained analog-ish
#: mix and a plain unconstrained one), instantiated per size
GEN_FAMILIES = (
    "gen:n={n},seed=11,sym=0.2,prox=0.1,soft=0.1",
    "gen:n={n},seed=5",
)

#: module counts per tier (full adds the scaling sizes)
QUICK_SIZES = (100,)
FULL_SIZES = (100, 500, 1000)

#: per-walk step budget of a serial cell, per tier
QUICK_BUDGET = 640
FULL_BUDGET = 2560

#: total step budget of a portfolio cell (split across its starts)
QUICK_PORTFOLIO_BUDGET = 2560
FULL_PORTFOLIO_BUDGET = 10240

TIERS = ("quick", "full")

#: capability caps: largest module count an engine joins a sweep cell
#: at.  The sequence-pair and slicing placers pay O(n^2)-ish packing
#: per step, so budgeted walks at 500+ modules would dominate the whole
#: sweep's wall clock for no extra signal; the declaration drops them
#: from oversized cells *visibly* (the cell's config lists the engines
#: that actually ran) instead of letting the tier silently time out.
ENGINE_SIZE_CAPS: dict[str, int] = {"seqpair": 300, "slicing": 600}


def sweep_engines() -> tuple[str, ...]:
    """The annealing engines the grid covers (the engine registry)."""
    from ..placers import ENGINE_NAMES

    return ENGINE_NAMES


def tier_workloads(tier: str) -> tuple[str, ...]:
    """Workload names of a tier: committed fixtures + ``gen:`` sizes."""
    if tier not in TIERS:
        raise ValueError(f"unknown sweep tier {tier!r}; try: {', '.join(TIERS)}")
    sizes = QUICK_SIZES if tier == "quick" else FULL_SIZES
    gens = tuple(
        family.format(n=n) for n in sizes for family in GEN_FAMILIES
    )
    return FIXTURE_WORKLOADS + gens


@dataclass(frozen=True)
class SweepCellSpec:
    """One declared grid cell: a workload under one engine config."""

    workload: str  #: registry name (``file:`` names repo-root-relative)
    engine: str  #: engine name, or :data:`PORTFOLIO`
    engines: tuple[str, ...]  #: engines the runner cycles starts over
    starts: int
    budget: int  #: total annealing steps across the cell's starts
    seed: int
    rtol: float = DEFAULT_RTOL
    #: config overrides fed to every walk (e.g. ``(("vector_tier",
    #: True),)`` for the array-tier cell); empty for the classic cells
    overrides: tuple[tuple[str, object], ...] = ()

    def config(self) -> dict:
        """The reproducible execution config recorded in the matrix."""
        config = {
            "engines": list(self.engines),
            "starts": self.starts,
            "budget": self.budget,
            "seed": self.seed,
        }
        # only when present, so the classic cells' config hashes (and
        # the committed baseline they key) are untouched
        if self.overrides:
            config["overrides"] = [list(pair) for pair in self.overrides]
        return config

    def config_hash(self) -> str:
        """Short stable hash of the execution config."""
        blob = json.dumps(self.config(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def tier_cells(
    tier: str,
    *,
    workloads: Sequence[str] | None = None,
    engines: Sequence[str] | None = None,
    budget: int | None = None,
    portfolio_budget: int | None = None,
    seed: int = DEFAULT_SEED,
    rtol: float = DEFAULT_RTOL,
) -> tuple[SweepCellSpec, ...]:
    """The declared grid of a tier, with optional narrowing overrides.

    Every workload gets one serial cell per engine plus one
    :data:`PORTFOLIO` cell fanning one start per engine under a shared
    budget.  Overriding ``workloads``/``engines``/budgets changes the
    cells' config hashes, so narrowed runs never collide with the
    committed baseline's cells by accident.
    """
    names = tuple(workloads) if workloads is not None else tier_workloads(tier)
    engine_names = tuple(engines) if engines is not None else sweep_engines()
    serial = budget if budget is not None else (
        QUICK_BUDGET if tier == "quick" else FULL_BUDGET
    )
    total = portfolio_budget if portfolio_budget is not None else (
        QUICK_PORTFOLIO_BUDGET if tier == "quick" else FULL_PORTFOLIO_BUDGET
    )
    cells = []
    for name in names:
        size = declared_size(name)
        capable = tuple(
            e
            for e in engine_names
            if size <= ENGINE_SIZE_CAPS.get(e, size)
        )
        for engine in capable:
            cells.append(
                SweepCellSpec(name, engine, (engine,), 1, serial, seed, rtol)
            )
        if len(capable) > 1:
            cells.append(
                SweepCellSpec(
                    name, PORTFOLIO, capable, len(capable), total, seed, rtol
                )
            )
    if workloads is None and engines is None:
        # the declared grid also pins the array tier: one bstar cell per
        # tier annealed on the vector engine (its own move family, so
        # its own tracked quality row) over the plain generated family
        largest = max(QUICK_SIZES if tier == "quick" else FULL_SIZES)
        cells.append(
            SweepCellSpec(
                GEN_FAMILIES[1].format(n=largest),
                VECTOR_ENGINE,
                ("bstar",),
                1,
                serial,
                seed,
                rtol,
                VECTOR_OVERRIDES,
            )
        )
    return tuple(cells)


def declared_size(name: str) -> int:
    """Module count a workload name declares (0 when unknowable cheaply:
    committed ``file:`` fixtures are small subsets by construction)."""
    from ..workloads import GEN_PREFIX, parse_gen_spec

    if name.startswith(GEN_PREFIX):
        return parse_gen_spec(name).n
    return 0


def resolve_sweep_name(name: str) -> str:
    """A matrix workload name as the registry can resolve it *here*.

    ``file:`` names are recorded repo-root-relative (machine-portable);
    resolution prefers the caller's working directory (so ad-hoc paths
    keep working) and falls back to the repo root.
    """
    if not name.startswith(FILE_PREFIX):
        return name
    path = Path(name[len(FILE_PREFIX):])
    if path.is_absolute() or path.exists():
        return name
    return f"{FILE_PREFIX}{REPO_ROOT / path}"


def run_cell(spec: SweepCellSpec) -> dict:
    """Execute one grid cell; returns its matrix row.

    Execution is in-process (``workers=0``) through
    :class:`~repro.parallel.PortfolioRunner` — the exact budgeted walk
    path the portfolio uses, deterministic for a fixed seed.  A cell
    that raises is recorded as ``ok: false`` with the error message;
    the rest of the sweep continues.
    """
    from ..parallel import PortfolioRunner

    row = {
        "workload": spec.workload,
        "engine": spec.engine,
        "config": spec.config(),
        "config_hash": spec.config_hash(),
        "rtol": spec.rtol,
        "ok": False,
    }
    t0 = time.perf_counter()
    try:
        circuit = resolve_workload(resolve_sweep_name(spec.workload))
        result = PortfolioRunner(
            resolve_sweep_name(spec.workload),
            spec.engines,
            starts=spec.starts,
            workers=0,
            base_seed=spec.seed,
            budget=spec.budget,
            overrides=spec.overrides,
        ).run()
        model = reference_model(circuit)
        placement = result.placement
        breakdown = model.breakdown_placement(placement)
        row.update(
            ok=True,
            modules=circuit.n_modules,
            nets=len(circuit.nets),
            ref_cost=model.evaluate_placement(placement),
            cost_terms=breakdown,
            hpwl=total_hpwl(circuit.nets, placement),
            violations=len(circuit.constraints().violations(placement)),
            steps=result.total_steps,
        )
    except Exception as exc:  # recorded, not raised: the differ gates it
        row["error"] = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    row["runtime_s"] = round(elapsed, 3)
    row["steps_per_sec"] = (
        round(row["steps"] / elapsed, 1) if row.get("steps") else 0.0
    )
    return row


def run_sweep(tier: str = "quick", *, cells: Iterable[SweepCellSpec] | None = None) -> dict:
    """Run a whole tier (or explicit ``cells``); returns the matrix."""
    specs = tuple(cells) if cells is not None else tier_cells(tier)
    t0 = time.perf_counter()
    rows = [run_cell(spec) for spec in specs]
    rows.sort(key=lambda r: (r["workload"], r["engine"], r["config_hash"]))
    return {
        "schema": SCHEMA,
        "tier": tier,
        "cells": rows,
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


# -- canonical form -----------------------------------------------------------


def canonical_matrix(matrix: dict) -> dict:
    """The matrix minus its volatile (timing/provenance) fields."""
    out = {k: v for k, v in matrix.items() if k not in VOLATILE_TOP_FIELDS}
    out["cells"] = [
        {k: v for k, v in cell.items() if k not in VOLATILE_CELL_FIELDS}
        for cell in matrix.get("cells", [])
    ]
    return out


def matrix_bytes(matrix: dict) -> bytes:
    """Byte-stable serialization of the matrix's *quality* content.

    Two same-tier runs under the same declaration must produce
    identical bytes here — the sweep's determinism oracle, mirroring
    :func:`repro.workloads.canonical_json` for circuits.
    """
    return (
        json.dumps(
            canonical_matrix(matrix), sort_keys=True, separators=(",", ":")
        ).encode()
        + b"\n"
    )


def write_matrix(matrix: dict, path: str | Path, *, canonical: bool = False) -> Path:
    """Write a matrix (``canonical=True`` strips volatile fields — the
    form baselines are committed in)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = canonical_matrix(matrix) if canonical else matrix
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_matrix(path: str | Path) -> dict:
    """Load and validate a matrix file."""
    matrix = json.loads(Path(path).read_text())
    problems = validate_matrix(matrix)
    if problems:
        raise ValueError(
            f"{path}: not a valid quality matrix: {'; '.join(problems)}"
        )
    return matrix


#: fields every ok cell must carry (the machine-readable schema)
_REQUIRED_CELL_FIELDS = (
    "workload", "engine", "config", "config_hash", "rtol", "ok",
)
_REQUIRED_OK_FIELDS = (
    "ref_cost", "cost_terms", "hpwl", "violations", "steps",
)


def validate_matrix(matrix: dict) -> list[str]:
    """Schema check; returns one message per problem (empty = valid)."""
    problems: list[str] = []
    if matrix.get("schema") != SCHEMA:
        problems.append(
            f"schema is {matrix.get('schema')!r}, expected {SCHEMA!r}"
        )
    cells = matrix.get("cells")
    if not isinstance(cells, list):
        return problems + ["no 'cells' list"]
    seen: set[tuple] = set()
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        missing = [f for f in _REQUIRED_CELL_FIELDS if f not in cell]
        if missing:
            problems.append(f"{where}: missing {', '.join(missing)}")
            continue
        key = cell_key(cell)
        if key in seen:
            problems.append(f"{where}: duplicate cell {key}")
        seen.add(key)
        if cell["ok"]:
            for name in _REQUIRED_OK_FIELDS:
                if name not in cell:
                    problems.append(f"{where}: ok cell missing {name!r}")
        elif "error" not in cell:
            problems.append(f"{where}: failed cell missing 'error'")
    return problems


def cell_key(cell: dict) -> tuple[str, str, str]:
    """The identity a cell is matched on across runs."""
    return (cell["workload"], cell["engine"], cell["config_hash"])


def cell_label(cell: dict) -> str:
    """Human-readable ``(workload, engine)`` name for diff messages."""
    return f"({cell['workload']}, {cell['engine']})"


# -- the differ ---------------------------------------------------------------


@dataclass
class SweepDiff:
    """Outcome of diffing a fresh matrix against a baseline.

    ``regressions`` is the gate: non-empty means the sweep fails.
    Everything else is informational.
    """

    regressions: list[str]
    improvements: list[str]
    added: list[str]
    unchanged: int

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = [
            f"sweep diff: {self.unchanged} cell(s) within tolerance, "
            f"{len(self.improvements)} improved, {len(self.added)} new, "
            f"{len(self.regressions)} regressed"
        ]
        lines += [f"REGRESSION: {msg}" for msg in self.regressions]
        lines += [f"improved: {msg}" for msg in self.improvements]
        return "\n".join(lines)


def diff_matrices(baseline: dict, fresh: dict) -> SweepDiff:
    """Gate a fresh matrix against the committed baseline.

    Cells are matched by ``(workload, engine, config_hash)``.  Failure
    conditions (each message names the offending cell):

    * **worse quality** — ``fresh.ref_cost > base.ref_cost * (1 +
      rtol)`` with ``rtol`` taken from the *baseline* cell (strictly
      greater: the bound itself passes);
    * **new violations** — ``fresh.violations > base.violations``;
    * **lost convergence** — a baseline-``ok`` cell that now errors;
    * **missing cell** — a baseline cell the fresh run did not cover.

    Improvements (cost at least ``rtol`` *below* baseline, or fewer
    violations) and fresh-only cells are reported but never fail.
    """
    by_key = {cell_key(c): c for c in fresh.get("cells", [])}
    base_keys = {cell_key(c) for c in baseline.get("cells", [])}
    regressions: list[str] = []
    improvements: list[str] = []
    unchanged = 0
    matched: set[tuple] = set()
    for base in baseline.get("cells", []):
        key = cell_key(base)
        new = by_key.get(key)
        if new is None:
            regressions.append(
                f"{cell_label(base)}: cell missing from the fresh sweep"
            )
            continue
        matched.add(key)
        if not base["ok"]:
            # a cell that never worked cannot regress; note recoveries
            if new["ok"]:
                improvements.append(f"{cell_label(base)}: now converges")
            else:
                unchanged += 1
            continue
        if not new["ok"]:
            regressions.append(
                f"{cell_label(base)}: previously converging cell failed: "
                f"{new.get('error', 'unknown error')}"
            )
            continue
        rtol = float(base.get("rtol", DEFAULT_RTOL))
        bound = base["ref_cost"] * (1.0 + rtol)
        worse_cost = new["ref_cost"] > bound
        new_violations = new["violations"] > base["violations"]
        if worse_cost or new_violations:
            reasons = []
            if worse_cost:
                reasons.append(
                    f"ref_cost {base['ref_cost']:.4f} -> {new['ref_cost']:.4f} "
                    f"(allowed <= {bound:.4f}, rtol {rtol:g})"
                )
            if new_violations:
                reasons.append(
                    f"violations {base['violations']} -> {new['violations']}"
                )
            regressions.append(f"{cell_label(base)}: {'; '.join(reasons)}")
            continue
        better_cost = new["ref_cost"] < base["ref_cost"] * (1.0 - rtol)
        fewer_violations = new["violations"] < base["violations"]
        if better_cost or fewer_violations:
            improvements.append(
                f"{cell_label(base)}: ref_cost {base['ref_cost']:.4f} -> "
                f"{new['ref_cost']:.4f}, violations {base['violations']} -> "
                f"{new['violations']}"
            )
        else:
            unchanged += 1
    added = [
        cell_label(c)
        for c in fresh.get("cells", [])
        if cell_key(c) not in base_keys
    ]
    return SweepDiff(regressions, improvements, added, unchanged)


# -- reporting ----------------------------------------------------------------


def format_matrix(matrix: dict) -> str:
    """Human-readable table of a matrix (one line per cell)."""
    lines = [
        f"quality matrix [{matrix.get('tier', '?')}] — "
        f"{len(matrix.get('cells', []))} cells",
        f"{'workload':<44} {'engine':<10} {'ref cost':>10} {'hpwl':>10} "
        f"{'viol':>5} {'steps':>7} {'steps/s':>9}",
    ]
    for cell in matrix.get("cells", []):
        if not cell["ok"]:
            lines.append(
                f"{cell['workload']:<44} {cell['engine']:<10} "
                f"FAILED: {cell.get('error', '?')}"
            )
            continue
        lines.append(
            f"{cell['workload']:<44} {cell['engine']:<10} "
            f"{cell['ref_cost']:>10.4f} {cell['hpwl']:>10.1f} "
            f"{cell['violations']:>5} {cell['steps']:>7} "
            f"{cell.get('steps_per_sec', 0.0):>9,.0f}"
        )
    return "\n".join(lines)


def matrix_summary(matrix: dict) -> dict:
    """Compact roll-up (the ``mode: "sweep"`` trajectory payload)."""
    ok_cells = [c for c in matrix.get("cells", []) if c["ok"]]
    return {
        "tier": matrix.get("tier"),
        "cells": len(matrix.get("cells", [])),
        "ok_cells": len(ok_cells),
        "workloads": len({c["workload"] for c in matrix.get("cells", [])}),
        "total_ref_cost": round(sum(c["ref_cost"] for c in ok_cells), 6),
        "total_violations": sum(c["violations"] for c in ok_cells),
        "total_steps": sum(c["steps"] for c in ok_cells),
    }
