"""Benchmark harness helpers.

Every paper table/figure has one ``bench_*.py`` file.  Each file both
*benchmarks* the relevant kernels (via pytest-benchmark) and *emits* the
regenerated table/figure as text: printed to the captured output and,
when pytest-benchmark timing is on, written to
``benchmarks/out/<name>.txt`` so the artifacts survive the run.  A
``--benchmark-disable`` run (the CI smoke) prints only: its tables
carry the host's timings, which must not rewrite the tracked files.

Run:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def emit(request):
    """Echo a regenerated artifact; save it to benchmarks/out/ when timed."""
    write = not request.config.getoption("benchmark_disable", False)

    def _emit(name: str, text: str) -> None:
        path = OUT_DIR / f"{name}.txt"
        if write:
            OUT_DIR.mkdir(exist_ok=True)
            path.write_text(text + "\n")
            print(f"\n===== {name} (saved to {path}) =====")
        else:
            print(f"\n===== {name} (timing off: {path} left as is) =====")
        print(text)

    return _emit
