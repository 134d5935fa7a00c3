"""``benchmarks/sweep.py --no-write`` is read-only.

CI runs the quick-tier sweep with ``--no-write`` next to tracked
results (the committed baseline, the out matrix, the perf trajectory),
so a read-only gate must leave every one of them byte for byte as it
was.  The sweep itself is stubbed with the committed baseline: the
gate passes on it, and the test runs in well under a second.
"""

from __future__ import annotations

import copy
import importlib.util
import shutil
from pathlib import Path

from repro.analysis.sweep import load_matrix

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "benchmarks" / "sweep.py"
OUT_NAME = "quality_matrix_quick.json"


def _sweep_script():
    spec = importlib.util.spec_from_file_location("sweep_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_write_gates_without_writing_tracked_files(tmp_path, monkeypatch):
    sweep = _sweep_script()
    baseline = load_matrix(sweep.BASELINE_PATH)
    monkeypatch.setattr(sweep, "run_sweep", lambda tier: copy.deepcopy(baseline))
    # the out directory is redirected to a copy of the committed one, so
    # a write is seen without ever touching the checkout
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    shutil.copyfile(sweep.OUT_DIR / OUT_NAME, out_dir / OUT_NAME)
    monkeypatch.setattr(sweep, "OUT_DIR", out_dir)
    tracked = [
        out_dir / OUT_NAME,
        sweep.BASELINE_PATH,
        REPO / "BENCH_perf_kernel.json",
    ]
    before = [path.read_bytes() for path in tracked]

    assert sweep.run_and_gate(tier="quick", write=False) == 0

    assert [path.read_bytes() for path in tracked] == before
    assert sorted(p.name for p in out_dir.iterdir()) == [OUT_NAME]


def test_no_write_is_documented_as_read_only(capsys):
    sweep = _sweep_script()
    try:
        sweep.main(["--help"])
    except SystemExit:
        pass
    help_text = " ".join(capsys.readouterr().out.split())
    assert "read-only: write no tracked file" in help_text
    assert OUT_NAME.replace("quick", "<tier>") in help_text
    assert "writes no tracked file" in " ".join(sweep.__doc__.split())
