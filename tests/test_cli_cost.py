"""CLI cost flags: ``--cost-weights`` and ``--cost-report``.

Happy paths (weights reach the engine configs, reports show per-term
contributions, the portfolio path threads weights as overrides) and the
error paths (unknown terms, non-numeric weights, terms an engine does
not declare) — all exiting with usable messages, never tracebacks.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _ENGINES, _parse_cost_weights, main

SRC = Path(__file__).resolve().parent.parent / "src"


def exit_code(excinfo) -> int:
    code = excinfo.value.code
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


class TestParsing:
    def test_parses_terms_and_values(self):
        assert _parse_cost_weights("area=2,wirelength=0.25") == {
            "area": 2.0,
            "wirelength": 0.25,
        }

    def test_tolerates_spaces_and_empty_entries(self):
        assert _parse_cost_weights(" area = 2 ,, aspect=1 ") == {
            "area": 2.0,
            "aspect": 1.0,
        }

    def test_none_means_no_overrides(self):
        assert _parse_cost_weights(None) == {}

    def test_unknown_term_lists_catalog(self):
        with pytest.raises(SystemExit) as excinfo:
            _parse_cost_weights("blobs=1")
        message = str(excinfo.value)
        assert "blobs" in message
        assert "area, wirelength, aspect, proximity" in message

    def test_missing_equals_is_explained(self):
        with pytest.raises(SystemExit) as excinfo:
            _parse_cost_weights("area")
        assert "term=value" in str(excinfo.value)

    def test_non_numeric_weight_is_explained(self):
        with pytest.raises(SystemExit) as excinfo:
            _parse_cost_weights("area=heavy")
        assert "not a number" in str(excinfo.value)


class TestSingleRun:
    def test_weights_change_the_anneal(self, capsys):
        main(["place", "fig2", "--engine", "hbtree", "--seed", "1"])
        base = capsys.readouterr().out
        main(
            [
                "place", "fig2", "--engine", "hbtree", "--seed", "1",
                "--cost-weights", "wirelength=0,aspect=0,proximity=0",
            ]
        )
        reweighted = capsys.readouterr().out
        assert base != reweighted  # the objective actually changed

    def test_cost_report_lists_every_reference_term(self, capsys):
        code = main(
            ["place", "fig2", "--engine", "hbtree", "--seed", "1", "--cost-report"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cost report (reference model):" in out
        for term in ("area", "wirelength", "aspect", "violations", "total"):
            assert term in out

    def test_unsupported_term_names_engine_and_subset(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["place", "fig2", "--engine", "slicing", "--cost-weights", "aspect=1"])
        message = str(excinfo.value)
        assert "slicing" in message
        assert "area, wirelength" in message

    def test_deterministic_engine_rejects_weights(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "place", "fig2", "--engine", "deterministic",
                    "--cost-weights", "area=2",
                ]
            )
        assert "does not anneal a weighted cost" in str(excinfo.value)


class TestRegistryLocation:
    @pytest.mark.parametrize("engine", _ENGINES)
    def test_single_run_never_imports_parallel(self, engine):
        """The engine registry lives in ``repro.placers``, outside
        ``repro.parallel``, so a single-run command never pays for (or
        depends on) the portfolio machinery.  A fresh interpreter per
        engine: this process has long since imported the portfolio."""
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            f"main(['place', 'fig2', '--engine', {engine!r}])\n"
            "print('parallel imported:', 'repro.parallel' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.stderr == "", proc.stderr
        assert proc.stdout.splitlines()[-1] == "parallel imported: False"


class TestPortfolioPath:
    def test_weights_thread_into_portfolio_overrides(self, capsys):
        main(
            [
                "place", "fig2", "--engines", "seqpair,hbtree", "--starts", "2",
                "--budget", "600", "--seed", "3",
                "--cost-weights", "wirelength=1.0",
                "--cost-report",
            ]
        )
        out = capsys.readouterr().out
        assert "portfolio:" in out
        assert "winner cost terms:" in out  # leaderboard breakdown line
        assert "cost report (reference model):" in out

    def test_portfolio_rejects_term_an_engine_lacks(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "place", "fig2", "--engines", "seqpair,slicing", "--starts", "2",
                    "--cost-weights", "aspect=0.5",
                ]
            )
        assert "slicing" in str(excinfo.value)
