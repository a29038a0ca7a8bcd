"""Exit-code and output-shape tests for ``python -m repro.analysis``."""

import json

import pytest

from repro.analysis.__main__ import (
    EXIT_EXPLORE,
    EXIT_LINT,
    EXIT_OK,
    EXIT_TRACE,
    main,
)

from tests.mutants import weak_staleness

pytestmark = pytest.mark.no_sanitize


class TestLintExit:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text('"""Mod."""\nX = 1\n')
        assert main(["--lint", str(tmp_path)]) == EXIT_OK

    def test_lint_issue_exits_3_with_rule_id_first(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            '"""Mod."""\nimport time\n\ndef f():\n    return time.time()\n'
        )
        rc = main(["--lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == EXIT_LINT
        assert out.splitlines()[0] == "ANA001"


class TestSmokeExit:
    def test_smoke_is_clean_and_reaches_the_vector_proof(self, capsys):
        assert main(["--smoke", "--smoke-iters", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "smoke sim ssp3-isolated (rounds_collapsed=3)" in out
        # Observed rounds merged at the shards, and BSP's released DPRs.
        assert "smoke sim ssp3-straggler (rounds_collapsed=4)" in out
        assert "smoke sim bsp (rounds_collapsed=4)" in out


class TestTraceExit:
    def test_corrupt_trace_exits_5_with_rule_id_first(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        rc = main(["--check-trace", str(bad)])
        out = capsys.readouterr().out
        assert rc == EXIT_TRACE
        assert out.splitlines()[0] == "X002"


class TestReplayExit:
    def test_corrupt_choice_trace_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["--replay", str(bad)])
        out = capsys.readouterr().out
        assert rc == EXIT_TRACE
        assert out.splitlines()[0] == "X002"


class TestExploreExit:
    def test_small_clean_exploration_exits_zero(self, capsys):
        rc = main(
            [
                "--explore", "ssp",
                "--explore-budget", "5",
                "--explore-target", "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "explore[ssp]" in out
        assert "DPOR pruning" in out

    def test_mutated_exploration_exits_6_and_writes_trace(self, tmp_path, capsys, monkeypatch):
        weak_staleness(monkeypatch)
        trace_path = tmp_path / "cex.json"
        rc = main(
            [
                "--explore", "ssp",
                "--explore-iters", "6",
                "--spread", "1.0",
                "--explore-budget", "10",
                "--trace-out", str(trace_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_EXPLORE
        assert out.splitlines()[0] == "S004"
        doc = json.loads(trace_path.read_text())
        assert doc["violations"] == ["S004"]

        # And the written trace replays to exit 0 (reproduced).
        rc2 = main(["--replay", str(trace_path)])
        out2 = capsys.readouterr().out
        assert rc2 == EXIT_OK
        assert "reproduced" in out2
