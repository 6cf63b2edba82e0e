"""The ``repro scenarios`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import bundled_scenario, scenario_names

FAST = ["--checkpoint-every", "64", "--offline", "none"]


class TestList:
    def test_lists_every_bundled_scenario(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out


class TestRun:
    def test_run_report(self, capsys):
        code = main(
            ["scenarios", "run", "--scenario", "capacity-crunch",
             "--policy", "greedy"] + FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio vs lower bound" in out
        assert "rejected=18" in out

    def test_run_json(self, capsys):
        code = main(
            ["scenarios", "run", "--scenario", "diurnal",
             "--policy", "spread", "--json"] + FAST
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "diurnal"
        assert doc["policy"] == "spread"
        assert all(c["ratio"] >= 1.0 for c in doc["checkpoints"])

    def test_run_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "replay.json"
        code = main(
            ["scenarios", "run", "--scenario", "diurnal",
             "--policy", "greedy", "--out", str(out_path)] + FAST
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["policy"] == "greedy"

    def test_show_prints_document(self, capsys):
        code = main(["scenarios", "run", "--scenario", "nemesis", "--show"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "nemesis"
        assert doc["segments"]

    def test_run_from_file(self, tmp_path, capsys):
        path = tmp_path / "custom.json"
        path.write_text(bundled_scenario("capacity-crunch").dumps())
        code = main(
            ["scenarios", "run", "--file", str(path), "--policy", "spread"]
            + FAST
        )
        assert code == 0
        assert "capacity-crunch" in capsys.readouterr().out

    def test_sharded_path(self, capsys):
        code = main(
            ["scenarios", "run", "--scenario", "diurnal",
             "--policy", "nearest", "--path", "sharded", "--shards", "3"]
            + FAST
        )
        assert code == 0
        assert "sharded path" in capsys.readouterr().out

    def test_unknown_scenario_is_cli_error(self, capsys):
        code = main(["scenarios", "run", "--scenario", "nope"] + FAST)
        assert code == 1
        assert "scenario-error" in capsys.readouterr().err

    def test_unknown_policy_is_cli_error(self, capsys):
        code = main(
            ["scenarios", "run", "--scenario", "diurnal",
             "--policy", "nope"] + FAST
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_sharded_fault_scenario_is_cli_error(self, capsys):
        code = main(
            ["scenarios", "run", "--scenario", "regional-outage",
             "--path", "sharded"] + FAST
        )
        assert code == 1
        assert "scenario-error" in capsys.readouterr().err

    def test_missing_scenario_file_is_cli_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["scenarios", "run", "--file", str(missing)] + FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [invalid-parameter]: ")
        assert str(missing) in err

    def test_unwritable_out_is_cli_error(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "run.json"
        code = main(
            ["scenarios", "run", "--scenario", "flash-crowd",
             "--out", str(out)] + FAST
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [invalid-parameter]: ")
        assert str(out) in err


class TestCompare:
    def test_acceptance_command(self, capsys):
        # The PR's acceptance invocation, minus the offline solve.
        code = main(
            ["scenarios", "compare", "--scenario", "flash-crowd",
             "--policies", "nearest,threshold,spread"] + FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean ratio" in out
        assert "nearest" in out and "threshold" in out and "spread" in out
        assert "mean competitive ratio" in out

    def test_compare_json_workers(self, capsys):
        code = main(
            ["scenarios", "compare", "--scenario", "capacity-crunch",
             "--policies", "greedy,spread", "--workers", "2", "--json"]
            + FAST
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["policies"] == ["greedy", "spread"]
        assert len(doc["results"]) == 2

    def test_workers_match_serial(self, capsys):
        args = [
            "scenarios", "compare", "--scenario", "diurnal",
            "--policies", "greedy,nearest", "--json",
        ] + FAST
        assert main(args + ["--workers", "0"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(args + ["--workers", "4"]) == 0
        parallel = json.loads(capsys.readouterr().out)

        def strip(doc):
            for result in doc["results"]:
                result.pop("elapsed_seconds")
            return doc

        assert strip(serial) == strip(parallel)
