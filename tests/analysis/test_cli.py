"""Tests for the command-line interface (`python -m repro`)."""

import pytest

from repro import __version__
from repro.cli import CAMPAIGNS, EXPERIMENTS, build_parser, run
from repro.scenarios import available_families


class TestParser:
    def test_every_experiment_has_a_subcommand(self):
        parser = build_parser()
        help_text = parser.format_help()
        for name in EXPERIMENTS:
            assert name in help_text

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["does-not-exist"])


class TestCommands:
    def test_default_is_list(self):
        lines = run([])
        assert lines[0].startswith("available experiments")
        assert any("figure1" in line for line in lines)

    def test_list(self):
        lines = run(["list"])
        assert len(lines) == len(EXPERIMENTS) + len(CAMPAIGNS) + 2
        assert any("campaign" in line for line in lines)

    def test_figure1(self):
        lines = run(["figure1", "--blocks", "2", "4"])
        assert "bound {p1,p2} vs {q}" in lines[0]

    def test_map(self):
        lines = run(["map", "--t", "2", "--k", "2", "--n", "4"])
        output = "\n".join(lines)
        assert "Theorem 27 map" in output
        assert "S^2_{3,4}" in output          # matching system
        assert "frontier" in output

    def test_separations(self):
        lines = run(["separations"])
        assert "oracle consistent" in lines[0]

    def test_detector_small_horizon(self):
        lines = run(["detector", "--horizon", "8000"])
        assert "stabilization step" in lines[0]

    def test_solve_small_instance(self):
        lines = run(["solve", "--t", "2", "--k", "2", "--n", "3", "--max-steps", "200000"])
        output = "\n".join(lines)
        assert "satisfied: True" in output
        assert "decisions:" in output

    def test_solve_trivial_case(self):
        lines = run(["solve", "--t", "1", "--k", "2", "--n", "3", "--max-steps", "50000"])
        output = "\n".join(lines)
        assert "trivial" in output
        assert "satisfied: True" in output


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        # Guards both resolution paths — installed distribution metadata and
        # the source-tree pyproject.toml read — against drifting from
        # pyproject.toml, the single source of truth.
        import re
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.MULTILINE)
        assert match is not None
        assert __version__ == match.group(1)


class TestScenariosCommand:
    def test_listing_names_every_family(self):
        lines = run(["scenarios"])
        output = "\n".join(lines)
        for name in available_families():
            assert name in output
        assert "with_crashes" in output  # combinators are advertised too

    def test_run_one_family_prints_census_and_detector_tables(self):
        lines = run(
            [
                "scenarios",
                "crash-churn",
                "--n", "3",
                "--t", "1",
                "--k", "1",
                "--horizon", "3000",
                "--seed", "9",
                "--set", "period=32",
                "--set", "outage=8",
            ]
        )
        output = "\n".join(lines)
        assert "crash-recovery churn (period=32, outage=8" in output
        assert "schedule census" in output
        assert "k-anti-Ω on this scenario" in output

    def test_set_values_parse_lists_and_perturbations_apply(self):
        lines = run(
            [
                "scenarios",
                "spliced-adversary",
                "--n", "3",
                "--t", "1",
                "--k", "1",
                "--horizon", "2000",
                "--set", "carriers=1,2",
                "--set", "switch_at=500",
                "--perturb", "noise:0.05:3",
            ]
        )
        output = "\n".join(lines)
        assert "carriers=[1, 2]" in output
        assert "perturb(noise, rate=0.05, seed=3)" in output

    def test_set_n_override_drives_the_census(self):
        lines = run(
            ["scenarios", "round-robin", "--set", "n=6", "--horizon", "1000",
             "--t", "2", "--k", "2"]
        )
        output = "\n".join(lines)
        assert "round-robin over [1, 2, 3, 4, 5, 6]" in output
        assert "| 6       |" in output  # census covers the overridden Πn

    def test_empty_set_value_rejected_cleanly(self):
        with pytest.raises(SystemExit, match="KEY=VALUE"):
            run(["scenarios", "crash-churn", "--set", "period="])

    def test_single_valued_set_parameter_coerced_to_list(self):
        lines = run(
            [
                "scenarios",
                "carrier-rotation",
                "--n", "2",
                "--t", "1",
                "--k", "1",
                "--horizon", "1000",
                "--set", "carriers=1",
            ]
        )
        assert any("carriers=[1]" in line for line in lines)

    def test_bad_assignment_and_bad_perturbation_rejected(self):
        with pytest.raises(SystemExit):
            run(["scenarios", "crash-churn", "--set", "period"])
        with pytest.raises(SystemExit):
            run(["scenarios", "crash-churn", "--perturb", ""])
        with pytest.raises(SystemExit, match="numeric RATE"):
            run(["scenarios", "crash-churn", "--perturb", "noise:"])
        with pytest.raises(SystemExit, match="numeric RATE"):
            run(["scenarios", "crash-churn", "--perturb", "noise:0.1:x"])


class TestScenariosCampaign:
    def test_campaign_scenarios_small_horizon(self):
        lines = run(["campaign", "scenarios", "--horizon", "3000"])
        output = "\n".join(lines)
        assert "scenario family" in output
        assert "crash-recovery churn" in output
        assert "spliced adversarial suffix" in output


class TestEpilogs:
    def test_every_subcommand_epilog_names_its_experiments_md_section(self):
        # The satellite audit: every subcommand's --help must point at the
        # EXPERIMENTS.md section it regenerates.
        import argparse

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(subparsers.choices), "no subcommands registered"
        for name, subparser in subparsers.choices.items():
            assert subparser.epilog, f"subcommand {name!r} has no --help epilog"
            assert "EXPERIMENTS.md" in subparser.epilog, (
                f"subcommand {name!r} epilog does not name its EXPERIMENTS.md section"
            )
            assert "EXPERIMENTS.md" in subparser.format_help()


class TestQueueCommands:
    def test_enqueue_work_status_roundtrip(self, tmp_path):
        db = str(tmp_path / "q.db")
        lines = run(["queue", "enqueue", "e1", "--db", db])
        assert "4 new job(s)" in lines[0]
        lines = run(["queue", "enqueue", "e1", "--db", db])  # idempotent
        assert "0 new job(s)" in lines[0]
        lines = run(["queue", "work", "--db", db, "--worker-id", "t1"])
        assert "completed 4" in lines[0]
        lines = run(["queue", "status", "--db", db])
        assert "done=4" in lines[0]

    def test_drain_completes_the_queue(self, tmp_path):
        db = str(tmp_path / "q.db")
        run(["queue", "enqueue", "e1", "--db", db])
        lines = run(["queue", "drain", "--db", db, "--workers", "2"])
        assert "0 death(s)" in lines[0]
        assert any("done=4" in line for line in lines)

    def test_missing_database_is_a_clean_error(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="no queue database"):
            run(["queue", "status", "--db", str(tmp_path / "absent.db")])

    def test_chaos_flags_require_resume(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="--resume"):
            run(["campaign", "e1", "--chaos-kills", "1"])

    def test_campaign_resume_resumes(self, tmp_path):
        db = str(tmp_path / "c.db")
        first = run(["campaign", "e1", "--resume", db, "--workers", "2"])
        assert any("4 new job(s)" in line for line in first)
        second = run(["campaign", "e1", "--resume", db])
        assert any("4 already done" in line for line in second)


class TestSearchCommand:
    def test_list_properties(self):
        lines = run(["search", "--list-properties"])
        output = "\n".join(lines)
        for name in ("k-anti-omega-convergence", "leader-set-convergence", "agreement-safety"):
            assert name in output

    def test_unknown_property_rejected(self):
        with pytest.raises(SystemExit):
            run(["search", "--property", "no-such-claim", "--smoke"])

    def test_smoke_search_reports_no_in_model_violations(self):
        lines = run(["search", "--smoke", "--generations", "2", "--seed", "3"])
        output = "\n".join(lines)
        assert "in-model violations: 0" in output
        assert "falsification attempts against k-anti-omega-convergence" in output

    def test_smoke_search_emits_a_regenerable_shrunk_finding(self):
        # The acceptance-criterion invocation, minus three generations for
        # speed: the full five-generation run is pinned by tests/search.
        lines = run(["search", "--property", "k-anti-omega-convergence",
                     "--generations", "3", "--smoke"])
        output = "\n".join(lines)
        assert "finding 1 [" in output
        assert "regenerate: repro search --property k-anti-omega-convergence" in output

    def test_search_jsonl_records(self, tmp_path):
        import json

        path = tmp_path / "search.jsonl"
        run(["search", "--smoke", "--generations", "2", "--jsonl", str(path)])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(record["record"] == "candidate" for record in records)

    def test_e11_table(self):
        lines = run(["search", "--table", "--generations", "2"])
        output = "\n".join(lines)
        assert "E11" in output
        assert "in-model violations" in output
        assert "agreement-safety" in output

    def test_table_rejects_single_search_flags(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["search", "--table", "--jsonl", "out.jsonl"])
        assert "--jsonl" in str(excinfo.value)
        with pytest.raises(SystemExit):
            run(["search", "--table", "--property", "agreement-safety"])
        with pytest.raises(SystemExit):
            run(["search", "--table", "--smoke"])

    def test_degenerate_horizon_rejected_cleanly(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run(["search", "--horizon", "1", "--generations", "2"])


class TestBenchCommand:
    def test_unknown_workload_exits_cleanly_listing_choices(self):
        # The console entry point turns the library's ConfigurationError into
        # a one-line SystemExit naming every valid workload, not a traceback.
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--workload", "nope"])
        message = str(excinfo.value)
        assert "unknown workload" in message
        for name in ("floor", "fresh-ops", "bound-ops"):
            assert name in message

    def test_unknown_backend_exits_cleanly_listing_choices(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--smoke", "--backend", "banana"])
        message = str(excinfo.value)
        assert "unknown backend 'banana'" in message
        assert "python" in message and "vector" in message

    def test_run_still_raises_configuration_error_for_library_callers(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run(["bench", "--workload", "nope"])
