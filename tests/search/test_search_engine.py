"""Tests for the falsify → shrink → certify search engine."""

import json

import pytest

from repro.campaign import CampaignEngine, ResultCache
from repro.campaign.runner import _KINDS
from repro.campaign.spec import RunSpec
from repro.campaign import execute_spec
from repro.errors import ConfigurationError
from repro.search import (
    IN_MODEL_VIOLATION,
    NEAR_MISS,
    OUT_OF_MODEL_VIOLATION,
    SearchConfig,
    generation_recipes,
    recipe_signature,
    run_search,
    search_report_lines,
    seed_recipes,
)
from repro.search.properties import (
    PROPERTY_CLASSES,
    KAntiOmegaConvergenceProperty,
    PropertyVerdict,
)


def fingerprint(report):
    """Everything deterministic about a report (timings excluded)."""
    return json.dumps(
        {
            "candidates": [
                (c.generation, c.signature, c.fitness, c.screen_violated,
                 c.confirmed_violated, c.in_model)
                for c in report.candidates
            ],
            "findings": [
                (f.kind, list(f.schedule.steps), dict(f.schedule.crash_steps),
                 f.certificate.reason)
                for f in report.findings
            ],
        },
        sort_keys=True,
    )


class TestConfig:
    def test_unknown_property_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchConfig(property="no-such-claim")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend 'cuda'"):
            SearchConfig(backend="cuda")

    def test_unknown_fitness_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchConfig(fitness="vibes")

    def test_certify_bound_defaults_to_four_times_the_seed_bound(self):
        assert SearchConfig(bound=3).resolved_certify_bound() == 12
        assert SearchConfig(bound=3, certify_bound=7).resolved_certify_bound() == 7

    def test_command_round_trips_the_smoke_flags(self):
        config = SearchConfig.smoke_config("agreement-safety", generations=4, seed=9)
        command = config.command()
        assert "--property agreement-safety" in command
        assert "--generations 4" in command
        assert "--seed 9" in command
        assert "--smoke" in command


class TestPopulations:
    def test_seed_recipes_cover_in_model_and_adversarial_bases(self):
        config = SearchConfig.smoke_config("k-anti-omega-convergence")
        families = [recipe["base"]["schedule"] for recipe in seed_recipes(config)]
        assert "set-timely" in families
        assert "carrier-rotation" in families
        assert "alternating-epochs" in families

    def test_generation_zero_is_deterministic_and_sized(self):
        config = SearchConfig.smoke_config("k-anti-omega-convergence")
        first = generation_recipes(config, 0, [])
        second = generation_recipes(config, 0, [])
        assert first == second
        assert len(first) == config.population

    def test_later_generations_carry_elites_verbatim(self):
        config = SearchConfig.smoke_config("k-anti-omega-convergence")
        elites = generation_recipes(config, 0, [])[: config.elites]
        population = generation_recipes(config, 1, elites)
        assert population[: config.elites] == elites
        assert len(population) == config.population


class TestSmokeSearch:
    @pytest.fixture(scope="class")
    def smoke_report(self):
        config = SearchConfig.smoke_config("k-anti-omega-convergence", generations=5, seed=0)
        return run_search(config)

    def test_acceptance_invariants(self, smoke_report):
        # The headline the E11 table and the atlas pin: no in-model
        # violations, and at least one shrunk out-of-model/near-miss finding.
        assert smoke_report.in_model_violation_count() == 0
        assert smoke_report.findings
        assert any(f.certificate.in_model is False for f in smoke_report.findings)

    def test_deterministic_across_runs(self, smoke_report):
        config = SearchConfig.smoke_config("k-anti-omega-convergence", generations=5, seed=0)
        assert fingerprint(run_search(config)) == fingerprint(smoke_report)

    def test_findings_are_shrunk_and_consistent(self, smoke_report):
        for finding in smoke_report.findings:
            assert finding.shrunk_length <= finding.original_length
            steps = list(finding.schedule.steps)
            for pid, crash_at in finding.schedule.crash_steps.items():
                assert all(step != pid for step in steps[crash_at:])

    def test_report_lines_name_the_regenerating_command(self, smoke_report):
        text = "\n".join(search_report_lines(smoke_report))
        assert "in-model violations: 0" in text
        assert "repro search --property k-anti-omega-convergence" in text
        assert "--smoke" in text

    def test_jsonl_records(self, smoke_report, tmp_path):
        from repro.search import write_search_jsonl

        path = tmp_path / "search.jsonl"
        write_search_jsonl(smoke_report, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {record["record"] for record in records}
        assert kinds == {"candidate", "finding"}
        findings = [r for r in records if r["record"] == "finding"]
        assert all("regenerate" in r and r["steps"] for r in findings)


class TestCampaignIntegration:
    def test_pooled_and_cached_runs_match_serial(self, tmp_path):
        config = SearchConfig.smoke_config(
            "k-anti-omega-convergence", generations=2, seed=3
        )
        serial = fingerprint(run_search(config))
        cache = ResultCache(tmp_path / "cache")
        with CampaignEngine(workers=2, cache=cache) as engine:
            pooled = fingerprint(run_search(config, engine=engine))
            resumed = run_search(config, engine=engine)
        assert pooled == serial
        assert fingerprint(resumed) == serial
        # Every generation of the second run is served from the cache.
        assert all(stats.cached_runs > 0 for stats in resumed.generations)

    def test_search_eval_kind_resolves_lazily(self):
        spec = RunSpec.create(
            "search-eval",
            {
                "property": "k-anti-omega-convergence",
                "property_params": {"n": 4, "t": 2, "k": 2},
                "fitness": "stabilization-delay",
                "checkpoints": 4,
                "near_miss_threshold": 0.8,
                "certify_bound": 12,
                "certify_prefix": None,
                "recipes": [
                    {
                        "base": {"schedule": "round-robin", "n": 4},
                        "horizon": 200,
                        "mutations": [],
                    }
                ],
            },
        )
        removed = _KINDS.pop("search-eval")
        try:
            payload = execute_spec(spec)
        finally:
            _KINDS.setdefault("search-eval", removed)
        assert len(payload["results"]) == 1
        assert payload["results"][0]["length"] == 200


class _AlwaysViolated(KAntiOmegaConvergenceProperty):
    """Stub: 'violated whenever process 1 takes at least ten steps'.

    Exercises the violation branch (classification + confirm-predicate
    shrinking) that the real detector — correctly — never reaches at smoke
    scale.  The screen verdict comes from ``judge_screen``, the one hook
    every screen lane (column and reference) funnels through.
    """

    name = "stub-always-violated"

    def _verdict(self, compiled, mode):
        count = sum(1 for step in compiled.steps if step == 1)
        violated = count >= 10
        return PropertyVerdict(
            property_name=self.name,
            violated=violated,
            fitness=1.0 if violated else 0.0,
            mode=mode,
            details={"count": count, "all_correct_produced": True},
        )

    def judge_screen(self, snapshots, compiled):
        return self._verdict(compiled, "screen")

    def confirm(self, compiled):
        return self._verdict(compiled, "confirm")


class TestViolationPath:
    @pytest.fixture()
    def stub_property(self):
        PROPERTY_CLASSES[_AlwaysViolated.name] = _AlwaysViolated
        try:
            yield _AlwaysViolated.name
        finally:
            PROPERTY_CLASSES.pop(_AlwaysViolated.name, None)

    def test_violations_are_classified_and_shrunk(self, stub_property):
        config = SearchConfig.smoke_config(
            stub_property, generations=1, population=5, top=2, seed=1
        )
        report = run_search(config)
        confirmed = [c for c in report.candidates if c.confirmed_violated]
        assert confirmed, "the stub property must produce confirmed violations"
        for candidate in confirmed:
            assert candidate.classification() in (
                IN_MODEL_VIOLATION,
                OUT_OF_MODEL_VIOLATION,
            )
        assert report.findings
        for finding in report.findings:
            assert finding.kind in (IN_MODEL_VIOLATION, OUT_OF_MODEL_VIOLATION)
            # The shrunk reproducer still violates: ten steps of process 1 is
            # the stub's minimal core, and cert-side preservation held.
            count = sum(1 for step in finding.schedule.steps if step == 1)
            assert count >= 10
            assert (finding.kind == IN_MODEL_VIOLATION) == finding.certificate.in_model

    def test_near_misses_are_only_reported_without_violations(self, stub_property):
        config = SearchConfig.smoke_config(
            stub_property, generations=1, population=5, top=2, seed=1
        )
        report = run_search(config)
        assert all(f.kind != NEAR_MISS for f in report.findings)


class TestReportTallies:
    def test_finding_counts_dedup_elites_across_generations(self):
        # An elite recipe is re-evaluated (from cache) every generation it
        # survives; the headline tallies must count distinct schedules, not
        # evaluations.
        config = SearchConfig.smoke_config("k-anti-omega-convergence", generations=5, seed=0)
        report = run_search(config)
        for pool in (report.near_misses(), report.violations(in_model=False)):
            signatures = [candidate.signature for candidate in pool]
            assert len(signatures) == len(set(signatures))
        evaluations = [
            c for c in report.candidates
            if not c.confirmed_violated and c.fitness >= config.near_miss_threshold
        ]
        assert len(evaluations) >= len(report.near_misses())


class TestCommandRoundTrip:
    def test_non_default_fields_appear_in_the_command(self):
        config = SearchConfig(
            property="agreement-safety", n=5, t=1, k=1, certify_bound=6,
            near_miss_threshold=0.9, top=1, generations=2, population=8,
            horizon=900, checkpoints=5, seed=4, fitness="timeliness-bound",
        )
        command = config.command()
        for expected in (
            "--property agreement-safety", "--n 5", "--t 1", "--k 1",
            "--certify-bound 6", "--near-miss-threshold 0.9", "--top 1",
            "--generations 2", "--population 8", "--horizon 900",
            "--checkpoints 5", "--seed 4", "--fitness timeliness-bound",
        ):
            assert expected in command, f"{expected!r} missing from {command!r}"

    def test_smoke_overrides_appear_in_the_command(self):
        config = SearchConfig.smoke_config(
            "k-anti-omega-convergence", generations=2, population=5, top=1, seed=1
        )
        command = config.command()
        assert "--smoke" in command
        assert "--generations 2" in command
        assert "--population 5" in command
        assert "--top 1" in command
        # Fields matching the smoke baseline stay implicit.
        assert "--horizon" not in command
