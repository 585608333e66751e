"""Whole-generation screening: the column lane is verdict-identical.

ISSUE 8's differential suite.  ``screen_generation`` with the auto planner
(or a forced ``vector`` backend) must return :class:`PropertyVerdict`s that
compare *equal* — same ``violated``, ``fitness``, ``mode`` and ``details``
dicts — to the per-candidate :meth:`ScheduleProperty.screen` reference path,
for every registered property, across seeded generations that mix schedule
lengths, crash a process at step 0, and shrink to a generation of one.
Batches the column lane cannot take (agreement-safety composes an automaton
with no vector lowering) must fall back loudly under ``auto`` and raise
under a forced ``vector`` backend.  The search engine's screen-verdict cache
rides the same lane; its hit accounting is pinned here too, and so is the
no-numpy environment (the optional ``[vector]`` extra not installed).
"""

import logging
import random
from array import array

import pytest

from repro.core.schedule import CompiledSchedule
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import backends as backends_module
from repro.runtime import vector_backend
from repro.search.engine import (
    _screened_verdicts,
    reset_screen_cache,
    screen_cache_stats,
)
from repro.search.properties import (
    ScheduleProperty,
    available_properties,
    last_screen_plan,
    make_property,
    screen_generation,
)

PARAMS = {"n": 4, "t": 2, "k": 2}
COLUMN_PROPERTIES = ("k-anti-omega-convergence", "leader-set-convergence")


def _needs_numpy():
    if vector_backend.np is None:
        pytest.skip("numpy unavailable")


def _generation(seed, n=4, lengths=(0, 1, 30, 31, 173, 600), crash_first=True):
    """A seeded mixed-length generation; first non-empty row crashes at step 0."""
    rng = random.Random(seed)
    compileds = []
    for index, length in enumerate(lengths):
        steps = array("i", [rng.randrange(1, n + 1) for _ in range(length)])
        crash = {steps[0]: 0} if crash_first and index == 1 and length else {}
        compileds.append(CompiledSchedule(n=n, steps=steps, crash_steps=crash))
    return compileds


def _reference(prop, compileds, checkpoints):
    return [prop.screen(compiled, checkpoints) for compiled in compileds]


class TestDifferentialSweep:
    @pytest.mark.parametrize("name", sorted(available_properties()))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_auto_matches_reference_for_every_property(self, name, seed):
        prop = make_property(name, PARAMS)
        compileds = _generation(seed)
        expected = _reference(prop, compileds, 8)
        actual = screen_generation(prop, compileds, 8, backend="auto")
        assert actual == expected

    @pytest.mark.parametrize("name", COLUMN_PROPERTIES)
    @pytest.mark.parametrize("checkpoints", [1, 2, 7])
    def test_forced_vector_matches_reference(self, name, checkpoints):
        _needs_numpy()
        prop = make_property(name, PARAMS)
        compileds = _generation(17, lengths=(0, 3, 29, 64, 601))
        expected = _reference(prop, compileds, checkpoints)
        actual = screen_generation(prop, compileds, checkpoints, backend="vector")
        assert actual == expected
        assert last_screen_plan()["lane"] == "column"

    def test_generation_of_one(self):
        _needs_numpy()
        prop = make_property("k-anti-omega-convergence", PARAMS)
        compileds = _generation(5, lengths=(240,), crash_first=False)
        assert screen_generation(prop, compileds, 8, backend="vector") == _reference(
            prop, compileds, 8
        )
        assert last_screen_plan() == {"lane": "column", "reason": None, "batch": 1}

    def test_crash_at_step_zero_alone(self):
        _needs_numpy()
        prop = make_property("k-anti-omega-convergence", PARAMS)
        compiled = CompiledSchedule(
            n=4, steps=array("i", [1, 2, 3, 4] * 50), crash_steps={1: 0}
        )
        assert screen_generation(prop, [compiled], 4, backend="vector") == _reference(
            prop, [compiled], 4
        )

    def test_empty_generation(self):
        prop = make_property("k-anti-omega-convergence", PARAMS)
        assert screen_generation(prop, [], 8, backend="auto") == []

    def test_forced_python_takes_the_reference_lane(self):
        prop = make_property("k-anti-omega-convergence", PARAMS)
        compileds = _generation(4)
        assert screen_generation(prop, compileds, 8, backend="python") == _reference(
            prop, compileds, 8
        )
        assert last_screen_plan() == {
            "lane": "reference",
            "reason": "backend 'python' requested",
            "batch": len(compileds),
        }

    def test_unknown_backend_rejected(self):
        prop = make_property("k-anti-omega-convergence", PARAMS)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            screen_generation(prop, _generation(0), 8, backend="cuda")


class TestAutoFallback:
    def test_unlowerable_property_falls_back_loudly(self, caplog):
        """agreement-safety composes an unlowered automaton: loud reference lane."""
        backends_module._WARNED_FALLBACKS.clear()
        prop = make_property("agreement-safety", PARAMS)
        compileds = _generation(9, lengths=(0, 12, 90))
        with caplog.at_level(
            logging.WARNING, logger=backends_module._LOGGER.name
        ):
            actual = screen_generation(prop, compileds, 6, backend="auto")
        assert actual == _reference(prop, compileds, 6)
        plan = last_screen_plan()
        assert plan["lane"] == "reference" and plan["batch"] == 3
        assert plan["reason"]
        if vector_backend.np is not None:
            assert "AgreementSafetyProperty has no column screen" in plan["reason"]
            assert any(
                "falling back" in record.message for record in caplog.records
            )

    def test_forced_vector_raises_on_unlowerable_property(self):
        _needs_numpy()
        prop = make_property("agreement-safety", PARAMS)
        with pytest.raises(SimulationError, match="could not take the batch"):
            screen_generation(prop, _generation(9, lengths=(12,)), 6, backend="vector")

    def test_screen_override_falls_back_under_auto(self):
        """A property spelling its own screen() keeps it under the planner."""

        class Opinionated(ScheduleProperty):
            name = "opinionated"

            def __init__(self):
                self.calls = 0

            def screen(self, compiled, checkpoints):
                self.calls += 1
                return ScheduleProperty.screen(
                    make_property("k-anti-omega-convergence", PARAMS),
                    compiled,
                    checkpoints,
                )

            def _build_simulator(self):  # pragma: no cover - never reached
                raise AssertionError

            def judge_screen(self, snapshots, compiled):  # pragma: no cover
                raise AssertionError

            def confirm(self, compiled):  # pragma: no cover
                raise AssertionError

        prop = Opinionated()
        compileds = _generation(2, lengths=(10, 20))
        verdicts = screen_generation(prop, compileds, 4, backend="auto")
        assert prop.calls == 2 and len(verdicts) == 2
        assert last_screen_plan()["lane"] == "reference"
        with pytest.raises(SimulationError):
            screen_generation(prop, compileds, 4, backend="vector")


class TestEngineScreenCache:
    def test_hits_counted_on_rescreened_candidates(self):
        """Satellite 2: re-screening a generation is all cache hits, no lane work."""
        reset_screen_cache()
        prop = make_property("k-anti-omega-convergence", PARAMS)
        compileds = _generation(23, lengths=(40, 41, 42, 40))
        first = _screened_verdicts(prop, compileds, 8, "auto")
        stats = screen_cache_stats()
        assert stats["misses"] == 4 and stats["hits"] == 0
        second = _screened_verdicts(prop, compileds, 8, "auto")
        stats = screen_cache_stats()
        assert stats["hits"] == 4 and stats["misses"] == 4
        assert second == first == _reference(prop, compileds, 8)
        # A changed checkpoint count is a different cache identity.
        _screened_verdicts(prop, compileds, 4, "auto")
        assert screen_cache_stats()["misses"] == 8
        reset_screen_cache()
        assert screen_cache_stats() == {"hits": 0, "misses": 0}


class TestWithoutNumpy:
    @pytest.fixture(autouse=True)
    def _hide_numpy(self, monkeypatch):
        monkeypatch.setattr(vector_backend, "np", None)

    def test_auto_screens_on_the_reference_lane_and_vector_raises(self):
        prop = make_property("k-anti-omega-convergence", PARAMS)
        compileds = _generation(3)
        assert screen_generation(prop, compileds, 8, backend="auto") == _reference(
            prop, compileds, 8
        )
        plan = last_screen_plan()
        assert plan["lane"] == "reference" and "numpy" in plan["reason"]
        with pytest.raises(SimulationError, match="numpy"):
            screen_generation(prop, compileds, 8, backend="vector")

    def test_bench_defaults_skip_the_vector_lane(self):
        from repro.bench.trajectory import bench_kernel

        doc = bench_kernel(smoke=True, workloads=["bound-ops"])
        assert doc["screen"] is None
        assert "vector_screen_vs_reference_screen" not in doc["headline"]

    def test_regression_gate_skips_the_missing_vector_headline(self):
        from repro.bench.trajectory import compare_trajectories

        fresh_kernel = {"headline": {"batched_vs_fast_stream": 3.0}}
        baseline_kernel = {
            "headline": {
                "batched_vs_fast_stream": 3.0,
                "vector_screen_vs_reference_screen": 8.0,
            }
        }
        campaign = {"headline": {"batched_vs_stream": 1.0}, "payloads_identical": True}
        assert (
            compare_trajectories(fresh_kernel, campaign, baseline_kernel, campaign)
            == []
        )
