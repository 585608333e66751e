"""Shared replica builders for the batch suites, and ``execute_batch`` oracles.

The builders below (:func:`observable`, :func:`_make_replicas`,
:func:`_random_masks`, :data:`SWEEP_KINDS`, ...) construct seeded replicas of
the paper automata (anti-Ω under every registry statistic and timeout
policy, trivial k-set agreement, idle churn) and of the generator-driven
programs from the batch suite; ``test_multi_batch.py`` imports them.

The tests pin :func:`~repro.runtime.kernel.execute_batch`'s per-replica
crash masks against an independent oracle — each replica run alone over the
schedule with its masked steps deleted by hand — and the campaign layer's
``backend`` param, which now only accepts the reference kernel.
"""

import random

import pytest

import test_batch
from repro.agreement.kset import DECISION
from repro.agreement.trivial import TrivialKSetAgreementAutomaton
from repro.core.schedule import CompiledSchedule
from repro.errors import ConfigurationError, SimulationError
from repro.failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    constant_timeout_policy,
    doubling_timeout_policy,
    make_anti_omega_algorithm,
    max_accusation_statistic,
    median_accusation_statistic,
    min_accusation_statistic,
    paper_accusation_statistic,
    paper_timeout_policy,
)
from repro.failure_detectors.base import FD_OUTPUT
from repro.memory.registers import RegisterFile
from repro.runtime.automaton import IdleAutomaton
from repro.runtime.kernel import FAST, FAST_TRACED, execute, execute_batch
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator
from repro.scenarios.spec import build_generator

STATISTICS = [
    paper_accusation_statistic,
    min_accusation_statistic,
    max_accusation_statistic,
    median_accusation_statistic,
]
POLICIES = [paper_timeout_policy, doubling_timeout_policy, constant_timeout_policy]


def observable(sim):
    """Everything a batch run may not change, in one comparable value."""
    arena = sim.registers.arena_view()
    return (
        tuple(dict(sim._states[p].automaton.outputs) for p in range(1, sim.n + 1)),
        tuple(sim._states[p].steps_taken for p in range(1, sim.n + 1)),
        sim.halted_processes(),
        sim._step_index,
        list(arena.values),
        list(arena.read_counts),
        list(arena.write_counts),
    )


def result_view(result):
    return (
        result.outputs,
        result.steps_executed,
        result.stopped_early,
        result.halted_processes,
        result.executed_schedule.steps,
    )


# ----------------------------------------------------------------------
# Replica builders (shared with test_multi_batch.py)
# ----------------------------------------------------------------------

def _anti_omega_replica(n, t, k, statistic, policy, tracked):
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    automata = make_anti_omega_algorithm(
        n=n, t=t, k=k, accusation_statistic=statistic, timeout_policy=policy
    )
    sim = Simulator(n=n, automata=automata, registers=registers)
    tracker = None
    if tracked:
        tracker = OutputTracker(key=FD_OUTPUT)
        sim.add_observer(tracker)
    return sim, tracker


def _trivial_replica(n, t, k, base, tracked, strict=False):
    automata = {
        pid: TrivialKSetAgreementAutomaton(pid, n, t=t, k=k, input_value=base + pid)
        for pid in range(1, n + 1)
    }
    sim = Simulator(n=n, automata=automata, strict=strict)
    tracker = None
    if tracked:
        tracker = OutputTracker(key=DECISION)
        sim.add_observer(tracker)
    return sim, tracker


def _idle_replica(n, tracked):
    automata = {pid: IdleAutomaton(pid, n) for pid in range(1, n + 1)}
    sim = Simulator(n=n, automata=automata)
    tracker = None
    if tracked:
        tracker = OutputTracker(key=DECISION)
        sim.add_observer(tracker)
    return sim, tracker


def _fallback_replica(program, n, tracked):
    return test_batch._fresh(n, program, tracked=tracked)


def _random_masks(rng, replicas, n, horizon):
    """Per-replica crash masks: None, crash-at-0 and mid-run crashes mixed."""
    masks = []
    for _ in range(replicas):
        if rng.random() < 0.4:
            masks.append(None)
        else:
            crashed = rng.sample(range(1, n + 1), rng.randint(1, max(1, n - 1)))
            masks.append({pid: rng.randint(0, horizon) for pid in crashed})
    if all(mask is None for mask in masks):
        return None
    return masks


def _make_replicas(kind, rng, n, combo_seed, tracked):
    """Build one replica (simulator, tracker) for ``kind``; deterministic per combo."""
    if kind == "anti-omega":
        t = 1 + combo_seed % (n - 1)
        k = 1 + (combo_seed // 3) % (n - 1)
        statistic = STATISTICS[combo_seed % len(STATISTICS)]
        policy = POLICIES[combo_seed % len(POLICIES)]
        return _anti_omega_replica(n, t, k, statistic, policy, tracked)
    if kind == "trivial":
        t = 1 + combo_seed % (n - 1)
        k = t + 1 + (combo_seed // 5) % (n - t)
        return _trivial_replica(n, t, k, base=100 * combo_seed, tracked=tracked)
    if kind == "idle":
        return _idle_replica(n, tracked)
    return _fallback_replica(test_batch.ALGORITHMS[kind], n, tracked)


SWEEP_KINDS = [
    "anti-omega",
    "trivial",
    "idle",
    "token",
    "halting",
    "owned-counter",
]


# ----------------------------------------------------------------------
# execute_batch crash masks against a hand-filtered solo run
# ----------------------------------------------------------------------

def _surviving_steps(steps, budget, mask):
    """The oracle: the budgeted steps a masked replica still takes."""
    kept = []
    for index, pid in enumerate(list(steps)[:budget]):
        if mask is None or index < mask.get(pid, budget):
            kept.append(pid)
    return kept


class TestCrashMaskOracle:
    def test_seeded_sweep_matches_solo_runs_over_surviving_steps(self):
        """54 seeded combos: a masked batch replica equals a solo masked-out run.

        Every combo mixes unmasked, crash-at-0 and mid-run masks across the
        batch, alternates tracked and bare replicas (general vs. bare loop)
        and, every third combo, budgets the buffer below its length.
        """
        rng = random.Random(20260807)
        combos = 0
        while combos < 54:
            params, horizon = test_batch._random_combination(rng)
            n = build_generator(params).n
            if n < 3:
                continue
            kind = SWEEP_KINDS[combos % len(SWEEP_KINDS)]
            tracked = combos % 2 == 0
            policy = FAST_TRACED if combos % 9 == 4 else FAST
            compiled = build_generator(params).compile(horizon)
            budget = horizon // 2 if combos % 3 == 0 else horizon
            replicas = 3
            masks = _random_masks(rng, replicas, n, horizon)
            batch = [_make_replicas(kind, rng, n, combos, tracked) for _ in range(replicas)]
            solo = [_make_replicas(kind, rng, n, combos, tracked) for _ in range(replicas)]
            results = execute_batch(
                [s for s, _ in batch],
                compiled,
                max_steps=budget,
                policy=policy,
                crash_steps=masks,
            )
            context = f"combo {combos}: {kind} on {params!r} horizon={horizon}"
            for index, ((bs, bt), (ss, st), result) in enumerate(
                zip(batch, solo, results)
            ):
                mask = masks[index] if masks is not None else None
                surviving = _surviving_steps(compiled.steps, budget, mask)
                expected = execute(ss, CompiledSchedule(n=n, steps=surviving), policy=policy)
                assert observable(bs) == observable(ss), context
                assert result_view(result) == result_view(expected), context
                if tracked:
                    assert bt.changes == st.changes, context
            combos += 1

    def test_zero_length_schedule_executes_nothing(self):
        compiled = CompiledSchedule(n=4, steps=[])
        sims = [_make_replicas("anti-omega", None, 4, 0, False)[0] for _ in range(2)]
        fresh = observable(_make_replicas("anti-omega", None, 4, 0, False)[0])
        results = execute_batch(sims, compiled, crash_steps=[None, {1: 0}])
        assert [r.steps_executed for r in results] == [0, 0]
        assert [observable(sim) for sim in sims] == [fresh, fresh]

    def test_crash_at_step_zero_deletes_every_step_of_the_process(self):
        compiled = CompiledSchedule(n=4, steps=[1, 2, 3, 4] * 50)
        sims = [_make_replicas("anti-omega", None, 4, 0, False)[0] for _ in range(2)]
        results = execute_batch(
            sims, compiled, crash_steps=[{1: 0}, {1: 0, 2: 0, 3: 0, 4: 0}]
        )
        solo = _make_replicas("anti-omega", None, 4, 0, False)[0]
        execute(solo, CompiledSchedule(n=4, steps=[2, 3, 4] * 50), policy=FAST)
        assert results[0].steps_executed == 150 and results[1].steps_executed == 0
        assert observable(sims[0]) == observable(solo)
        assert sims[0].steps_taken(1) == 0

    def test_crash_step_beyond_the_budget_is_inert(self):
        compiled = CompiledSchedule(n=4, steps=[1, 2, 3, 4] * 50)
        masked, plain = (_make_replicas("idle", None, 4, 0, False)[0] for _ in range(2))
        execute_batch([masked], compiled, max_steps=120, crash_steps=[{2: 120}])
        execute_batch([plain], compiled, max_steps=120)
        assert observable(masked) == observable(plain)

    @pytest.mark.parametrize(
        "masks, match",
        [
            ([None], "1 mask"),
            ([None, {5: 3}], "unknown process id 5"),
            ([None, {2: -1}], "step index >= 0"),
        ],
    )
    def test_malformed_masks_rejected_before_running(self, masks, match):
        sims = [_make_replicas("idle", None, 4, 0, False)[0] for _ in range(2)]
        fresh = observable(_make_replicas("idle", None, 4, 0, False)[0])
        with pytest.raises(SimulationError, match=match):
            execute_batch(sims, CompiledSchedule(n=4, steps=[1, 2] * 5), crash_steps=masks)
        assert [observable(sim) for sim in sims] == [fresh, fresh]

    def test_strict_mode_halted_step_raises_like_the_instrumented_run(self):
        """The bare counted batch loop enforces strict mode like ``Simulator.run``."""

        def build():
            automata = {
                pid: TrivialKSetAgreementAutomaton(pid, 3, t=1, k=2, input_value=pid)
                for pid in range(1, 4)
            }
            return Simulator(n=3, automata=automata, strict=True)

        compiled = CompiledSchedule(n=3, steps=[1, 2, 3] * 100)
        with pytest.raises(SimulationError) as batched:
            execute_batch([build()], compiled)
        with pytest.raises(SimulationError) as instrumented:
            build().run(compiled)
        assert str(batched.value) == str(instrumented.value)
        assert "was scheduled after its program returned" in str(batched.value)


# ----------------------------------------------------------------------
# Campaign integration: the backend param accepts the reference kernel only
# ----------------------------------------------------------------------

DETECTOR_PARAMS = {
    "family": "set-timely",
    "n": 4,
    "p_set": [1],
    "q_set": [1, 2, 3],
    "bound": 3,
    "seed": 9,
    "crashes": [4],
    "t": 2,
    "k": 2,
    "horizon": 2000,
}


class TestCampaignBackendParameter:
    def test_backend_is_a_measurement_key_not_a_schedule_key(self):
        from repro.campaign.runner import schedule_signature

        base = {"family": "set-timely", "n": 4, "seed": 3, "t": 2, "k": 2}
        assert schedule_signature(base) == schedule_signature(
            dict(base, backend="python")
        )

    def test_removed_backend_values_are_rejected_loudly(self):
        """``auto``/``vector`` selected the deleted column lane: a clear error."""
        from repro.campaign.runner import run_detector_kind, run_separation_probe_kind

        assert run_detector_kind(dict(DETECTOR_PARAMS)) == run_detector_kind(
            dict(DETECTOR_PARAMS, backend="python")
        )
        for kind in (run_detector_kind, run_separation_probe_kind):
            for value in ("vector", "auto"):
                with pytest.raises(ConfigurationError, match="no longer supported"):
                    kind(dict(DETECTOR_PARAMS, backend=value))

    def test_rejection_surfaces_through_the_campaign_engine(self, tmp_path):
        """A spec naming the removed lane fails the campaign, caching nothing."""
        from repro.campaign import CampaignEngine, CampaignSpec, ResultCache

        params = {key: value for key, value in DETECTOR_PARAMS.items() if key != "family"}
        spec = CampaignSpec(
            name="removed-lane",
            kind="detector",
            runs=[dict(params, schedule="set-timely", backend="vector")],
        )
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ConfigurationError, match="no longer supported"):
            CampaignEngine(cache=cache).run(spec)
        assert not any((tmp_path / "cache").rglob("*.json"))
