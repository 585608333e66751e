"""``execute_multi_batch``: per-replica schedules, masks and snapshots.

The multi-schedule sibling of the batch conformance suite.  The reference
routine must produce results identical to running each replica alone over its
own schedule — same outputs, step counts, halted sets and register arenas —
with per-replica crash masks applied to the replica's own buffer and
checkpointed snapshots equal to prefix runs.  The edge cases are here too: an
empty batch, a generation of one, mixed lengths, crash at step 0 and
per-replica budgets.  The planner rule :func:`plan_backend_for_classes`,
which now always picks the reference kernel, is pinned at the end.
"""

import random

import pytest
import test_backends
import test_batch
from repro.core.schedule import CompiledSchedule
from repro.errors import ConfigurationError, SimulationError
from repro.failure_detectors.base import FD_OUTPUT
from repro.runtime.backends import MultiBatchResult, plan_backend_for_classes
from repro.runtime.kernel import (
    FAST_TRACED,
    _filtered_buffer,
    execute_batch,
    execute_multi_batch,
)
from repro.scenarios.spec import build_generator

observable = test_backends.observable


def _own_schedules(rng, params, n, replicas, horizon):
    """One compiled schedule per replica: mixed lengths, one zero-length row."""
    compileds = []
    for index in range(replicas):
        if index == replicas - 1:
            compileds.append(CompiledSchedule(n=n, steps=[]))
            continue
        length = max(1, horizon // (index + 1))
        source = build_generator(dict(params, seed=rng.randint(0, 10_000)))
        compileds.append(source.compile(length))
    return compileds


def _paper_anti_omega(n=4, t=2, k=2, tracked=False):
    return test_backends._anti_omega_replica(
        n,
        t,
        k,
        test_backends.paper_accusation_statistic,
        test_backends.paper_timeout_policy,
        tracked=tracked,
    )[0]


def _prefix_outputs(n, steps, key=FD_OUTPUT):
    """Published ``key`` outputs of a fresh solo replica after ``steps``."""
    solo = _paper_anti_omega(n)
    execute_batch([solo], CompiledSchedule(n=n, steps=list(steps)))
    return {pid: {key: solo.output_of(pid, key)} for pid in range(1, n + 1)}


class TestMultiBatchConformance:
    @pytest.mark.parametrize("checkpoints", [None, 1, 7])
    def test_seeded_sweep_matches_solo_runs(self, checkpoints):
        """Per-replica schedules + masks: identical to one solo run per replica.

        Checkpointing splits each buffer into segments; the split must not
        change what the replica computes.
        """
        rng = random.Random(20260807)
        combos = 0
        while combos < 18:
            params, horizon = test_batch._random_combination(rng)
            n = build_generator(params).n
            if n < 3:
                continue
            kind = test_backends.SWEEP_KINDS[combos % len(test_backends.SWEEP_KINDS)]
            tracked = combos % 2 == 0
            replicas = 4
            compileds = _own_schedules(rng, params, n, replicas, horizon)
            masks = test_backends._random_masks(rng, replicas, n, horizon)
            ref = [
                test_backends._make_replicas(kind, rng, n, combos, tracked)
                for _ in range(replicas)
            ]
            new = [
                test_backends._make_replicas(kind, rng, n, combos, tracked)
                for _ in range(replicas)
            ]
            for index, (sim, _) in enumerate(ref):
                mask = [masks[index]] if masks is not None else None
                execute_batch([sim], compileds[index], crash_steps=mask)
            multi = execute_multi_batch(
                [sim for sim, _ in new],
                compileds,
                crash_steps=masks,
                checkpoints=checkpoints,
            )
            assert isinstance(multi, MultiBatchResult)
            if checkpoints is None:
                assert multi.snapshots is None
            else:
                assert [len(row) for row in multi.snapshots] == [checkpoints] * replicas
            context = f"combo {combos}: {kind} on {params!r} horizon={horizon}"
            for (rs, rt), (ns, nt), nr in zip(ref, new, multi.results):
                assert observable(rs) == observable(ns), context
                assert nr.steps_executed == rs._step_index, context
                if tracked:
                    assert rt.changes == nt.changes, context
            combos += 1

    @pytest.mark.parametrize("checkpoints", [1, 7, 700])
    def test_snapshots_identical_across_loops(self, checkpoints):
        """Observer-carrying replicas (general loop) snapshot like bare ones.

        700 checkpoints exceed most lengths, so zero-length segments repeat
        the previous snapshot on both loops.
        """
        rng = random.Random(7)
        n = 4
        lengths = [0, 1, 31, 173, 600, 601]
        compileds = [
            CompiledSchedule(
                n=n, steps=[rng.randrange(1, n + 1) for _ in range(length)]
            )
            for length in lengths
        ]

        def run(tracked):
            sims = [_paper_anti_omega(n, tracked=tracked) for _ in compileds]
            return execute_multi_batch(
                sims,
                compileds,
                checkpoints=checkpoints,
                snapshot_keys=(FD_OUTPUT,),
            )

        bare = run(tracked=False)
        general = run(tracked=True)
        assert general.snapshots == bare.snapshots
        assert [r.outputs for r in general.results] == [
            r.outputs for r in bare.results
        ]
        assert [r.steps_executed for r in general.results] == lengths
        assert all(len(row) == checkpoints for row in general.snapshots)

    def test_snapshot_boundaries_match_prefix_runs(self):
        """Reference-lane snapshot ``i`` equals the outputs after (L*i)//cp steps."""
        rng = random.Random(3)
        n, t, k = 4, 2, 2
        length, checkpoints = 173, 5
        compiled = CompiledSchedule(
            n=n, steps=[rng.randrange(1, n + 1) for _ in range(length)]
        )

        def fresh():
            return test_backends._anti_omega_replica(
                n,
                t,
                k,
                test_backends.paper_accusation_statistic,
                test_backends.paper_timeout_policy,
                tracked=False,
            )[0]

        multi = execute_multi_batch(
            [fresh()],
            [compiled],
            checkpoints=checkpoints,
            snapshot_keys=(FD_OUTPUT,),
        )
        for index in range(1, checkpoints + 1):
            bound = (length * index) // checkpoints
            solo = fresh()
            prefix = CompiledSchedule(n=n, steps=compiled.steps[:bound])
            execute_batch([solo], prefix)
            expected = {
                pid: {FD_OUTPUT: solo.output_of(pid, FD_OUTPUT)}
                for pid in range(1, n + 1)
            }
            assert multi.snapshots[0][index - 1] == expected


class TestMultiBatchEdgeCases:
    def _replica(self, n=3):
        return test_batch._fresh(n, test_batch.ALGORITHMS["token"], tracked=False)[0]

    def test_empty_batch(self):
        result = execute_multi_batch([], [])
        assert result.results == [] and result.snapshots is None
        with_snapshots = execute_multi_batch([], [], checkpoints=3)
        assert with_snapshots.snapshots == []

    @pytest.mark.parametrize("checkpoints", [None, 4])
    def test_generation_of_one(self, checkpoints):
        compiled = build_generator({"schedule": "round-robin", "n": 3}).compile(30)
        solo = self._replica()
        execute_batch([solo], compiled)
        fresh = self._replica()
        multi = execute_multi_batch([fresh], [compiled], checkpoints=checkpoints)
        assert len(multi.results) == 1
        assert multi.results[0].steps_executed == 30
        assert observable(solo) == observable(fresh)

    @pytest.mark.parametrize("checkpoints", [None, 4])
    def test_crash_at_step_zero(self, checkpoints):
        compiled = build_generator({"schedule": "round-robin", "n": 3}).compile(30)
        masks = [{1: 0}]
        solo = self._replica()
        execute_batch([solo], compiled, crash_steps=masks)
        fresh = self._replica()
        multi = execute_multi_batch(
            [fresh], [compiled], crash_steps=masks, checkpoints=checkpoints
        )
        assert observable(solo) == observable(fresh)
        assert multi.results[0].steps_executed < 30

    @pytest.mark.parametrize("checkpoints", [None, 4])
    def test_max_steps_budgets_each_replica(self, checkpoints):
        compileds = [
            build_generator({"schedule": "round-robin", "n": 3}).compile(50),
            build_generator({"schedule": "round-robin", "n": 3}).compile(10),
        ]
        multi = execute_multi_batch(
            [self._replica(), self._replica()],
            compileds,
            max_steps=20,
            checkpoints=checkpoints,
        )
        assert [r.steps_executed for r in multi.results] == [20, 10]

    def test_checkpoints_split_the_budgeted_buffer(self):
        """With ``max_steps``, segment bounds are over the budgeted length."""
        rng = random.Random(11)
        n, budget, checkpoints = 4, 50, 5
        steps = [rng.randrange(1, n + 1) for _ in range(173)]
        multi = execute_multi_batch(
            [_paper_anti_omega(n)],
            [CompiledSchedule(n=n, steps=steps)],
            max_steps=budget,
            checkpoints=checkpoints,
            snapshot_keys=(FD_OUTPUT,),
        )
        assert multi.results[0].steps_executed == budget
        for index in range(1, checkpoints + 1):
            bound = (budget * index) // checkpoints
            assert multi.snapshots[0][index - 1] == _prefix_outputs(n, steps[:bound])

    def test_checkpoints_split_the_post_mask_buffer(self):
        """With a crash mask, segment bounds are over the surviving steps."""
        rng = random.Random(13)
        n, checkpoints = 4, 6
        steps = [rng.randrange(1, n + 1) for _ in range(240)]
        mask = {2: 40, 4: 100}
        effective = list(_filtered_buffer(steps, len(steps), mask))
        assert len(effective) < len(steps)
        multi = execute_multi_batch(
            [_paper_anti_omega(n)],
            [CompiledSchedule(n=n, steps=steps)],
            crash_steps=[mask],
            checkpoints=checkpoints,
            snapshot_keys=(FD_OUTPUT,),
        )
        assert multi.results[0].steps_executed == len(effective)
        for index in range(1, checkpoints + 1):
            bound = (len(effective) * index) // checkpoints
            expected = _prefix_outputs(n, effective[:bound])
            assert multi.snapshots[0][index - 1] == expected

    def test_snapshot_keys_select_published_outputs(self):
        """Snapshots sample exactly the requested keys, for every process."""
        compiled = CompiledSchedule(n=4, steps=[1, 2, 3, 4] * 20)
        keyed = execute_multi_batch(
            [_paper_anti_omega()],
            [compiled],
            checkpoints=2,
            snapshot_keys=(FD_OUTPUT,),
        )
        bare = execute_multi_batch([_paper_anti_omega()], [compiled], checkpoints=2)
        for snapshot in keyed.snapshots[0]:
            assert sorted(snapshot) == [1, 2, 3, 4]
            assert all(set(row) == {FD_OUTPUT} for row in snapshot.values())
        assert bare.snapshots == [[{pid: {} for pid in range(1, 5)}] * 2]

    def test_mismatched_counts_rejected(self):
        with pytest.raises(SimulationError, match="exactly one schedule per replica"):
            execute_multi_batch([self._replica()], [])

    def test_trace_policies_rejected(self):
        with pytest.raises(SimulationError, match="trace"):
            execute_multi_batch(
                [self._replica()],
                [build_generator({"schedule": "round-robin", "n": 3}).compile(10)],
                policy=FAST_TRACED,
            )

    def test_bad_checkpoints_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpoints"):
            execute_multi_batch(
                [self._replica()],
                [build_generator({"schedule": "round-robin", "n": 3}).compile(10)],
                checkpoints=0,
            )

    def test_mixed_n_rejected(self):
        with pytest.raises(SimulationError, match="one"):
            execute_multi_batch(
                [self._replica(3), self._replica(4)],
                [
                    build_generator({"schedule": "round-robin", "n": 3}).compile(10),
                    build_generator({"schedule": "round-robin", "n": 4}).compile(10),
                ],
            )


class TestAutoPlanner:
    def test_unlowerable_batch_plans_python_with_reason(self):
        class Opaque:
            pass

        chosen, reason = plan_backend_for_classes({Opaque})
        assert chosen == "python"
        assert reason
