"""The sim-free anti-Ω screen kernel against reference checkpoint snapshots.

:func:`~repro.runtime.vector_backend.anti_omega_screen_snapshots` must
return, for every candidate, exactly the snapshots
:func:`~repro.runtime.kernel.execute_multi_batch` collects from a simulator
running the Figure 2 automata over the same schedule.  The search screens
only ever call it with the paper's statistic and timeout policy at one
(n, t, k); this suite pins the kernel directly over every registry
statistic and policy it accepts, system shapes from n=2 to n=6, the
structured schedules of the scenario families (long solo runs, starved and
crashed processes), key selections, and its refusal paths.
"""

import random
from array import array

import pytest

from repro.core.schedule import CompiledSchedule
from repro.errors import ConfigurationError
from repro.failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    make_anti_omega_algorithm,
    paper_accusation_statistic,
    paper_timeout_policy,
)
from repro.failure_detectors.base import FD_OUTPUT, WINNER_SET
from repro.memory.registers import RegisterFile
from repro.runtime import vector_backend
from repro.runtime.kernel import execute_multi_batch
from repro.runtime.simulator import Simulator
from repro.runtime.vector_backend import UnsupportedLowering, anti_omega_screen_snapshots
from repro.scenarios.spec import build_generator

from test_backends import POLICIES, STATISTICS

pytestmark = pytest.mark.skipif(vector_backend.np is None, reason="numpy unavailable")

KEYS = (FD_OUTPUT, WINNER_SET)


def _generation(seed, n, lengths=(0, 1, 60, 300, 900, 2000), burst=20):
    """Seeded candidates built from solo bursts of up to ``burst`` steps.

    Bursts starve the other processes, so timers expire and accusations
    accumulate: on uniformly random schedules every registry statistic and
    timeout policy publishes the same outputs, and a wrong lowering would
    go unnoticed.
    """
    rng = random.Random(seed)
    compileds = []
    for length in lengths:
        steps = []
        while len(steps) < length:
            steps += [rng.randrange(1, n + 1)] * rng.randint(1, burst)
        compileds.append(CompiledSchedule(n=n, steps=array("i", steps[:length])))
    return compileds


def _reference(n, t, k, compileds, checkpoints, keys, statistic, policy):
    sims = []
    for _ in compileds:
        registers = RegisterFile()
        KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
        automata = make_anti_omega_algorithm(
            n=n, t=t, k=k, accusation_statistic=statistic, timeout_policy=policy
        )
        sims.append(Simulator(n=n, automata=automata, registers=registers))
    result = execute_multi_batch(
        sims, compileds, checkpoints=checkpoints, snapshot_keys=keys
    )
    return result.snapshots


def _assert_matches(n, t, k, compileds, checkpoints, keys=KEYS,
                    statistic=paper_accusation_statistic, policy=paper_timeout_policy):
    actual = anti_omega_screen_snapshots(
        n, t, k, compileds, checkpoints, keys,
        accusation_statistic=statistic, timeout_policy=policy,
    )
    expected = _reference(n, t, k, compileds, checkpoints, keys, statistic, policy)
    assert actual == expected


@pytest.mark.parametrize("statistic", STATISTICS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("policy", POLICIES, ids=lambda fn: fn.__name__)
def test_every_registry_statistic_and_policy(statistic, policy):
    # On this generation every two statistics (and every two policies)
    # publish different snapshots, so each lowering-table entry is pinned.
    _assert_matches(4, 2, 2, _generation(1, 4), 16, statistic=statistic, policy=policy)


@pytest.mark.parametrize(
    "n,t,k",
    [(2, 1, 1), (3, 1, 1), (3, 2, 2), (4, 1, 3), (4, 3, 1), (5, 2, 2),
     (5, 4, 1), (5, 1, 4), (6, 2, 3)],
)
def test_system_shapes(n, t, k):
    _assert_matches(n, t, k, _generation(n * 100 + t * 10 + k, n), 5)


FAMILIES = {
    "round-robin": {},
    "set-timely": {"p_set": [1, 2], "q_set": [1, 2, 3], "bound": 3, "crashes": [4]},
    "eventually-synchronous": {},
    "carrier-rotation": {"carriers": [1, 3]},
    "crash-churn": {"period": 24, "outage": 10, "churn": 1},
    "alternating-epochs": {"sync_epoch": 8, "async_epoch": 30, "epoch_growth": 3},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scenario_family_schedules(family):
    compileds = [
        build_generator(
            dict(FAMILIES[family], schedule=family, n=4, seed=seed)
        ).compile(length)
        for seed, length in ((0, 900), (1, 333), (2, 64))
    ]
    _assert_matches(4, 2, 2, compileds, 9)


@pytest.mark.parametrize("keys", [(FD_OUTPUT,), (WINNER_SET,), KEYS])
def test_key_selection(keys):
    _assert_matches(4, 2, 2, _generation(8, 4), 8, keys=keys)


def test_empty_generation():
    assert anti_omega_screen_snapshots(4, 2, 2, [], 8, KEYS) == []


def test_custom_statistic_is_refused():
    with pytest.raises(UnsupportedLowering, match="no vector lowering"):
        anti_omega_screen_snapshots(
            4, 2, 2, _generation(1, 4), 8, KEYS,
            accusation_statistic=lambda counters, t: 0,
        )


def test_untracked_key_is_refused():
    with pytest.raises(UnsupportedLowering, match="leader"):
        anti_omega_screen_snapshots(4, 2, 2, _generation(1, 4), 8, ("leader",))


def test_candidate_over_another_universe_is_refused():
    compileds = _generation(1, 4) + _generation(2, 3, lengths=(10,))
    with pytest.raises(UnsupportedLowering, match="3 processes"):
        anti_omega_screen_snapshots(4, 2, 2, compileds, 8, KEYS)


def test_non_positive_checkpoints_rejected():
    with pytest.raises(ConfigurationError, match="checkpoints"):
        anti_omega_screen_snapshots(4, 2, 2, _generation(1, 4), 0, KEYS)
