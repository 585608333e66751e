"""Self-tests of the benchmark harness, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _run_cli(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_harness_workloads():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}


def test_one_command_runs_every_workload():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seconds", "0",
         "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    results = [json.loads(line) for line in completed.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(NAMES) and all(result["correct"] for result in results)
    for name in NAMES:
        assert f"\n{name} (seed 0," in completed.stdout


def _corrupt(digest) -> None:
    if isinstance(digest, dict):  # a search report
        digest["candidates"][0][2] = -1.0
    elif "satisfied" in digest[0]:  # an E2 detector row
        digest[0]["satisfied"] = False
    else:
        key = sorted(digest[0])[0]
        digest[0][key] = "corrupted"


@pytest.mark.parametrize("workload", NAMES)
def test_a_corrupted_payload_makes_the_failed_ratio_positive(workload, tmp_path, monkeypatch):
    chosen = workloads.WORKLOADS[workload]
    real_pass = chosen.run_pass

    def corrupted_pass(inputs, passdir):
        result = real_pass(inputs, passdir)
        _corrupt(result.digest)
        return result

    monkeypatch.setattr(chosen, "run_pass", corrupted_pass)
    args = argparse.Namespace(
        workload=workload, seed=3, seconds=0, trace=0, scale="tiny", workdir=str(tmp_path / "w")
    )
    outcome = bench.run(args)
    assert not outcome["correct"]
    assert 0 < outcome["failed"] <= outcome["attempted"]


@pytest.mark.parametrize("at_share, fails", [(0.5, True), (0.95, False)])
def test_an_unconverged_e2_row_fails_unless_its_last_change_is_in_the_tail(
        at_share, fails, tmp_path, monkeypatch):
    chosen = workloads.WORKLOADS["campaign-e2-seeds"]
    real_pass = chosen.run_pass

    def unconverged_pass(inputs, passdir):
        result = real_pass(inputs, passdir)
        result.digest[0].update(winner_set=None, winner_contains_correct=False,
                                last_winner_change=int(at_share * result.extra["horizons"][0]))
        return result

    monkeypatch.setattr(chosen, "run_pass", unconverged_pass)
    args = argparse.Namespace(workload="campaign-e2-seeds", seed=3, seconds=0, trace=0,
                              scale="tiny", workdir=str(tmp_path / "w"))
    outcome = bench.run(args)
    assert outcome["correct"] is not fails
    assert (outcome["failed"] > 0) is fails


def test_theorem23_verdicts_of_the_cases_no_pass_produces():
    verdict = workloads.theorem23_verdict
    row = {"satisfied": True, "winner_set": [1, 2], "winner_contains_correct": True,
           "last_winner_change": 10}
    assert verdict(row, 100) == "ok"
    assert verdict(dict(row, winner_contains_correct=False), 100) == "failed"
    unconverged = dict(row, winner_set=None, winner_contains_correct=False)
    assert verdict(dict(unconverged, last_winner_change=None), 100) == "failed"


def test_queue_workers_report_their_own_peak_rss(tmp_path):
    chosen = workloads.WORKLOADS["queue-e12"]
    inputs = chosen.build(3, "tiny", tmp_path)
    result = chosen.run_pass(inputs, workloads.fresh_dir(tmp_path / "pass"))
    peaks = result.extra["worker_peak_rss_kb"]
    assert len(peaks) >= chosen.workers and all(peak > 0 for peak in peaks)
    from repro.campaign import queue

    assert queue._worker_entry.__module__ == "repro.campaign.queue"
    assert bench.peak_rss_mb([result]) > sum(peaks) / 1024.0


def test_a_run_makes_at_least_the_minimum_passes(tmp_path, monkeypatch):
    chosen = workloads.WORKLOADS["campaign-e2-seeds"]
    real_pass = chosen.run_pass
    passes = []

    def counted_pass(inputs, passdir):
        passes.append(passdir)
        return real_pass(inputs, passdir)

    monkeypatch.setattr(chosen, "run_pass", counted_pass)
    args = argparse.Namespace(workload="campaign-e2-seeds", seed=3, seconds=0, trace=0,
                              scale="tiny", workdir=str(tmp_path / "w"))
    assert bench.run(args)["correct"]
    assert len(passes) == chosen.min_passes >= 2


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_passes_return_identical_results(workload, tmp_path):
    chosen = workloads.WORKLOADS[workload]
    inputs = chosen.build(3, "tiny", tmp_path)
    plain = chosen.run_pass(inputs, workloads.fresh_dir(tmp_path / "plain"))
    traced, spans = bench.traced_pass(chosen, inputs, workloads.fresh_dir(tmp_path / "traced"))
    assert traced.digest == plain.digest
    wall, table, unattributed = layertrace.layer_table(spans)
    assert unattributed < 0.1 * wall
    if workload == "queue-e12":
        assert any(span.sid[0] != os.getpid() for span in spans), "worker spans missing"
    from repro.core import timeliness
    from repro.search import engine

    assert not hasattr(timeliness.analyze_timeliness, "__traced_original__")
    assert not hasattr(engine.realize, "__traced_original__")


def test_self_time_subtracts_the_union_of_overlapping_children():
    Span = layertrace.Span
    root = Span((1, 1), None, "", "pass", 0.0, 10.0, None)
    first = Span((2, 1), (1, 1), "kernel", "execute", 1.0, 5.0, {"steps": 1})
    second = Span((3, 1), (1, 1), "kernel", "execute", 3.0, 7.0, {"steps": 1})
    nested = Span((2, 2), (2, 1), "schedules", "compiled_schedule_for", 2.0, 3.0, {"steps": 1})
    wall, table, unattributed = layertrace.layer_table([root, first, second, nested])
    assert wall == 10.0
    assert unattributed == pytest.approx(4.0)
    assert table["kernel"] == (2, pytest.approx(7.0))
    assert table["schedules"] == (1, pytest.approx(1.0))


def test_percentile_line_needs_ten_samples_beyond_the_percentile():
    assert "no percentile" in bench.percentile_line([1.0] * 10)
    assert "p9 1.0000 (n=11)" in bench.percentile_line([float(i) for i in range(1, 12)])


def test_the_host_sampler_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.sample_host_speed() as samples:
        deadline = time.perf_counter() + 10 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(samples) >= 5 and all(sample > 0 for sample in samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    factor = hostspeed.host_factor(samples)
    assert bench.normalised([2.0 * factor], [factor]) == [pytest.approx(2.0)]
