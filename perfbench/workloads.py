"""The four benchmark workloads, driven through the public library API.

Each workload is split the way the benchmark measures it:

``build(seed, scale, workdir)``
    The inputs (configs, specs, an empty queue database) — what ``setup_s``
    times in a fresh interpreter.
``run_pass(inputs, passdir)``
    One timed pass, exactly as the CLI runs it: module-level result caches
    are emptied first, so every pass pays what a fresh ``repro`` invocation
    pays.  Returns a :class:`PassResult`.
``check(inputs, results, workdir)``
    The correctness checks, run outside the timed passes; returns the number
    of failed operations with a note per failure.
``min_passes``
    The fewest timed passes one run makes, whatever ``--seconds`` is: two, so
    that a run's median is never a single pass, except on ``search-anti-omega``
    (below).

``scale="tiny"`` shrinks every input so the harness self-tests run in
seconds; the benchmark itself always runs ``scale="full"``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import sqlite3
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

#: Where the search workloads keep their ``python``-lane reference reports.
REFERENCE_DIR = Path(__file__).resolve().parent / ".work" / "references"


@dataclass
class PassResult:
    """What one pass produced, plus what the end-to-end metrics need."""

    wall_s: float
    ops: int
    op_seconds: float
    digest: Any
    extra: Dict[str, Any] = field(default_factory=dict)


def _clear_result_caches() -> None:
    """Empty the process-wide memos a fresh CLI invocation starts without."""
    from repro.campaign import runner
    from repro.search.engine import reset_screen_cache

    reset_screen_cache()
    runner._COMPILED_MEMO.clear()


def derived_seeds(label: str, seed: int, count: int) -> List[int]:
    """``count`` distinct grid seeds derived from the benchmark seed."""
    return random.Random(f"{label}:{seed}").sample(range(1, 1_000_000), count)


# ----------------------------------------------------------------------
# E11 searches
# ----------------------------------------------------------------------

#: The seed of every search pass: the default ``repro search``.
SEARCH_SEED = 0

def _search_config(prop: str, seed: int, scale: str):
    from repro.search.engine import SearchConfig

    if scale == "tiny":
        return SearchConfig(
            property=prop, seed=seed, generations=2, population=4, elites=2,
            horizon=600, checkpoints=4, top=1, shrink_max_evaluations=12, eval_chunk=4,
        )
    return SearchConfig(property=prop, seed=seed)


def search_digest(report) -> Dict[str, Any]:
    """Everything a search report establishes, minus its timings."""
    generations = []
    for stats in report.generations:
        row = dict(vars(stats))
        row.pop("elapsed")
        generations.append(row)
    return {
        "candidates": [
            [c.generation, c.signature, c.fitness, c.screen_violated, c.screen_details,
             c.confirmed_violated, c.confirmed_details, c.certificate]
            for c in report.candidates
        ],
        "generations": generations,
        "findings": [
            [f.kind, f.generation, f.original_length, f.shrunk_length, f.evaluations,
             f.removed_crashes, list(f.schedule.steps), sorted(f.schedule.crash_steps.items()),
             f.certificate.to_payload(), f.confirm_details, f.fitness]
            for f in report.findings
        ],
        "in_model_violations": report.in_model_violation_count(),
    }


def _normalized(value: Any) -> Any:
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def _source_digest() -> str:
    """A hash of every file of the ``repro`` package and the interpreter."""
    import repro

    package = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256(sys.version.encode())
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def python_lane_reference(config) -> Dict[str, Any]:
    """The digest of the ``backend="python"`` report of ``config``.

    The reference is a pure function of the sources and the config, so it is
    stored under a key of both and computed once per checkout: the default
    search's ``python`` lane alone takes 16-30 s, which would otherwise be
    paid by every run.  A change to any file of ``repro`` changes the key.
    """
    from repro.search.engine import run_search

    reference = replace(config, backend="python")
    key = hashlib.sha256((_source_digest() + repr(reference)).encode()).hexdigest()
    path = REFERENCE_DIR / f"{key}.json"
    if path.is_file():
        return json.loads(path.read_text())
    _clear_result_caches()
    digest = _normalized(search_digest(run_search(reference)))
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(digest))
    os.replace(partial, path)
    return digest


class SearchWorkload:
    """``run_search(SearchConfig(property=...))`` on the inline engine."""

    def __init__(self, name: str, prop: str, min_passes: int) -> None:
        self.name = name
        self.prop = prop
        self.min_passes = min_passes

    def build(self, seed: int, scale: str, workdir: Path):
        # The benchmark seed is deliberately not the search seed: one search's
        # cost depends on its seed (22-35 s across seeds 1-5 on 2 CPUs), and
        # the E11 headline is the default seed-0 search, whose in-model
        # finding must stay visible in every run.
        import repro.search.engine  # noqa: F401  (the search stack)

        return _search_config(self.prop, SEARCH_SEED, scale)

    def run_pass(self, config, passdir: Path) -> PassResult:
        from repro.search.engine import run_search, search_report_lines

        _clear_result_caches()
        started = time.perf_counter()
        report = run_search(config)
        search_report_lines(report)
        wall = time.perf_counter() - started
        return PassResult(
            wall_s=wall,
            ops=report.candidates_evaluated(),
            op_seconds=sum(stats.elapsed for stats in report.generations),
            digest=_normalized(search_digest(report)),
            extra={"in_model_violations": report.in_model_violation_count()},
        )

    def check(self, config, results: List[PassResult], workdir: Path) -> Tuple[int, List[str]]:
        """The ``auto`` report must equal the ``python`` lane's, field by field."""
        reference = python_lane_reference(config)
        failed, notes = 0, []
        for index, result in enumerate(results):
            got = result.digest
            bad = sum(1 for a, b in zip(got["candidates"], reference["candidates"]) if a != b)
            bad += abs(len(got["candidates"]) - len(reference["candidates"]))
            for part in ("generations", "findings", "in_model_violations"):
                if got[part] != reference[part]:
                    bad += 1
                    notes.append(f"pass {index}: {part} differ from the python lane")
            if bad:
                notes.append(f"pass {index}: {bad} mismatch(es) against the python lane")
            failed += bad
        return failed, notes


# ----------------------------------------------------------------------
# E2 campaign (inline engine)
# ----------------------------------------------------------------------

#: The share of the horizon, at its end, in which a winner set may still be
#: changing without the row counting as failed (see ``CampaignE2Workload.check``).
UNJUDGEABLE_TAIL = 0.1


def theorem23_verdict(payload: Dict[str, Any], horizon: int) -> str:
    """``"ok"``, ``"failed"`` or ``"unjudgeable"`` for one E2 detector row."""
    if not payload["satisfied"]:
        return "failed"
    if payload["winner_set"] is not None:
        return "ok" if payload["winner_contains_correct"] else "failed"
    last_change = payload["last_winner_change"]
    if last_change is not None and last_change >= (1 - UNJUDGEABLE_TAIL) * horizon:
        return "unjudgeable"
    return "failed"


class CampaignE2Workload:
    name = "campaign-e2-seeds"
    min_passes = 2

    def build(self, seed: int, scale: str, workdir: Path):
        from repro.analysis.experiment import named_campaign_spec
        import repro.campaign.engine  # noqa: F401

        horizon = 4_000 if scale == "tiny" else None
        return named_campaign_spec(
            "e2-seeds", horizon=horizon, seeds=derived_seeds(self.name, seed, 3)
        )

    def run_pass(self, spec, passdir: Path) -> PassResult:
        from repro.analysis.reporting import ascii_table
        from repro.campaign.engine import CampaignEngine

        _clear_result_caches()
        started = time.perf_counter()
        with CampaignEngine(jsonl_path=passdir / "e2-seeds.jsonl") as engine:
            result = engine.run(spec)
        headers, rows = result.table()
        ascii_table(headers, rows, title="e2-seeds")
        wall = time.perf_counter() - started
        return PassResult(
            wall_s=wall,
            ops=len(result.records),
            op_seconds=wall,
            digest=_normalized(result.payloads()),
            extra={
                "op_latencies": [record.elapsed for record in result.records],
                "horizons": [record.params["horizon"] for record in result.records],
            },
        )

    def check(self, spec, results: List[PassResult], workdir: Path) -> Tuple[int, List[str]]:
        """Theorem 23 as the E2 table states it, judged on the finite prefix.

        A row fails when the k-anti-Omega verifier is not satisfied, when the
        winner set converged without a correct process, or when the correct
        processes end the prefix without a common winner set and the last
        winner change lies before the final ``UNJUDGEABLE_TAIL`` of the
        horizon.  A winner set that changed only within that tail may still
        converge (the claim is eventual, the convention the search's liveness
        properties use too); such rows are printed as a note, not counted.
        """
        failed, notes = 0, []
        for index, result in enumerate(results):
            verdicts = [
                theorem23_verdict(payload, horizon)
                for payload, horizon in zip(result.digest, result.extra["horizons"])
            ]
            bad: List[Any] = [row for row, verdict in enumerate(verdicts) if verdict == "failed"]
            if result.digest != results[0].digest:
                bad.append("payloads differ from pass 0")
            if bad:
                notes.append(f"pass {index}: rows failing Theorem 23: {bad}")
            failed += len(bad)
            if index == 0:
                unjudgeable = [
                    row for row, verdict in enumerate(verdicts) if verdict == "unjudgeable"
                ]
                if unjudgeable:
                    print(f"  note: rows {unjudgeable} still change their winner set in the "
                          f"last {UNJUDGEABLE_TAIL:.0%} of the horizon "
                          "(unjudgeable prefix, not counted as failed)")
        return failed, notes


# ----------------------------------------------------------------------
# E12 through the durable queue
# ----------------------------------------------------------------------

def _queue_stats(db_path: Path) -> Dict[str, Any]:
    with sqlite3.connect(str(db_path)) as conn:
        attempts = [row[0] for row in conn.execute("SELECT attempts FROM jobs")]
        waits = [
            row[0] for row in conn.execute(
                "SELECT completed_at - enqueued_at - elapsed FROM jobs WHERE state = 'done'"
            )
        ]
        poisoned = conn.execute("SELECT COUNT(*) FROM poison").fetchone()[0]
    return {"attempts": attempts, "waits": waits, "poisoned": int(poisoned)}


@contextmanager
def worker_peak_rss(probe_dir: Path) -> Iterator[List[int]]:
    """Collect the peak RSS (KiB) of every queue worker forked inside the block.

    The workers' entry point is wrapped so each worker writes its own
    ``getrusage(RUSAGE_SELF).ru_maxrss`` to ``probe_dir`` as it exits; the
    yielded list is filled when the block ends.  The wrapper adds one small
    file write per worker and nothing per job.
    """
    from repro.campaign import queue

    entry = queue._worker_entry

    def measured_entry(*args, **kwargs):
        try:
            return entry(*args, **kwargs)
        finally:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            (probe_dir / f"rss-{os.getpid()}.txt").write_text(str(peak))

    probe_dir.mkdir(parents=True, exist_ok=True)
    peaks: List[int] = []
    queue._worker_entry = measured_entry
    try:
        yield peaks
    finally:
        queue._worker_entry = entry
        peaks.extend(int(path.read_text()) for path in sorted(probe_dir.glob("rss-*.txt")))


class QueueE12Workload:
    name = "queue-e12"
    workers = 2
    min_passes = 2
    #: Grid seeds per pass: 6 arms x 32 seeds = 192 jobs.
    seeds = 32

    def build(self, seed: int, scale: str, workdir: Path):
        from repro.analysis.experiment import dist_emergence_campaign_spec
        from repro.campaign.queue import JobQueue
        from repro.campaign.spec import CampaignSpec

        horizon = 600 if scale == "tiny" else 2_400
        count = 2 if scale == "tiny" else self.seeds
        runs = []
        for run in dist_emergence_campaign_spec(horizon=horizon).runs:
            run = dict(run)
            run.pop("seed")
            runs.append(run)
        spec = CampaignSpec(
            name="e12-seeds", kind="dist-timeliness", runs=runs,
            axes={"seed": derived_seeds(self.name, seed, count)},
        )
        workdir.mkdir(parents=True, exist_ok=True)
        JobQueue(workdir / "setup-queue.db").close()
        return spec

    def run_pass(self, spec, passdir: Path) -> PassResult:
        from repro.campaign.cache import ResultCache
        from repro.campaign.queue import DurableCampaignEngine

        _clear_result_caches()
        started = time.perf_counter()
        with worker_peak_rss(passdir / "rss") as worker_peaks:
            engine = DurableCampaignEngine(
                passdir / "queue.db",
                workers=self.workers,
                cache=ResultCache(passdir / "cache"),
                jsonl_path=passdir / "e12.jsonl",
            )
            result = engine.run(spec)
        wall = time.perf_counter() - started
        stats = _queue_stats(passdir / "queue.db")
        stats["worker_peak_rss_kb"] = worker_peaks
        stats["op_latencies"] = [record.elapsed for record in result.records]
        stats["bytes"] = sum(
            path.stat().st_size for path in passdir.rglob("*")
            if path.is_file() and (path.suffix == ".jsonl" or "cache" in path.parts)
        )
        return PassResult(
            wall_s=wall,
            ops=len(result.records),
            op_seconds=wall,
            digest=_normalized(result.payloads()),
            extra=stats,
        )

    def check(self, spec, results: List[PassResult], workdir: Path) -> Tuple[int, List[str]]:
        """Durable payloads equal an inline run's, with one attempt per job."""
        from repro.campaign.engine import CampaignEngine

        _clear_result_caches()
        reference = _normalized(CampaignEngine().run(spec).payloads())
        failed, notes = 0, []
        for index, result in enumerate(results):
            mismatched = sum(1 for a, b in zip(result.digest, reference) if a != b)
            mismatched += abs(len(result.digest) - len(reference))
            retried = sum(1 for attempts in result.extra["attempts"] if attempts != 1)
            poisoned = result.extra["poisoned"]
            bad = mismatched + retried + poisoned
            if bad:
                notes.append(
                    f"pass {index}: {mismatched} payload mismatch(es), "
                    f"{retried} retried job(s), {poisoned} poisoned job(s)"
                )
            failed += bad
        return failed, notes


WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        # One default search pass takes 20-40 s on 2 CPUs, about a whole run:
        # a second would not fit the benchmark's time budget.
        SearchWorkload("search-anti-omega", "k-anti-omega-convergence", min_passes=1),
        SearchWorkload("search-agreement", "agreement-safety", min_passes=2),
        CampaignE2Workload(),
        QueueE12Workload(),
    )
}


def fresh_dir(path: Path) -> Path:
    """An empty directory at ``path``."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
