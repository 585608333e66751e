"""Pinned kernel/campaign benchmarks and their JSON trajectory files.

Two benchmark suites, deliberately small and stable across PRs:

* **kernel** (:func:`bench_kernel`) — ns/step of the execution kernel on one
  pinned scenario (the E2-style certified set-timely family, one initial
  crash) under the paths a campaign can take: the instrumented reference, the
  fast policy over a live generator stream ("today's" per-run path), the fast
  policy over a compiled buffer, and the bare batched loop
  (:func:`~repro.runtime.kernel.execute_batch`) with no instrumentation
  attached.  Three workloads bracket the algorithm-cost spectrum: ``floor``
  (pre-built operations, integer register names — measures pure harness
  overhead, the quantity the batched path optimizes), ``fresh-ops``
  (operation objects allocated every step, tuple register names — the
  allocation profile of algorithms that build ops inline, where the
  operation/addressing layer dominates) and ``bound-ops`` (the floor program
  with its ops pre-bound to register arena slots — the steady-state profile
  of the prebound paper algorithms, measuring pure slot dispatch).  Both the
  ``floor`` and ``fresh-ops`` batched ratios are headline numbers, gated
  against regression in CI.
* **campaign** (:func:`bench_campaign`) — wall time of a three-configuration
  detector sweep through the :class:`~repro.campaign.engine.CampaignEngine`,
  with compiled schedules disabled (the pre-batching engine), enabled
  (inline), and enabled across a persistent two-worker pool.  Payload
  equality between the streamed and batched paths is asserted on every run.
  A ``search-eval`` lane runs one whole search generation under the python
  screen backend and the auto planner, recording what the numpy screen buys
  the end-to-end campaign path.

The kernel suite also carries the **whole-generation screening lane**
(:func:`bench_screen`), measured whenever numpy is importable: one numpy
``screen_generation`` call over a seeded mixed-length generation vs. the
per-candidate reference screen loop, with verdict equality asserted and the
ratio gated at the absolute :data:`SCREEN_HEADLINE_FLOOR`.

``write_trajectory`` persists both suites as ``BENCH_kernel.json`` and
``BENCH_campaign.json``; :func:`check_regression` compares the structural
speedup ratios of a fresh measurement against the committed baselines (the
absolute ns/step numbers are machine-specific and are *not* compared).
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from os import cpu_count
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..runtime import vector_backend
from ..runtime.automaton import (
    BoundReadOp,
    BoundWriteOp,
    FunctionAutomaton,
    ProcessAutomaton,
    ReadOp,
    WriteOp,
)
from ..runtime.kernel import execute_batch
from ..runtime.observers import OutputTracker
from ..runtime.simulator import Simulator, build_simulator
from ..scenarios.spec import build_generator

BENCH_KERNEL_FILENAME = "BENCH_kernel.json"
BENCH_CAMPAIGN_FILENAME = "BENCH_campaign.json"

#: Trajectory file format version (bump when the pinned cases change shape).
TRAJECTORY_VERSION = 1

#: The pinned kernel scenario: the certified set-timely family E2/E3 sweep,
#: n=4 with one initial crash — the bread-and-butter campaign configuration.
KERNEL_SCENARIO: Dict[str, Any] = {
    "schedule": "set-timely",
    "n": 4,
    "p_set": [1, 2],
    "q_set": [1, 2, 3],
    "bound": 3,
    "seed": 7,
    "crashes": [4],
}

#: The pinned campaign sweep: three detector configurations (a subset of E2).
CAMPAIGN_CONFIGS: List[Dict[str, Any]] = [
    {"n": 3, "t": 2, "k": 1, "bound": 3, "crashes": []},
    {"n": 3, "t": 2, "k": 2, "bound": 3, "crashes": []},
    {"n": 4, "t": 2, "k": 2, "bound": 3, "crashes": []},
]

#: Replicas driven per execute_batch call in the batched kernel cases.
BATCH_REPLICAS = 8

#: Whole-generation screening lane: candidates per generation (full / smoke),
#: schedule horizon, and checkpoint count.  The shapes sit where a real
#: coverage-guided search generation lands (mixed-length schedules, a sprinkle
#: of crash-at-0 candidates) and where the column screen's per-time-index
#: overhead is well amortized — the measured ratio grows with the batch, so
#: the smoke batch is the conservative end.
SCREEN_GENERATION_SIZE = 3072
SCREEN_GENERATION_SIZE_SMOKE = 1536
SCREEN_HORIZON = 600
SCREEN_CHECKPOINTS = 8

#: The screened-generation property (n, t, k) — the hottest real screen.
SCREEN_PROPERTY = {"n": 4, "t": 2, "k": 2}

#: Search-eval campaign lane: population evaluated as one ``search-eval``
#: chunk, python screen backend vs. the auto planner (full / smoke).
SEARCH_EVAL_POPULATION = 256
SEARCH_EVAL_POPULATION_SMOKE = 128


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def floor_workload(automaton, ctx):
    """Harness-floor workload: pre-built ops, integer register names.

    Every step is a read or write of the process's own register through
    operation objects hoisted out of the loop, so the measured time is almost
    entirely scheduler + kernel dispatch — the overhead batched execution
    exists to remove.  A publication every 512 beats keeps the on-publish
    sampling machinery honest without dominating.
    """
    read_own = ReadOp(automaton.pid)
    write_own = WriteOp(automaton.pid, 1)
    beat = 0
    while True:
        yield read_own
        yield write_own
        beat += 1
        if not beat % 512:
            automaton.publish("beat", beat)


def fresh_ops_workload(automaton, ctx):
    """Fresh-operation workload: new op objects and tuple names every step.

    This is the allocation profile of algorithms that build their operations
    inline (every yield constructs a ``ReadOp``/``WriteOp`` with a tuple
    register name), so per-step time runs through the operation/addressing
    layer — op construction plus tuple-keyed name resolution — which is
    exactly what the slot-addressed pipeline attacks.  Reported as its own
    headline to keep the floor ratio honest about its scope.
    """
    value = 0
    while True:
        current = yield ReadOp(("ping", automaton.pid))
        value = (current or 0) + 1
        yield WriteOp(("ping", automaton.pid), value)
        if not value % 512:
            automaton.publish("beat", value)


class PreboundPingAutomaton(ProcessAutomaton):
    """The fresh-ops program with its ops pre-bound to arena slots.

    Step-for-step the same register traffic as :func:`fresh_ops_workload` —
    a tuple-named read then a write of a fresh value — but :meth:`prebind`
    interns the register once, the read op is a fixed slot-carrying object
    and the write op is one reusable :class:`BoundWriteOp` cell whose value
    is refreshed before each yield.  This is the steady-state profile of the
    prebound paper algorithms (Ω/anti-Ω, agreement): tuple register names,
    zero per-step op allocation, slot dispatch with no name hashing.
    """

    def __init__(self, pid, n):
        super().__init__(pid, n)
        self._register = ("ping", pid)
        self._read: Optional[BoundReadOp] = None
        self._write: Optional[BoundWriteOp] = None

    def prebind(self, registers) -> None:
        self._read = ReadOp(self._register).bind(registers)
        self._write = WriteOp(self._register, 0).bind(registers)

    def program(self, ctx):
        read_op = self._read
        write_op = self._write
        value = 0
        if read_op is None or write_op is None:  # unbound fallback
            while True:
                current = yield ReadOp(self._register)
                value = (current or 0) + 1
                yield WriteOp(self._register, value)
                if not value % 512:
                    self.publish("beat", value)
        while True:
            current = yield read_op
            value = (current or 0) + 1
            write_op.value = value
            yield write_op
            if not value % 512:
                self.publish("beat", value)


#: Workload name -> automaton factory ``(pid, n) -> ProcessAutomaton``.
WORKLOADS: Dict[str, Callable] = {
    "floor": lambda pid, n: FunctionAutomaton(pid, n, floor_workload),
    "fresh-ops": lambda pid, n: FunctionAutomaton(pid, n, fresh_ops_workload),
    "bound-ops": PreboundPingAutomaton,
}


# ----------------------------------------------------------------------
# Whole-generation screening lane
# ----------------------------------------------------------------------

def _screen_generation_candidates(batch: int, horizon: int, n: int, seed: int = 11):
    """A synthetic search generation: mixed lengths plus crash-at-0 candidates."""
    import random
    from array import array as _array

    from ..core.schedule import CompiledSchedule

    rng = random.Random(seed)
    candidates = []
    for index in range(batch):
        length = horizon if index % 4 else max(1, horizon // 2)
        steps = [rng.randrange(1, n + 1) for _ in range(length)]
        crash = {steps[0]: 0} if index % 17 == 0 else {}
        candidates.append(
            CompiledSchedule(n=n, steps=_array("i", steps), crash_steps=crash)
        )
    return candidates


def bench_screen(smoke: bool = False, repeats: Optional[int] = None) -> Dict[str, Any]:
    """Measure whole-generation screening: numpy screen vs. per-candidate reference.

    Both lanes run the real search screening APIs — the reference lane is a
    per-candidate :meth:`~repro.search.properties.ScheduleProperty.screen`
    loop (one simulator build plus a bare-kernel checkpoint walk each), the
    vector lane is one :func:`~repro.search.properties.screen_generation`
    call forced onto the sim-free numpy screen — over the same seeded
    generation, and the returned verdicts are compared for equality on every
    run.  Requires numpy (:func:`bench_kernel` skips it without).
    """
    from ..search.properties import KAntiOmegaConvergenceProperty, screen_generation

    batch = SCREEN_GENERATION_SIZE_SMOKE if smoke else SCREEN_GENERATION_SIZE
    if repeats is None:
        repeats = 3 if smoke else 5
    prop = KAntiOmegaConvergenceProperty(**SCREEN_PROPERTY)
    candidates = _screen_generation_candidates(
        batch, SCREEN_HORIZON, int(SCREEN_PROPERTY["n"])
    )
    # Warm the numpy/code paths outside the timed region.
    screen_generation(prop, candidates[:64], SCREEN_CHECKPOINTS, backend="vector")

    vector_samples: List[float] = []
    reference_samples: List[float] = []
    identical = True
    for _ in range(repeats):
        started = time.perf_counter()
        vector_verdicts = screen_generation(
            prop, candidates, SCREEN_CHECKPOINTS, backend="vector"
        )
        vector_samples.append(time.perf_counter() - started)
        started = time.perf_counter()
        reference_verdicts = [
            prop.screen(candidate, SCREEN_CHECKPOINTS) for candidate in candidates
        ]
        reference_samples.append(time.perf_counter() - started)
        identical = identical and vector_verdicts == reference_verdicts
    vector_seconds = statistics.median(vector_samples)
    reference_seconds = statistics.median(reference_samples)

    def case(seconds: float) -> Dict[str, Any]:
        return {
            "seconds": round(seconds, 4),
            "us_per_candidate": round(seconds / batch * 1e6, 1),
        }

    return {
        "batch": batch,
        "horizon": SCREEN_HORIZON,
        "checkpoints": SCREEN_CHECKPOINTS,
        "property": dict(SCREEN_PROPERTY),
        "repeats": repeats,
        "cases": {
            "reference-screen": case(reference_seconds),
            "vector-screen": case(vector_seconds),
        },
        "verdicts_identical": identical,
        "ratio": round(reference_seconds / vector_seconds, 2),
    }


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------

def machine_info() -> Dict[str, Any]:
    """The machine identity recorded next to every measurement."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": cpu_count(),
    }


def _median_ns_per_step(run_once: Callable[[], int], repeats: int) -> Tuple[float, int]:
    """Median ns/step over ``repeats`` calls; ``run_once`` returns steps executed."""
    samples: List[float] = []
    steps = 0
    for _ in range(repeats):
        started = time.perf_counter()
        steps = run_once()
        samples.append((time.perf_counter() - started) / max(steps, 1) * 1e9)
    return statistics.median(samples), steps


# ----------------------------------------------------------------------
# Kernel suite
# ----------------------------------------------------------------------

def _kernel_simulator(
    n: int, factory: Callable, tracked: bool
) -> Tuple[Simulator, Optional[OutputTracker]]:
    simulator = build_simulator(n, lambda pid: factory(pid, n))
    tracker: Optional[OutputTracker] = None
    if tracked:
        tracker = OutputTracker(key="beat")
        simulator.add_observer(tracker)
    return simulator, tracker


def bench_kernel(
    smoke: bool = False,
    workloads: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Run the pinned kernel suite and return the trajectory document.

    ``workloads`` optionally restricts the suite to a subset of
    :data:`WORKLOADS` (the ``repro bench --workload`` filter); the full suite
    runs when omitted.  Filtered documents carry only the headline ratios
    their workloads support and are meant for interactive re-measurement,
    not for committing as the baseline.

    The whole-generation screening lane (:func:`bench_screen`) runs whenever
    numpy is importable and is skipped — and therefore ungated — otherwise.
    """
    horizon = 20_000 if smoke else 60_000
    repeats = 3 if smoke else 5
    n = int(KERNEL_SCENARIO["n"])
    compiled = build_generator(KERNEL_SCENARIO).compile(horizon)
    if workloads is None:
        selected = list(WORKLOADS)
    else:
        unknown = [name for name in workloads if name not in WORKLOADS]
        if unknown:
            raise ConfigurationError(
                f"unknown workload(s) {unknown}; available: {sorted(WORKLOADS)}"
            )
        selected = list(dict.fromkeys(workloads))

    def stream():
        return build_generator(KERNEL_SCENARIO).stream()

    workload_docs: Dict[str, Any] = {}
    for workload_name in selected:
        factory = WORKLOADS[workload_name]

        def run_instrumented() -> int:
            simulator, _ = _kernel_simulator(n, factory, tracked=True)
            return simulator.run(
                build_generator(KERNEL_SCENARIO).infinite(), max_steps=horizon
            ).steps_executed

        def run_fast_stream_tracked() -> int:
            simulator, _ = _kernel_simulator(n, factory, tracked=True)
            return simulator.run_fast(stream(), max_steps=horizon).steps_executed

        def run_fast_compiled_tracked() -> int:
            simulator, _ = _kernel_simulator(n, factory, tracked=True)
            return simulator.run_fast(compiled).steps_executed

        def run_fast_stream_bare() -> int:
            simulator, _ = _kernel_simulator(n, factory, tracked=False)
            return simulator.run_fast(stream(), max_steps=horizon).steps_executed

        def run_batch_compiled_bare() -> int:
            replicas = [
                _kernel_simulator(n, factory, tracked=False)[0]
                for _ in range(BATCH_REPLICAS)
            ]
            results = execute_batch(replicas, compiled)
            return sum(result.steps_executed for result in results)

        case_runs = [
            ("instrumented", run_instrumented),
            ("fast-stream", run_fast_stream_tracked),
            ("fast-compiled", run_fast_compiled_tracked),
            ("fast-stream-bare", run_fast_stream_bare),
            ("batch-compiled-bare", run_batch_compiled_bare),
        ]
        cases: Dict[str, Any] = {}
        for case_name, run_once in case_runs:
            ns_per_step, steps = _median_ns_per_step(run_once, repeats)
            cases[case_name] = {"ns_per_step": round(ns_per_step, 1), "steps": steps}
        reference = cases["instrumented"]["ns_per_step"]
        for case in cases.values():
            case["speedup_vs_instrumented"] = round(reference / case["ns_per_step"], 2)
        cases["headline"] = {
            # Per-workload claim: bare batched execution vs. the per-run fast
            # path as it existed before this trajectory (stream-fed, bare).
            "batched_vs_fast_stream": round(
                cases["fast-stream-bare"]["ns_per_step"]
                / cases["batch-compiled-bare"]["ns_per_step"],
                2,
            )
        }
        workload_docs[workload_name] = cases

    # Both bracketing workloads are headline numbers: the floor ratio tracks
    # the batched harness win, the fresh-ops ratio tracks the slot-addressed
    # operation/addressing layer.  Filtered runs only carry what they measured.
    headline: Dict[str, Any] = {}
    if "floor" in workload_docs:
        headline["batched_vs_fast_stream"] = workload_docs["floor"]["headline"][
            "batched_vs_fast_stream"
        ]
    if "fresh-ops" in workload_docs:
        headline["fresh_ops_batched_vs_fast_stream"] = workload_docs["fresh-ops"][
            "headline"
        ]["batched_vs_fast_stream"]

    # The whole-generation screening lane needs numpy: measured whenever it
    # is importable, skipped (and therefore ungated) otherwise.
    screen_doc: Optional[Dict[str, Any]] = None
    if vector_backend.np is not None:
        screen_doc = bench_screen(smoke=smoke)
        headline["vector_screen_vs_reference_screen"] = screen_doc["ratio"]

    return {
        "version": TRAJECTORY_VERSION,
        "suite": "kernel",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_info(),
        "config": {
            "scenario": KERNEL_SCENARIO,
            "horizon": horizon,
            "repeats": repeats,
            "batch_replicas": BATCH_REPLICAS,
            "smoke": smoke,
            "workloads": selected,
            "backends": ["python"],
        },
        "workloads": workload_docs,
        "screen": screen_doc,
        "headline": headline,
    }


# ----------------------------------------------------------------------
# Campaign suite
# ----------------------------------------------------------------------

def _bench_search_eval(smoke: bool, repeats: int) -> Tuple[Dict[str, Any], Dict[str, Any], bool]:
    """One ``search-eval`` generation, python screen backend vs. the auto planner.

    Measures what the auto screen planner buys the campaign path end-to-end —
    the run includes recipe realization and confirm/certify for flagged
    candidates, which both lanes share, so the ratio is deliberately more
    modest than the pure screening headline.  The screen-verdict cache is
    reset before every timed run (a warm cache would serve the second lane
    for free), and payload equality between the lanes is asserted.  Runs
    without numpy too: the auto planner then falls back loudly to the
    reference screen and the recorded ratio is honest (~1x).
    """
    from dataclasses import replace

    from ..campaign import CampaignEngine
    from ..search.engine import (
        SearchConfig,
        generation_recipes,
        generation_spec,
        reset_screen_cache,
    )

    population = SEARCH_EVAL_POPULATION_SMOKE if smoke else SEARCH_EVAL_POPULATION
    config = SearchConfig.smoke_config(
        "k-anti-omega-convergence",
        seed=0,
        population=population,
        eval_chunk=population,
    )
    recipes = generation_recipes(config, 0, [])

    def run(backend: str) -> Tuple[float, Any]:
        reset_screen_cache()
        spec = generation_spec(replace(config, backend=backend), 0, recipes)
        with CampaignEngine() as engine:
            started = time.perf_counter()
            result = engine.run(spec)
            return time.perf_counter() - started, result

    run("auto")  # warm imports / numpy outside the timed region
    python_seconds = float("inf")
    auto_seconds = float("inf")
    python_result = auto_result = None
    for _ in range(repeats):
        elapsed, python_result = run("python")
        python_seconds = min(python_seconds, elapsed)
        elapsed, auto_result = run("auto")
        auto_seconds = min(auto_seconds, elapsed)
    identical = [record.payload for record in python_result.records] == [
        record.payload for record in auto_result.records
    ]

    def case(seconds: float) -> Dict[str, Any]:
        return {
            "seconds": round(seconds, 4),
            "candidates": population,
            "us_per_candidate": round(seconds / population * 1e6, 1),
        }

    return (
        case(python_seconds),
        case(auto_seconds),
        identical,
    )


def bench_campaign(smoke: bool = False) -> Dict[str, Any]:
    """Run the pinned campaign suite and return the trajectory document."""
    from ..analysis.experiment import detector_campaign_spec
    from ..campaign import CampaignEngine, compiled_schedules_disabled

    horizon = 6_000 if smoke else 20_000
    repeats = 2 if smoke else 3
    spec = detector_campaign_spec(configs=CAMPAIGN_CONFIGS, horizon=horizon, seed=11)
    total_steps = horizon * len(CAMPAIGN_CONFIGS)

    def run_stream() -> Tuple[float, Any]:
        with compiled_schedules_disabled():
            started = time.perf_counter()
            result = CampaignEngine(workers=1).run(spec)
            return time.perf_counter() - started, result

    def run_batched() -> Tuple[float, Any]:
        started = time.perf_counter()
        result = CampaignEngine(workers=1).run(spec)
        return time.perf_counter() - started, result

    def measure(run: Callable[[], Tuple[float, Any]]) -> Tuple[float, Any]:
        best = float("inf")
        result = None
        for _ in range(repeats):
            elapsed, result = run()
            best = min(best, elapsed)
        return best, result

    stream_seconds, stream_result = measure(run_stream)
    batched_seconds, batched_result = measure(run_batched)

    # Persistent pool: time the *second* run, when workers and their
    # compiled-schedule memos are warm — the steady state of a campaign
    # session.  The cold first run (fork + compile) is recorded alongside.
    with CampaignEngine(workers=2, chunk_size=1) as engine:
        started = time.perf_counter()
        engine.run(spec)
        pool_cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        pool_result = engine.run(spec)
        pool_warm_seconds = time.perf_counter() - started

    payloads = [record.payload for record in stream_result.records]
    identical = (
        payloads == [record.payload for record in batched_result.records]
        and payloads == [record.payload for record in pool_result.records]
    )

    def case(seconds: float) -> Dict[str, Any]:
        return {
            "seconds": round(seconds, 4),
            "steps": total_steps,
            "ns_per_step": round(seconds / total_steps * 1e9, 1),
        }

    python_case, auto_case, search_eval_identical = _bench_search_eval(smoke, repeats)

    cases = {
        "campaign-stream": case(stream_seconds),
        "campaign-batched": case(batched_seconds),
        "campaign-pool-cold": case(pool_cold_seconds),
        "campaign-pool-warm": case(pool_warm_seconds),
        "search-eval-python": python_case,
        "search-eval-auto": auto_case,
    }
    return {
        "version": TRAJECTORY_VERSION,
        "suite": "campaign",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_info(),
        "config": {
            "configs": CAMPAIGN_CONFIGS,
            "horizon": horizon,
            "repeats": repeats,
            "smoke": smoke,
        },
        "cases": cases,
        "payloads_identical": identical,
        "search_eval_payloads_identical": search_eval_identical,
        "headline": {
            "batched_vs_stream": round(stream_seconds / batched_seconds, 2),
            "search_eval_auto_vs_python": round(
                python_case["seconds"] / auto_case["seconds"], 2
            ),
        },
    }


# ----------------------------------------------------------------------
# Persistence, regression checking, reporting
# ----------------------------------------------------------------------

def write_trajectory(
    out_dir: Union[str, Path],
    smoke: bool = False,
) -> Tuple[Dict[str, Any], Dict[str, Any], List[Path]]:
    """Run both suites and write the two trajectory files into ``out_dir``."""
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    kernel_doc = bench_kernel(smoke=smoke)
    campaign_doc = bench_campaign(smoke=smoke)
    paths: List[Path] = []
    for filename, document in (
        (BENCH_KERNEL_FILENAME, kernel_doc),
        (BENCH_CAMPAIGN_FILENAME, campaign_doc),
    ):
        path = target / filename
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return kernel_doc, campaign_doc, paths


def load_trajectory(directory: Union[str, Path]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Load the two trajectory files from a directory."""
    base = Path(directory)
    kernel_doc = json.loads((base / BENCH_KERNEL_FILENAME).read_text())
    campaign_doc = json.loads((base / BENCH_CAMPAIGN_FILENAME).read_text())
    return kernel_doc, campaign_doc


#: A fresh headline ratio may fall this far below the committed baseline's
#: before the regression check fails (smoke runs on contended CI machines are
#: noisy; a real regression — e.g. the batched path losing its compiled-buffer
#: advantage — collapses the ratio far past 25%).
REGRESSION_TOLERANCE = 0.25

#: Absolute floor for the whole-generation screening headline: one numpy
#: screen_generation call must beat the per-candidate reference screen loop
#: by at least this ratio whenever the lane is measured.  Unlike the relative
#: regression check this does not depend on the committed baseline, so the
#: claim cannot erode across re-baselines.
SCREEN_HEADLINE_FLOOR = 5.0

#: Headline ratios whose relative gate only applies when fresh and baseline
#: were measured in the same mode (both smoke or both full): these lanes'
#: fixed per-run costs amortize over batch/horizon, so their ratios move
#: structurally — not noisily — between smoke and full shapes.  Cross-mode
#: they stay gated by their absolute floors and identity checks.
MODE_SENSITIVE_HEADLINES = frozenset(
    {
        "vector_screen_vs_reference_screen",
        "search_eval_auto_vs_python",
    }
)


def check_regression(
    kernel_doc: Dict[str, Any],
    campaign_doc: Dict[str, Any],
    baseline_dir: Union[str, Path],
) -> List[str]:
    """Compare fresh headline ratios against the baselines in ``baseline_dir``.

    Callers that may have overwritten ``baseline_dir``'s files while
    producing the fresh documents (``repro bench --out . --check .``) must
    load the baseline *first* and use :func:`compare_trajectories` directly.
    """
    baseline_kernel, baseline_campaign = load_trajectory(baseline_dir)
    return compare_trajectories(kernel_doc, campaign_doc, baseline_kernel, baseline_campaign)


def compare_trajectories(
    kernel_doc: Dict[str, Any],
    campaign_doc: Dict[str, Any],
    baseline_kernel: Dict[str, Any],
    baseline_campaign: Dict[str, Any],
) -> List[str]:
    """Compare fresh headline ratios against already-loaded baselines.

    Only the structural speedup *ratios* are compared — absolute ns/step is a
    property of the machine, ratios are a property of the code.  The kernel
    suite gates both headline ratios: the floor workload (the batched-harness
    win) and the fresh-ops workload (the slot-addressed operation/addressing
    layer).  A key the baseline does not carry is skipped, so a freshly
    promoted headline starts gating from the first baseline that records it;
    a key the *fresh* document does not carry is also skipped, so a no-numpy
    environment (which cannot measure the screening lane) still gates what
    it did measure.  The :data:`MODE_SENSITIVE_HEADLINES` keep their
    *relative* gate only when fresh and baseline were measured in the same
    mode (both smoke or both full); cross-mode, the screening headline is
    still gated by the absolute :data:`SCREEN_HEADLINE_FLOOR`, which applies
    whenever it is present.
    Returns a list of failure messages (empty when the trajectory holds).
    """
    failures: List[str] = []
    for label, fresh_doc, baseline_doc, key in (
        ("kernel", kernel_doc, baseline_kernel, "batched_vs_fast_stream"),
        ("kernel", kernel_doc, baseline_kernel, "fresh_ops_batched_vs_fast_stream"),
        ("kernel", kernel_doc, baseline_kernel, "vector_screen_vs_reference_screen"),
        ("campaign", campaign_doc, baseline_campaign, "batched_vs_stream"),
        ("campaign", campaign_doc, baseline_campaign, "search_eval_auto_vs_python"),
    ):
        baseline_value = baseline_doc["headline"].get(key)
        fresh_value = fresh_doc["headline"].get(key)
        if baseline_value is None or fresh_value is None:
            continue
        if key in MODE_SENSITIVE_HEADLINES:
            fresh_smoke = bool(fresh_doc.get("config", {}).get("smoke", False))
            baseline_smoke = bool(baseline_doc.get("config", {}).get("smoke", False))
            if fresh_smoke != baseline_smoke:
                continue
        fresh = float(fresh_value)
        baseline = float(baseline_value)
        floor = baseline * (1.0 - REGRESSION_TOLERANCE)
        if fresh < floor:
            failures.append(
                f"{label} headline {key} regressed: {fresh:.2f}x vs. committed "
                f"baseline {baseline:.2f}x (floor {floor:.2f}x)"
            )
    fresh_screen = kernel_doc["headline"].get("vector_screen_vs_reference_screen")
    if fresh_screen is not None and float(fresh_screen) < SCREEN_HEADLINE_FLOOR:
        failures.append(
            f"kernel headline vector_screen_vs_reference_screen below the "
            f"absolute floor: {float(fresh_screen):.2f}x vs. required "
            f"{SCREEN_HEADLINE_FLOOR:.1f}x"
        )
    screen_doc = kernel_doc.get("screen")
    if screen_doc is not None and not screen_doc.get("verdicts_identical", False):
        failures.append(
            "screen verdicts differ between the numpy screen and the "
            "per-candidate reference screen"
        )
    if not campaign_doc.get("payloads_identical", False):
        failures.append(
            "campaign payloads differ between the streamed and batched paths"
        )
    if not campaign_doc.get("search_eval_payloads_identical", True):
        failures.append(
            "search-eval payloads differ between the python and auto screen backends"
        )
    return failures


def performance_markdown(
    kernel_doc: Dict[str, Any], campaign_doc: Dict[str, Any]
) -> str:
    """The EXPERIMENTS.md performance tables, generated from the trajectory."""
    lines: List[str] = []
    machine = kernel_doc["machine"]
    config = kernel_doc["config"]
    lines.append(
        f"Kernel suite (`{BENCH_KERNEL_FILENAME}`): pinned set-timely scenario, "
        f"horizon {config['horizon']:,}, median of {config['repeats']} — "
        f"{machine['implementation']} {machine['python']}."
    )
    lines.append("")
    workload_names = list(kernel_doc["workloads"])
    header = "| case |"
    divider = "|---|"
    for name in workload_names:
        header += f" {name} ns/step | {name} speedup |"
        divider += "---|---|"
    lines.append(header)
    lines.append(divider)
    case_names = [
        "instrumented",
        "fast-stream",
        "fast-compiled",
        "fast-stream-bare",
        "batch-compiled-bare",
    ]
    for case in case_names:
        row = f"| {case} |"
        for name in workload_names:
            entry = kernel_doc["workloads"][name][case]
            row += f" {entry['ns_per_step']} | {entry['speedup_vs_instrumented']}x |"
        lines.append(row)
    lines.append("")
    headline = kernel_doc["headline"]
    if "batched_vs_fast_stream" in headline:
        lines.append(
            f"Headline: bare batched execution is "
            f"**{headline['batched_vs_fast_stream']}x** faster per step "
            "than the per-run fast path on the no-observer floor workload."
        )
    if "fresh_ops_batched_vs_fast_stream" in headline:
        lines.append(
            f"Fresh-ops headline: **{headline['fresh_ops_batched_vs_fast_stream']}x** "
            "batched vs. per-run on the fresh-operation workload (op construction "
            "plus tuple-name resolution every step — the slot-addressed pipeline's "
            "target profile)."
        )
    screen_doc = kernel_doc.get("screen")
    if screen_doc is not None:
        lines.append("")
        lines.append(
            f"Whole-generation screening ({screen_doc['batch']} candidates, "
            f"horizon {screen_doc['horizon']}, {screen_doc['checkpoints']} "
            "checkpoints):"
        )
        lines.append("")
        lines.append("| case | seconds | us/candidate |")
        lines.append("|---|---|---|")
        for case_name, case in screen_doc["cases"].items():
            lines.append(
                f"| {case_name} | {case['seconds']} | {case['us_per_candidate']} |"
            )
        lines.append("")
        lines.append(
            f"Screening headline: one numpy `screen_generation` call is "
            f"**{headline['vector_screen_vs_reference_screen']}x** faster than "
            f"the per-candidate reference screen loop (gated at >= "
            f"{SCREEN_HEADLINE_FLOOR:.0f}x); verdicts identical: "
            f"**{screen_doc['verdicts_identical']}**."
        )
    lines.append("")
    campaign_config = campaign_doc["config"]
    lines.append(
        f"Campaign suite (`{BENCH_CAMPAIGN_FILENAME}`): three-configuration "
        f"detector sweep, horizon {campaign_config['horizon']:,} per run."
    )
    lines.append("")
    lines.append("| case | seconds | ns/step |")
    lines.append("|---|---|---|")
    for case_name, case in campaign_doc["cases"].items():
        # Search-eval lanes are budgeted per candidate, not per step.
        rate = case.get("ns_per_step")
        if rate is None:
            rate = f"{case['us_per_candidate']} us/cand"
        lines.append(f"| {case_name} | {case['seconds']} | {rate} |")
    lines.append("")
    lines.append(
        f"Batched vs. streamed campaign: "
        f"**{campaign_doc['headline']['batched_vs_stream']}x**; payloads "
        f"byte-identical: **{campaign_doc['payloads_identical']}**."
    )
    auto_ratio = campaign_doc["headline"].get("search_eval_auto_vs_python")
    if auto_ratio is not None:
        lines.append(
            f"Search-eval generation, auto planner vs. python screen backend: "
            f"**{auto_ratio}x** end-to-end (recipe realization and "
            "confirm/certify are shared costs); payloads byte-identical: "
            f"**{campaign_doc.get('search_eval_payloads_identical')}**."
        )
    return "\n".join(lines)
