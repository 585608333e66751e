"""End-to-end benchmark of the user paths, with a traced per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload search-anti-omega --seed 0 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in its own interpreter.

One run builds the workload's inputs, makes the workload's minimum number of
timed passes and then more while the next is expected to end within
``--seconds``, measures set-up time in fresh interpreters, runs the
correctness checks outside the timed passes, and prints a table followed by
one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each timing is a median over the run, divided by the host factor measured
while it ran (``hostspeed.py``).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics instead (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from hostspeed import host_factor, sample_host_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def percentile_line(samples: Sequence[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    line = f"median {statistics.median(ordered):.4f}"
    if n > 10:
        line += f", p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"
    else:
        line += ", no percentile with 10 samples beyond it"
    return line + f" (n={n})"


def time_setup(workload: str, seed: int, scale: str, workdir: Path) -> Tuple[List[float], List[float]]:
    """Wall times of fresh interpreters that import repro and build the inputs.

    Returns the raw times and the host factors the interpreters measured.
    """
    walls, factors = [], []
    for index in range(SETUP_SAMPLES):
        command = [
            sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
            "--seed", str(seed), "--scale", scale, "--workdir", str(workdir / f"setup-{index}"),
        ]
        started = time.perf_counter()
        completed = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True)
        walls.append(time.perf_counter() - started)
        factors.append(float(completed.stdout.split()[-1]))
    return walls, factors


def normalised(values: Sequence[float], factors: Sequence[float]) -> List[float]:
    """Times divided by their host factors: the times on the reference host."""
    return [value / factor for value, factor in zip(values, factors)]


def timing_line(raw: Sequence[float], factors: Sequence[float]) -> str:
    """The normalised percentile line, then the raw median and the host factor."""
    return (f"{percentile_line(normalised(raw, factors))}; raw median "
            f"{statistics.median(raw):.4f}, host factor {statistics.median(factors):.3f}")


def peak_rss_mb(results) -> float:
    """Peak RSS of this process plus the largest per-pass sum of its workers' peaks.

    Each queue worker reports its own peak (``RUSAGE_SELF``), which includes
    the pages it shares with this process after the fork.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = max(sum(result.extra.get("worker_peak_rss_kb", [])) for result in results)
    return (own + workers) / 1024.0


def traced_pass(workload, inputs, passdir: Path):
    """One pass with every layer wrapped; returns (result, spans)."""
    from layertrace import Tracer

    spool = passdir / "spool"
    spool.mkdir(parents=True)
    tracer = Tracer(spool=spool)
    with tracer:
        with tracer.root("pass"):
            result = workload.run_pass(inputs, passdir)
    tracer.collect()
    return result, tracer.spans


def print_layer_report(name: str, spans, untraced_wall: float) -> None:
    from layertrace import layer_table

    wall, table, unattributed = layer_table(spans)
    print(f"\ntraced pass of {name}: wall {wall:.3f} s "
          f"(untraced {untraced_wall:.3f} s)")
    print(f"{'layer':<16}{'calls':>10}{'self s':>12}{'share':>9}")
    for layer, (calls, busy) in sorted(table.items(), key=lambda item: -item[1][1]):
        print(f"{layer:<16}{calls:>10}{busy:>12.4f}{busy / wall:>9.1%}")
    print(f"{'(unattributed)':<16}{'':>10}{unattributed:>12.4f}{unattributed / wall:>9.1%}")


def traced_metrics(traced, spans, untraced_wall: float) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics: span-derived ones plus the pass's own counters."""
    from layertrace import layer_metrics
    from repro.search.engine import screen_cache_stats

    metrics = layer_metrics(spans)
    cache = screen_cache_stats()
    metrics["properties.screen_cache_hit_ratio"] = (
        cache["hits"] / max(cache["hits"] + cache["misses"], 1), "ratio")
    metrics["trace_overhead_ratio"] = (traced.wall_s / untraced_wall, "ratio")
    extra = traced.extra
    attempts = extra.get("attempts", [])
    waits = extra.get("waits", [])
    metrics["queue.job_wait_s"] = (statistics.median(waits) if waits else 0.0, "s")
    metrics["queue.attempts_per_job"] = (
        sum(attempts) / len(attempts) if attempts else 0.0, "count")
    metrics["queue.poisoned"] = (float(extra.get("poisoned", 0)), "count")
    metrics["cache.bytes"] = (float(extra.get("bytes", 0)), "bytes")
    metrics["search.in_model_violations"] = (
        float(extra.get("in_model_violations", 0)), "count")
    return metrics


def run(args: argparse.Namespace) -> Dict[str, Any]:
    from workloads import WORKLOADS, fresh_dir

    workload = WORKLOADS[args.workload]
    workdir = fresh_dir(Path(args.workdir))
    inputs = workload.build(args.seed, args.scale, workdir)

    results = []
    attempted = failed = 0
    notes: List[str] = []
    started = time.perf_counter()

    def another_pass() -> bool:
        """Below the minimum, or one more pass (at the median) ends within --seconds.

        A traced run needs only the one untraced pass its overhead ratio is
        taken against.
        """
        if args.trace:
            return not results
        if len(results) < workload.min_passes:
            return True
        typical = statistics.median(result.wall_s for result in results)
        return time.perf_counter() - started + typical <= args.seconds

    factors: List[float] = []
    while another_pass():
        try:
            with sample_host_speed() as samples:
                result = workload.run_pass(inputs, fresh_dir(workdir / f"pass-{len(results)}"))
            factors.append(host_factor(samples))
            results.append(result)
        except Exception:
            # A pass that raises counts all its operations as failed and ends
            # the measurement; without a single good pass there is no result.
            if not results:
                traceback.print_exc()
                raise SystemExit(1)
            attempted += results[0].ops
            failed += results[0].ops
            notes.append(traceback.format_exc())
            break
    attempted += sum(result.ops for result in results)
    peak = peak_rss_mb(results)

    metrics: Dict[str, Tuple[float, str]] = {}
    walls = [result.wall_s for result in results]
    op_rates = [result.ops / result.op_seconds for result in results]
    if args.trace:
        traced, spans = traced_pass(workload, inputs, fresh_dir(workdir / "traced"))
        attempted += traced.ops
        if traced.digest != results[0].digest:
            failed += traced.ops
            notes.append("the traced pass produced a different result")
        print_layer_report(args.workload, spans, walls[0])
        metrics.update(traced_metrics(traced, spans, walls[0]))
        metrics["host_factor"] = (factors[0], "ratio")

    check_failed, check_notes = workload.check(inputs, results, workdir)
    failed += check_failed
    notes.extend(check_notes)

    if not args.trace:
        setup, setup_factors = time_setup(args.workload, args.seed, args.scale, workdir)
        metrics["setup_s"] = (statistics.median(normalised(setup, setup_factors)), "s")
        metrics["wall_s"] = (statistics.median(normalised(walls, factors)), "s")
        # A rate has time in its denominator: it is multiplied by the factor.
        rates = [rate * factor for rate, factor in zip(op_rates, factors)]
        metrics["ops_per_s"] = (statistics.median(rates), "1/s")
        metrics["peak_rss_mb"] = (peak, "MB")
        print(f"\n{args.workload} (seed {args.seed}, {len(results)} pass(es)); "
              "timings in reference-host seconds, each reported as its median")
        print(f"  setup_s      [s]   {timing_line(setup, setup_factors)}")
        print(f"  wall_s       [s]   {timing_line(walls, factors)}")
        print(f"  ops_per_s    [1/s] {percentile_line(rates)}; "
              f"raw median {statistics.median(op_rates):.4f}")
        latencies = [value for result in results for value in result.extra.get("op_latencies", [])]
        if latencies:
            print(f"  op latency   [s]   {percentile_line(latencies)}, raw")
        print(f"  peak_rss_mb  [MB]  {peak:.1f}")
        if "in_model_violations" in results[0].extra:
            print(f"  in_model_violations [count] {results[0].extra['in_model_violations']}")
    print(f"  failed_ratio [ratio] {failed / attempted:.4f} ({failed} of {attempted})")
    for note in notes:
        print(f"  FAILED: {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, fresh_dir

    if args.workload == "all":
        # Every workload in turn, each in its own interpreter so peak RSS and
        # module-level state stay per workload.
        for name in WORKLOADS:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--scale", args.scale]
            if subprocess.run(command).returncode != 0:
                return 1
        return 0
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or 'all'")
    if args.workdir is None:
        args.workdir = str(HERE / ".work" / f"{args.workload}-{os.getpid()}")
    if args.setup_only:
        with sample_host_speed() as samples:
            WORKLOADS[args.workload].build(args.seed, args.scale, fresh_dir(Path(args.workdir)))
        print(host_factor(samples))
        return 0
    try:
        outcome = run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
