"""Span tracing from outside the program: wrap each layer's public functions.

A :class:`Tracer` replaces the named functions and methods of a layer with
thin wrappers that record one span per call — ``(id, parent, layer, name,
start, end, notes)`` — in memory.  Nothing inside ``src/repro`` changes:
callers import these functions by name (``from .mutations import realize``),
so :func:`Tracer.install` rebinds the name in every loaded ``repro`` module
whose namespace holds the original object, and :func:`Tracer.uninstall`
puts the originals back.

Span ids are ``(pid, serial)`` pairs, so spans recorded in forked worker
processes stay distinct; a worker inherits the parent's span stack at fork
time, which makes its first spans children of whatever span was open then.
Workers write their spans to ``<spool>/spans-<pid>.json`` when their entry
function returns; :meth:`Tracer.collect` reads them back.

Self time is a span's duration minus the part of its interval that its
children cover (the union of the children's intervals, since children from
parallel workers may overlap).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

SpanId = Tuple[int, int]

#: ``note(result, args, kwargs) -> dict`` — counts recorded on a span.
Note = Callable[[Any, tuple, dict], Dict[str, Any]]


@dataclass
class Span:
    """One recorded call."""

    sid: SpanId
    parent: Optional[SpanId]
    layer: str
    name: str
    start: float
    end: float
    notes: Optional[Dict[str, Any]]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [list(self.sid), list(self.parent) if self.parent else None,
                self.layer, self.name, self.start, self.end, self.notes]

    @staticmethod
    def from_json(row: list) -> "Span":
        sid, parent, layer, name, start, end, notes = row
        return Span(tuple(sid), tuple(parent) if parent else None,
                    layer, name, start, end, notes)


# ----------------------------------------------------------------------
# Span notes: the per-layer counts, read off arguments and results
# ----------------------------------------------------------------------

def _steps_of(result: Any) -> int:
    if isinstance(result, list):
        return sum(_steps_of(item) for item in result)
    results = getattr(result, "results", None)
    if results is not None:
        return _steps_of(list(results))
    return int(getattr(result, "steps_executed", 0))


def _note_steps(result, args, kwargs):
    return {"steps": _steps_of(result)}


def _note_length(result, args, kwargs):
    return {"steps": len(result) if result is not None else 0}


def _note_rows(result, args, kwargs):
    compileds = kwargs.get("compileds", args[3] if len(args) > 3 else ())
    return {"rows": len(compileds)}


def _note_screen_lane(result, args, kwargs):
    from repro.search.properties import last_screen_plan

    return {"lane": last_screen_plan().get("lane")}


def _note_confirm(result, args, kwargs):
    return {"violated": bool(result.violated)}


def _note_base(result, args, kwargs):
    recipe = args[0] if args else kwargs["recipe"]
    return {"base": json.dumps(recipe["base"], sort_keys=True)}


def _note_shrink(result, args, kwargs):
    return {
        "evaluations": result.evaluations,
        "original": result.original_length,
        "shrunk": result.shrunk_length,
    }


def _note_events(result, args, kwargs):
    return {"events": len(result)}


def _note_hit(result, args, kwargs):
    return {"hit": result is not None}


#: layer -> [(module, qualified name, note)].  The layers and their functions
#: are the ones the benchmark's layer table (README.md) names.
LAYERS: Dict[str, List[Tuple[str, str, Optional[Note]]]] = {
    "certify": [
        ("repro.search.certify", "certify_schedule", None),
        ("repro.search.certify", "best_witness", None),
        ("repro.core.timeliness", "analyze_timeliness", None),
    ],
    "vector_screen": [
        ("repro.runtime.vector_backend", "anti_omega_screen_snapshots", _note_rows),
    ],
    "properties": [
        ("repro.search.properties", "screen_generation", _note_screen_lane),
        ("repro.search.properties", "ScheduleProperty.screen", None),
        ("repro.search.properties", "ScheduleProperty.confirm", _note_confirm),
    ],
    "backends": [
        ("repro.runtime.backends", "plan_backend_for_classes", None),
        ("repro.runtime.simulator", "Simulator.__init__", None),
    ],
    "kernel": [
        ("repro.runtime.kernel", "execute", _note_steps),
        ("repro.runtime.kernel", "execute_batch", _note_steps),
        ("repro.runtime.kernel", "execute_multi_batch", _note_steps),
        ("repro.runtime.kernel", "_execute_bare", _note_steps),
    ],
    "schedules": [
        ("repro.schedules.base", "ScheduleGenerator.compile", _note_length),
        ("repro.campaign.runner", "compiled_schedule_for", _note_length),
    ],
    "mutations": [
        ("repro.search.mutations", "realize", _note_base),
    ],
    "shrink": [
        ("repro.search.shrink", "shrink_schedule", _note_shrink),
    ],
    "distsim": [
        ("repro.distsim.reduction", "run_timeline", _note_events),
        ("repro.distsim.reduction", "compile_timeline", None),
        ("repro.distsim.reduction", "timeliness_report", None),
    ],
    "queue": [
        ("repro.campaign.queue", "JobQueue.__init__", None),
        ("repro.campaign.queue", "JobQueue.enqueue", None),
        ("repro.campaign.queue", "JobQueue.lease", None),
        ("repro.campaign.queue", "JobQueue.heartbeat", None),
        ("repro.campaign.queue", "JobQueue.complete", None),
        ("repro.campaign.queue", "JobQueue.fail", None),
        ("repro.campaign.queue", "JobQueue.records_for", None),
    ],
    "cache": [
        ("repro.campaign.cache", "ResultCache.get", _note_hit),
        ("repro.campaign.cache", "ResultCache.put", None),
        ("repro.campaign.records", "write_jsonl", None),
    ],
    "engine": [
        ("repro.campaign.engine", "CampaignEngine.run", None),
        ("repro.campaign.queue", "DurableCampaignEngine.run", None),
        ("repro.campaign.runner", "execute_spec", None),
    ],
}

#: The forked queue worker's entry point: wrapped (without a span) so each
#: worker spools its spans when it finishes.
WORKER_ENTRY = ("repro.campaign.queue", "_worker_entry")


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.spans: List[Span] = []
        self.stack: List[SpanId] = []
        self._serial = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, name: str, function: Callable, note: Optional[Note]):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            pid = os.getpid()
            parent = tracer.stack[-1] if tracer.stack else None
            sid = (pid, next(tracer._serial))
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
            notes = note(result, args, kwargs) if note is not None else None
            tracer.spans.append(Span(sid, parent, layer, name, start, end, notes))
            return result

        traced.__traced_original__ = function
        return traced

    def _spooling_entry(self, function: Callable):
        tracer = self

        @functools.wraps(function)
        def entry(*args, **kwargs):
            try:
                return function(*args, **kwargs)
            finally:
                tracer.write_spool()

        entry.__traced_original__ = function
        return entry

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _rebind_everywhere(self, original: Any, replacement: Any) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, replacement)

    def install(self) -> "Tracer":
        """Wrap every layer function and the queue worker's entry point."""
        for layer, targets in LAYERS.items():
            for module_name, qualname, note in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, method = qualname.split(".")
                    for cls in _subclasses(getattr(module, class_name)):
                        if method in vars(cls):
                            label = f"{cls.__name__}.{method}"
                            self._set(cls, method, self._wrap(layer, label, vars(cls)[method], note))
                else:
                    original = getattr(module, qualname)
                    self._rebind_everywhere(original, self._wrap(layer, qualname, original, note))
        module = importlib.import_module(WORKER_ENTRY[0])
        original = getattr(module, WORKER_ENTRY[1])
        self._rebind_everywhere(original, self._spooling_entry(original))
        return self

    def uninstall(self) -> None:
        """Restore every original function, last patch first."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """The pass span every layer span descends from."""
        sid = (os.getpid(), next(self._serial))
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append(Span(sid, None, "", name, start, end, None))

    def write_spool(self) -> None:
        """Worker side: write this process's spans to the spool."""
        pid = os.getpid()
        rows = [span.to_json() for span in self.spans if span.sid[0] == pid]
        (self.spool / f"spans-{pid}.json").write_text(json.dumps(rows))

    def collect(self) -> None:
        """Parent side: merge the workers' spooled spans."""
        for path in sorted(self.spool.glob("spans-*.json")):
            self.spans.extend(Span.from_json(row) for row in json.loads(path.read_text()))
            path.unlink()


# ----------------------------------------------------------------------
# Analysis: self times and the per-layer metrics
# ----------------------------------------------------------------------

def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[SpanId, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[SpanId, List[Tuple[float, float]]] = {}
    by_id = {span.sid: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            parent = by_id[span.parent]
            children.setdefault(span.parent, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.sid: span.duration - _covered(children.get(span.sid, []))
        for span in spans
    }


def _ancestors(span: Span, by_id: Dict[SpanId, Span]):
    parent = by_id.get(span.parent) if span.parent else None
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent) if parent.parent else None


def _outermost(spans: List[Span], layer: str, by_id: Dict[SpanId, Span]) -> List[Span]:
    """The spans of ``layer`` not nested inside another span of the same layer."""
    return [
        span for span in spans
        if span.layer == layer
        and not any(a.layer == layer for a in _ancestors(span, by_id))
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_table(spans: Sequence[Span]) -> Tuple[float, Dict[str, Tuple[int, float]], float]:
    """``(wall, {layer: (calls, self_s)}, unattributed_s)`` of one traced pass.

    ``wall`` is the root span's duration; the unattributed remainder is the
    root's own self time — the pass time no named layer covers.
    """
    times = self_times(spans)
    roots = [span for span in spans if span.layer == ""]
    wall = sum(span.duration for span in roots)
    table = {layer: (0, 0.0) for layer in LAYERS}
    for span in spans:
        if span.layer:
            calls, busy = table[span.layer]
            table[span.layer] = (calls + 1, busy + times[span.sid])
    unattributed = sum(times[span.sid] for span in roots)
    return wall, table, unattributed


def layer_metrics(spans: Sequence[Span]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics (name -> (value, unit)) of one traced pass."""
    spans = list(spans)
    by_id = {span.sid: span for span in spans}
    wall, table, unattributed = layer_table(spans)
    metrics: Dict[str, Tuple[float, str]] = {
        "unattributed_share": (_ratio(unattributed, wall), "ratio"),
    }
    for layer, (calls, busy) in table.items():
        metrics[f"{layer}.calls"] = (float(calls), "count")
        metrics[f"{layer}.busy_s"] = (busy, "s")

    def named(name: str) -> List[Span]:
        return [span for span in spans if span.name == name]

    metrics["vector_screen.rows"] = (
        float(sum(span.notes["rows"] for span in named("anti_omega_screen_snapshots"))),
        "count",
    )
    lanes = [span.notes["lane"] for span in named("screen_generation")]
    metrics["properties.screen_vector_calls"] = (float(lanes.count("column")), "count")
    metrics["properties.screen_python_calls"] = (float(lanes.count("reference")), "count")
    flagged = [
        span for span in spans
        if span.name.endswith(".confirm") and span.layer == "properties"
        and not any(a.layer == "shrink" for a in _ancestors(span, by_id))
    ]
    metrics["properties.flag_precision"] = (
        _ratio(sum(1 for span in flagged if span.notes["violated"]), len(flagged)),
        "ratio",
    )
    metrics["backends.simulator_builds"] = (
        float(sum(1 for span in spans if span.name == "Simulator.__init__")),
        "count",
    )
    kernel = _outermost(spans, "kernel", by_id)
    steps = sum(span.notes["steps"] for span in kernel)
    metrics["kernel.steps"] = (float(steps), "count")
    metrics["kernel.ns_per_step"] = (_ratio(table["kernel"][1] * 1e9, steps), "ns")
    lookups = named("compiled_schedule_for")
    compiles_under_lookup = sum(
        1 for span in named("ScheduleGenerator.compile")
        if span.parent in {lookup.sid for lookup in lookups}
    )
    metrics["schedules.steps"] = (
        float(sum(span.notes["steps"] for span in named("ScheduleGenerator.compile"))),
        "count",
    )
    metrics["schedules.lru_hit_ratio"] = (
        _ratio(len(lookups) - compiles_under_lookup, len(lookups)), "ratio"
    )
    realized = named("realize")
    metrics["mutations.distinct_bases_ratio"] = (
        _ratio(len({span.notes["base"] for span in realized}), len(realized)), "ratio"
    )
    shrinks = named("shrink_schedule")
    metrics["shrink.evaluations"] = (
        float(sum(span.notes["evaluations"] for span in shrinks)), "count"
    )
    metrics["shrink.shrunk_ratio"] = (
        _ratio(sum(span.notes["shrunk"] for span in shrinks),
               sum(span.notes["original"] for span in shrinks)),
        "ratio",
    )
    metrics["distsim.events"] = (
        float(sum(span.notes["events"] for span in named("run_timeline"))), "count"
    )
    gets = [span for span in spans if span.name == "ResultCache.get"]
    metrics["cache.hit_ratio"] = (
        _ratio(sum(1 for span in gets if span.notes["hit"]), len(gets)), "ratio"
    )
    engine_runs = [
        span for span in _outermost(spans, "engine", by_id) if span.name.endswith(".run")
    ]
    executed = sum(span.duration for span in named("execute_spec"))
    metrics["engine.overhead_s"] = (
        sum(span.duration for span in engine_runs) - executed if engine_runs else 0.0,
        "s",
    )
    return metrics
