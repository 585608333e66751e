"""Shared types of the batch kernels, plus the screen lanes' fallback log.

:func:`~repro.runtime.kernel.execute_batch` (one shared schedule) and
:func:`~repro.runtime.kernel.execute_multi_batch` (one schedule per replica)
both run on the pure-Python reference kernel loops; this module holds the
types they and the search screens exchange — :data:`CrashMask`,
:data:`Snapshot` and :class:`MultiBatchResult` — and the once-per-reason
warning the ``auto`` screen planner logs when a generation falls back from
the numpy screen (:mod:`repro.runtime.vector_backend`) to the reference one.

Simulator batches have one execution lane, so the planner rule
:func:`plan_backend_for_classes` always answers the reference kernel:

>>> plan_backend_for_classes([])
('python', 'simulator batches run on the pure-Python reference kernel')
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Type,
)

from ..types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import ExecutionPolicy
    from .simulator import RunResult

#: One replica's crash mask: ``pid -> schedule step index`` from which that
#: process takes no further steps (same convention as
#: :attr:`repro.core.schedule.CompiledSchedule.crash_steps`).
CrashMask = Optional[Mapping[ProcessId, int]]

#: One checkpoint snapshot: ``pid -> {key: published value}``.
Snapshot = Dict[ProcessId, Dict[str, Any]]


@dataclass(frozen=True)
class MultiBatchResult:
    """What :func:`~repro.runtime.kernel.execute_multi_batch` returns.

    ``results`` carries one :class:`~repro.runtime.simulator.RunResult` per
    replica, in replica order.  ``snapshots`` is ``None`` unless checkpointed
    extraction was requested, in which case it holds one list of
    ``checkpoints`` output snapshots per replica — snapshot ``i`` samples the
    requested published keys after the replica has executed
    ``(L * (i + 1)) // checkpoints`` of its ``L`` effective steps, the
    segment bounds every search screen judges from.
    """

    results: List["RunResult"]
    snapshots: Optional[List[List[Snapshot]]] = None


_LOGGER = logging.getLogger(__name__)

#: Fallback reasons already warned about (the "loud" in *falls back loudly*
#: means one warning per distinct reason, not one per batch).
_WARNED_FALLBACKS: Set[str] = set()


def _warn_fallback(reason: str) -> None:
    """Log each distinct auto-planner fallback reason once per process."""
    if reason not in _WARNED_FALLBACKS:
        _WARNED_FALLBACKS.add(reason)
        _LOGGER.warning("auto backend falling back to the reference kernel: %s", reason)


def plan_backend_for_classes(
    automaton_classes: Iterable[Type], policy: Optional["ExecutionPolicy"] = None
) -> Tuple[str, Optional[str]]:
    """The simulator-batch planner rule: always the reference kernel.

    Returns ``("python", reason)`` for every input.  Simulator batches have
    a single execution lane, so nothing in the package calls this; it is
    kept, with its signature, because the end-to-end benchmark's layer
    tracer wraps it by name.
    """
    return ("python", "simulator batches run on the pure-Python reference kernel")
