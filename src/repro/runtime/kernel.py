"""The execution kernel: one step loop, parameterized by an execution policy.

Historically the simulator carried two hand-synchronized copies of its hot
loop — an instrumented reference path (``Simulator.run``) and a slim fast path
(``Simulator.run_fast``) that additionally reached into the register file's
privates.  This module replaces both bodies with a single loop,
:func:`execute`, whose *observable* behaviour is selected by an
:class:`ExecutionPolicy`:

* how observers are sampled (after every step, or only on steps where the
  stepped process published an output — detected via
  :attr:`~repro.runtime.automaton.ProcessAutomaton.outputs_version`);
* whether the executed trace is recorded, and at which stride.

Two specializations keep campaign-scale replica sweeps fast without forking
the semantics:

* :func:`_execute_bare` — when a run attaches no observers, records no trace
  and has no stop condition (the no-instrumentation campaign configuration),
  :func:`execute` selects a tighter loop up front instead of paying dead
  per-step branches.  The bare loop executes exactly the same steps with the
  same externally observable effects (outputs, halting, register operation
  counts, per-process step counts); it only skips work whose results nobody
  asked for.
* :func:`execute_batch` — drives a batch of independent replicas over one
  shared schedule source (ideally a
  :class:`~repro.core.schedule.CompiledSchedule`, whose flat ``array('i')``
  buffer is normalized once and iterated per replica at C speed).

The kernel enforces observer *capabilities*: an observer that needs to see
every step (capability ``"every_step"``) may only run under an every-step
sampling policy; asking for publication-gated sampling with such an observer
attached raises :class:`~repro.errors.SimulationError` instead of silently
under-sampling.  Change-recording observers such as
:class:`~repro.runtime.observers.OutputTracker` declare ``"on_publish"``:
version-gated sampling hands them byte-identical change sequences, because on
every skipped step they would have observed an unchanged value.

Register dispatch is slot-addressed: the loops hold the register file's
:class:`~repro.memory.registers.RegisterArena` parallel lists and execute a
pre-bound op (:class:`~repro.runtime.automaton.BoundReadOp` /
:class:`~repro.runtime.automaton.BoundWriteOp`) as two list indexes —
``values[op.slot]`` — with no name hash at all.  Unbound ops resolve their
name to a slot through the arena's interning dict (one C-level probe), so
both op shapes execute against the same flat storage and are observably
identical.

``kernel.py`` and ``simulator.py`` are two halves of one component — the
:class:`~repro.runtime.simulator.Simulator` façade owns the run state, the
kernel drives it — so the kernel works on the simulator's internal fields
directly.  The one cross-subsystem boundary, shared memory, goes through the
sanctioned :meth:`repro.memory.registers.RegisterFile.arena_view` /
:meth:`~repro.memory.registers.RegisterFile.resolve_slot` accessors; the
kernel never touches another module's privates.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.schedule import CompiledSchedule, InfiniteSchedule, Schedule
from ..errors import ConfigurationError, SimulationError
from ..types import ProcessId
from .automaton import (
    BoundReadOp,
    BoundWriteOp,
    ReadOp,
    RegisterName,
    WriteOp,
    is_read_operation,
    validate_operation,
)
from .backends import MultiBatchResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .simulator import ProcessState, RunResult, ScheduleSource, Simulator, StopCondition

#: Observer capability: must be sampled after every executed step.
EVERY_STEP = "every_step"
#: Observer capability: only needs steps on which the process published.
ON_PUBLISH = "on_publish"

#: The capabilities an observer may declare.
OBSERVER_CAPABILITIES = (EVERY_STEP, ON_PUBLISH)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the kernel loop samples observers and records the trace.

    Attributes
    ----------
    name:
        Identifier used in error messages and reports.
    sampling:
        ``"every_step"`` — observers run after every executed step (supports
        both observer capabilities); ``"on_publish"`` — observers run only on
        steps where the stepped process's ``outputs_version`` moved, plus its
        first sampled step (supports only ``"on_publish"`` observers).
    collect_trace:
        Whether executed steps are appended to the simulator's trace and
        returned in ``RunResult.executed_schedule``.  ``steps_executed`` stays
        exact either way.
    trace_stride:
        With ``collect_trace``, record every ``trace_stride``-th executed step
        (1 = every step).  A stride above 1 yields a *sampled* trace — a cheap
        schedule fingerprint for very long runs, not a replayable schedule.
    """

    name: str
    sampling: str
    collect_trace: bool
    trace_stride: int = 1

    def __post_init__(self) -> None:
        if self.sampling not in (EVERY_STEP, ON_PUBLISH):
            raise SimulationError(
                f"unknown sampling mode {self.sampling!r}; "
                f"expected one of {OBSERVER_CAPABILITIES}"
            )
        if self.trace_stride < 1:
            raise SimulationError(f"trace_stride must be >= 1, got {self.trace_stride}")

    def supports(self, capability: str) -> bool:
        """Whether an observer with ``capability`` may run under this policy."""
        return self.sampling == EVERY_STEP or capability == ON_PUBLISH


#: The reference policy: full trace, observers after every step (``run``).
INSTRUMENTED = ExecutionPolicy(name="instrumented", sampling=EVERY_STEP, collect_trace=True)

#: The slim policy: no trace, publication-gated observers (``run_fast``).
FAST = ExecutionPolicy(name="fast", sampling=ON_PUBLISH, collect_trace=False)

#: The fast policy with the full trace retained (``run_fast(collect_trace=True)``).
FAST_TRACED = ExecutionPolicy(name="fast+trace", sampling=ON_PUBLISH, collect_trace=True)


def trace_sampling(stride: int) -> ExecutionPolicy:
    """A fast policy that also records every ``stride``-th executed step.

    Useful for long experiment runs that want a schedule fingerprint (which
    processes dominated which stretches) without paying for — or storing —
    the full trace.
    """
    return ExecutionPolicy(
        name=f"trace-sampling/{stride}",
        sampling=ON_PUBLISH,
        collect_trace=True,
        trace_stride=stride,
    )


def _check_max_steps(max_steps: Optional[int]) -> None:
    if max_steps is not None and max_steps < 1:
        raise SimulationError(
            f"max_steps must be a positive step budget, got {max_steps}; "
            "a run that may execute zero steps is almost certainly a bug "
            "(omit max_steps to run a finite schedule to its end)"
        )


def normalize_source(
    n: int, schedule: "ScheduleSource", max_steps: Optional[int]
) -> Tuple[Iterator[ProcessId], int]:
    """Resolve a schedule source into ``(step iterator, step budget)``.

    Budget semantics: for a finite :class:`Schedule` or
    :class:`~repro.core.schedule.CompiledSchedule` the budget is its length,
    capped by ``max_steps`` when given; an :class:`InfiniteSchedule` (or any
    bare iterable when ``max_steps`` is given) is budgeted at exactly
    ``max_steps``; a bare iterable without ``max_steps`` is materialized and
    budgeted at its full length.  An explicit ``max_steps`` must be positive —
    a budget of zero or fewer steps would silently execute nothing, which has
    never been what the caller meant, so it is rejected with
    :class:`SimulationError`.
    """
    _check_max_steps(max_steps)
    if isinstance(schedule, CompiledSchedule):
        if schedule.n != n:
            raise SimulationError(
                f"schedule over Π{schedule.n} cannot drive a simulator over Π{n}"
            )
        steps = schedule.steps
        budget = len(steps) if max_steps is None else min(max_steps, len(steps))
        return iter(steps), budget
    if isinstance(schedule, Schedule):
        if schedule.n != n:
            raise SimulationError(
                f"schedule over Π{schedule.n} cannot drive a simulator over Π{n}"
            )
        budget = len(schedule) if max_steps is None else min(max_steps, len(schedule))
        return iter(schedule.steps), budget
    if isinstance(schedule, InfiniteSchedule):
        if schedule.n != n:
            raise SimulationError(
                f"schedule over Π{schedule.n} cannot drive a simulator over Π{n}"
            )
        if max_steps is None:
            raise SimulationError("an unbounded schedule needs an explicit max_steps")
        return schedule.iter_steps(), max_steps
    if max_steps is None:
        materialized = list(schedule)
        return iter(materialized), len(materialized)
    return iter(schedule), max_steps


def check_observer_capabilities(policy: ExecutionPolicy, entries) -> None:
    """Reject observer/policy combinations that would silently under-sample."""
    blocking = [entry for entry in entries if not policy.supports(entry.capability)]
    if blocking:
        names = ", ".join(
            getattr(entry.observer, "__name__", None) or repr(entry.observer)
            for entry in blocking
        )
        raise SimulationError(
            f"execution policy {policy.name!r} samples observers only on output "
            f"publication, but {len(blocking)} attached observer(s) declare the "
            f"'{EVERY_STEP}' capability: {names}. Run under the instrumented "
            "policy (Simulator.run) instead, or register the observer with "
            "add_observer(observer, capability='on_publish') if it only records "
            "output changes."
        )


def execute(
    simulator: "Simulator",
    schedule: "ScheduleSource",
    max_steps: Optional[int] = None,
    stop_condition: Optional["StopCondition"] = None,
    policy: ExecutionPolicy = INSTRUMENTED,
) -> "RunResult":
    """Drive ``simulator`` over ``schedule`` under ``policy``.

    This is the single step loop behind :meth:`Simulator.run`,
    :meth:`Simulator.run_fast` and :meth:`Simulator.run_with_policy`.  For a
    fixed ``(schedule, max_steps, stop_condition)`` every policy executes
    exactly the same steps — the same register operations, halting behaviour,
    final outputs and step counts; policies only choose what is *recorded*
    along the way (see :class:`ExecutionPolicy`).

    When nothing is recorded at all — no observers attached, no trace
    collected, no stop condition — the per-step recording branches are dead,
    and the kernel selects the specialized :func:`_execute_bare` loop up
    front.
    """
    step_iter, budget = normalize_source(simulator.n, schedule, max_steps)
    entries = simulator.observer_entries()
    check_observer_capabilities(policy, entries)
    if not entries and stop_condition is None and not policy.collect_trace:
        if isinstance(schedule, CompiledSchedule) and budget == len(schedule.steps):
            # The whole buffer is the budget: iterate the array itself and
            # credit per-process step counts in bulk from the shared tally.
            return _execute_bare_counted(simulator, schedule.steps, schedule.step_counts())
        return _execute_bare(simulator, islice(step_iter, budget))
    return _execute_general(simulator, step_iter, budget, stop_condition, policy, entries)


def _execute_general(
    simulator: "Simulator",
    step_iter: Iterator[ProcessId],
    budget: int,
    stop_condition: Optional["StopCondition"],
    policy: ExecutionPolicy,
    entries,
) -> "RunResult":
    """The fully featured step loop: observers, trace recording, stop conditions."""
    from .simulator import RunResult  # local import: simulator imports this module

    observers = [entry.observer for entry in entries]
    sample_observers = bool(observers)
    sample_every = policy.sampling == EVERY_STEP
    collect = policy.collect_trace
    stride = policy.trace_stride
    registers = simulator.registers
    arena = registers.arena_view()
    slot_get = arena.slots.get
    values = arena.values
    read_counts = arena.read_counts
    write_counts = arena.write_counts
    writers = arena.writers
    resolve_slot = registers.resolve_slot
    strict = simulator.strict
    n = simulator.n
    trace = simulator._trace
    executed_steps: List[ProcessId] = []
    # pid-indexed tables beat dict lookups in the hot loop; slot 0 unused.
    state_table: List[Optional["ProcessState"]] = [None] * (n + 1)
    for known_pid, known_state in simulator._states.items():
        state_table[known_pid] = known_state
    last_versions: List[int] = [-1] * (n + 1)
    stopped_early = False
    step_index = simulator._step_index
    start_index = step_index
    try:
        for pid in islice(step_iter, budget):
            state = state_table[pid] if 0 < pid <= n else None
            if state is None:
                raise SimulationError(f"unknown process id {pid}")
            automaton = state.automaton
            if state.halted:
                if strict:
                    raise SimulationError(
                        f"process {pid} was scheduled after its program returned"
                    )
            else:
                if state.started:
                    generator = state.generator
                    send_value = state.pending_result
                else:
                    generator = simulator._start_program(state)
                    send_value = None
                try:
                    op = generator.send(send_value)
                except StopIteration as stop:
                    simulator._halt(state, stop)
                else:
                    op_type = type(op)
                    if op_type is ReadOp:
                        slot = slot_get(op.register)
                        if slot is None:
                            slot = resolve_slot(op.register)
                        read_counts[slot] += 1
                        state.pending_result = values[slot]
                    elif op_type is WriteOp:
                        slot = slot_get(op.register)
                        if slot is None:
                            slot = resolve_slot(op.register)
                        owner = writers[slot]
                        if owner is not None and owner != pid:
                            arena.write(slot, op.value, pid)  # raises the canonical error
                        write_counts[slot] += 1
                        values[slot] = op.value
                        state.pending_result = None
                    elif op_type is BoundReadOp:
                        slot = op.slot
                        read_counts[slot] += 1
                        state.pending_result = values[slot]
                    elif op_type is BoundWriteOp:
                        slot = op.slot
                        owner = writers[slot]
                        if owner is not None and owner != pid:
                            arena.write(slot, op.value, pid)  # raises the canonical error
                        write_counts[slot] += 1
                        values[slot] = op.value
                        state.pending_result = None
                    else:
                        # Exact-type checks above keep the hot path cheap;
                        # ReadOp/WriteOp *subclasses* (legal per
                        # validate_operation) take this slower branch, and
                        # anything else fails validation loudly.
                        operation = validate_operation(op)
                        if is_read_operation(operation):
                            state.pending_result = registers.read(
                                operation.register, reader=pid
                            )
                        else:
                            registers.write(operation.register, operation.value, writer=pid)
                            state.pending_result = None
            state.steps_taken += 1
            step_index += 1
            if collect and (stride == 1 or (step_index - start_index - 1) % stride == 0):
                trace.append(pid)
                executed_steps.append(pid)
            if sample_observers:
                if sample_every:
                    simulator._step_index = step_index
                    for observer in observers:
                        observer(step_index, pid, simulator)
                else:
                    version = automaton.outputs_version
                    if last_versions[pid] != version:
                        last_versions[pid] = version
                        simulator._step_index = step_index
                        for observer in observers:
                            observer(step_index, pid, simulator)
            if stop_condition is not None:
                simulator._step_index = step_index
                if stop_condition(step_index, simulator):
                    stopped_early = True
                    break
    finally:
        simulator._step_index = step_index
    return RunResult(
        executed_schedule=Schedule(steps=tuple(executed_steps), n=n),
        steps_executed=step_index - start_index,
        stopped_early=stopped_early,
        halted_processes=simulator.halted_processes(),
        outputs={
            pid: dict(state.automaton.outputs) for pid, state in simulator._states.items()
        },
    )


def _execute_bare(simulator: "Simulator", source: Iterable[ProcessId]) -> "RunResult":
    """Adapter: run an arbitrary budgeted step source through the bare loop.

    The source is materialized into a flat buffer and tallied once (one
    C-speed pass over at most the budget), then executed by
    :func:`_execute_bare_counted` — there is exactly one bare loop body to
    keep equivalent with the general loop.

    Raw iterables — unlike compiled buffers and :class:`Schedule` objects —
    are not validated at construction, and the bare loop's pid-indexed tables
    must never be indexed with an out-of-range pid (a negative id would alias
    a real process).  The tally pass doubles as that validation: when the
    buffer mentions an unknown pid, the valid prefix executes normally and
    the run fails at the offending step with the same error and exact
    accounting the general loop produces.
    """
    buffer = source if isinstance(source, array) else array("i", source)
    counter = Counter(buffer)
    n = simulator.n
    if any(not 1 <= pid <= n for pid in counter):
        bad_index, bad_pid = next(
            (index, pid) for index, pid in enumerate(buffer) if not 1 <= pid <= n
        )
        prefix = buffer[:bad_index]
        _execute_bare_counted(simulator, prefix, dict(Counter(prefix)))
        raise SimulationError(f"unknown process id {bad_pid}")
    counts = {pid: counter.get(pid, 0) for pid in simulator._states}
    return _execute_bare_counted(simulator, buffer, counts)



def _execute_bare_counted(
    simulator: "Simulator", buffer: Sequence[ProcessId], counts: Dict[ProcessId, int]
) -> "RunResult":
    """The bare loop: the single no-instrumentation body behind both entries.

    ``buffer`` holds exactly the budgeted steps — a whole
    :class:`CompiledSchedule` array with its cached
    :meth:`~CompiledSchedule.step_counts` tally, or any other source
    materialized, tallied and pid-validated by the :func:`_execute_bare`
    adapter; every buffered pid is known to lie in ``1..n``, which is what
    lets the loop keep its per-process ``sends``/``pending`` tables as flat
    pid-indexed lists instead of dicts.  Because a completed run executes
    every buffered step, ``steps_taken`` can be credited in bulk after the
    loop instead of being counted per step — the loop only keeps a plain
    running total so that an exception (a single-writer violation, an
    algorithm bug) still leaves exact accounting: on the error path the
    partial per-process tally is recounted from the consumed buffer prefix.
    """
    from .simulator import RunResult  # local import: simulator imports this module

    registers = simulator.registers
    arena = registers.arena_view()
    slot_get = arena.slots.get
    values = arena.values
    read_counts = arena.read_counts
    write_counts = arena.write_counts
    writers = arena.writers
    resolve_slot = registers.resolve_slot
    registers_read = registers.read
    registers_write = registers.write
    strict = simulator.strict
    n = simulator.n
    states = simulator._states
    halt = simulator._halt
    read_op, write_op = ReadOp, WriteOp
    bound_read_op, bound_write_op = BoundReadOp, BoundWriteOp
    # pid-indexed tables (slot 0 unused): a list index beats a dict probe on
    # every step, and the adapter/compiled-buffer validation guarantees every
    # buffered pid is a real index.
    sends: List[Optional[Callable[[Any], Any]]] = [None] * (n + 1)
    pending: List[Any] = [None] * (n + 1)
    for pid, state in states.items():
        if not state.halted and state.started:
            sends[pid] = state.generator.send
            pending[pid] = state.pending_result
    executed = 0
    try:
        for pid in buffer:
            send = sends[pid]
            if send is None:
                # Cold paths: a process's first step and halted processes.
                state = states[pid]
                if state.halted:
                    if strict:
                        raise SimulationError(
                            f"process {pid} was scheduled after its program returned"
                        )
                    executed += 1
                    continue
                send = simulator._start_program(state).send
                sends[pid] = send
                send_value = None
            else:
                send_value = pending[pid]
            try:
                op = send(send_value)
            except StopIteration as stop:
                state = states[pid]
                state.pending_result = pending[pid]
                pending[pid] = None
                halt(state, stop)
                sends[pid] = None
            else:
                op_type = type(op)
                if op_type is read_op:
                    slot = slot_get(op.register)
                    if slot is None:
                        slot = resolve_slot(op.register)
                    read_counts[slot] += 1
                    pending[pid] = values[slot]
                elif op_type is write_op:
                    slot = slot_get(op.register)
                    if slot is None:
                        slot = resolve_slot(op.register)
                    owner = writers[slot]
                    if owner is not None and owner != pid:
                        arena.write(slot, op.value, pid)  # raises the canonical error
                    write_counts[slot] += 1
                    values[slot] = op.value
                    pending[pid] = None
                elif op_type is bound_read_op:
                    slot = op.slot
                    read_counts[slot] += 1
                    pending[pid] = values[slot]
                elif op_type is bound_write_op:
                    slot = op.slot
                    owner = writers[slot]
                    if owner is not None and owner != pid:
                        arena.write(slot, op.value, pid)  # raises the canonical error
                    write_counts[slot] += 1
                    values[slot] = op.value
                    pending[pid] = None
                else:
                    operation = validate_operation(op)
                    if is_read_operation(operation):
                        pending[pid] = registers_read(operation.register, reader=pid)
                    else:
                        registers_write(operation.register, operation.value, writer=pid)
                        pending[pid] = None
            executed += 1
    finally:
        if executed == len(buffer):
            for pid, count in counts.items():
                if count:
                    states[pid].steps_taken += count
        else:
            for pid in buffer[:executed]:
                states[pid].steps_taken += 1
        for pid in range(1, n + 1):
            if sends[pid] is not None:
                states[pid].pending_result = pending[pid]
        simulator._step_index += executed
    return RunResult(
        executed_schedule=Schedule(steps=(), n=n),
        steps_executed=executed,
        stopped_early=False,
        halted_processes=simulator.halted_processes(),
        outputs={pid: dict(state.automaton.outputs) for pid, state in states.items()},
    )


def _materialize_for_batch(
    n: int, schedule: "ScheduleSource", max_steps: Optional[int]
) -> CompiledSchedule:
    """Turn any schedule source into a shared, re-iterable compiled buffer.

    Batch execution drives every replica over the *same* steps, so one-shot
    iterables must be materialized exactly once.  Budget semantics mirror
    :func:`normalize_source`.
    """
    _check_max_steps(max_steps)
    if isinstance(schedule, (CompiledSchedule, Schedule, InfiniteSchedule)):
        if schedule.n != n:
            raise SimulationError(
                f"schedule over Π{schedule.n} cannot drive a simulator over Π{n}"
            )
        if isinstance(schedule, CompiledSchedule):
            return schedule
        if isinstance(schedule, Schedule):
            return CompiledSchedule(n=n, steps=schedule.steps, description="materialized")
        if max_steps is None:
            raise SimulationError("an unbounded schedule needs an explicit max_steps")
        return CompiledSchedule(
            n=n,
            steps=islice(schedule.iter_steps(), max_steps),
            crash_steps={pid: 0 for pid in schedule.faulty},
            description=schedule.description,
        )
    steps = iter(schedule)
    if max_steps is not None:
        steps = islice(steps, max_steps)
    return CompiledSchedule(n=n, steps=steps, description="materialized")


def align_replica_arenas(
    simulators: Sequence["Simulator"],
) -> Optional[Dict[RegisterName, int]]:
    """Lay replica register state out as value columns over one shared slot map.

    The canonical slot order is the longest replica's interning order.  When
    every replica's order is a prefix of it — true by construction for
    identically built replicas, the campaign and benchmark case — the missing
    tail names are interned into the shorter replicas (with each file's own
    declared defaults), after which slot ``i`` names the same register in
    every replica and ``[sim.registers.arena_view().values for sim in
    simulators]`` is a set of aligned per-replica value columns over one
    logical slot map.  Identically built replicas executing the same
    schedule also *stay* aligned, because they intern lazily created
    registers in the same order.

    Returns the shared ``name → slot`` map when the replicas align.  When
    pre-existing interning orders diverge, alignment is impossible without
    renumbering live slots (which bound ops forbid), so the function returns
    ``None`` and leaves every arena untouched — per-replica dispatch stays
    correct regardless, and no replica's register namespace is polluted with
    another algorithm's names.
    """
    sims = list(simulators)
    if not sims:
        return None
    arenas = [sim.registers.arena_view() for sim in sims]
    canonical = max(arenas, key=len)
    canonical_names = canonical.names
    for arena in arenas:
        if arena is not canonical and arena.names != canonical_names[: len(arena)]:
            return None
    for sim, arena in zip(sims, arenas):
        if arena is canonical or len(arena) == len(canonical_names):
            continue
        resolve_slot = sim.registers.resolve_slot
        for name in canonical_names[len(arena):]:
            resolve_slot(name)
    return dict(canonical.slots)


def _filtered_buffer(
    steps: Sequence[ProcessId], budget: int, mask: Mapping[ProcessId, int]
) -> array:
    """The budgeted buffer with a crash mask's dead steps deleted."""
    return array(
        "i",
        (
            pid
            for index, pid in enumerate(islice(iter(steps), budget))
            if index < mask.get(pid, budget)
        ),
    )


def _normalize_crash_masks(
    crash_steps: Optional[Sequence[Optional[Dict[ProcessId, int]]]],
    batch_size: int,
    n: int,
) -> Optional[List[Optional[Dict[ProcessId, int]]]]:
    """Validate per-replica crash masks: one mapping (or ``None``) per replica."""
    if crash_steps is None:
        return None
    masks = list(crash_steps)
    if len(masks) != batch_size:
        raise SimulationError(
            f"crash_steps carries {len(masks)} mask(s) for {batch_size} replica(s); "
            "pass exactly one mapping (or None) per replica"
        )
    normalized: List[Optional[Dict[ProcessId, int]]] = []
    for mask in masks:
        if mask is None:
            normalized.append(None)
            continue
        for pid, step in mask.items():
            if not (isinstance(pid, int) and 1 <= pid <= n):
                raise SimulationError(f"crash mask names unknown process id {pid!r}")
            if not (isinstance(step, int) and step >= 0):
                raise SimulationError(
                    f"crash mask for process {pid} must be a step index >= 0, got {step!r}"
                )
        normalized.append(dict(mask))
    return normalized


def execute_batch(
    simulators: Sequence["Simulator"],
    schedule: "ScheduleSource",
    max_steps: Optional[int] = None,
    policy: ExecutionPolicy = FAST,
    crash_steps: Optional[Sequence[Optional[Dict[ProcessId, int]]]] = None,
) -> List["RunResult"]:
    """Drive a batch of independent replicas over one shared schedule source.

    All replicas must live over the same ``Πn``.  The source is normalized
    once (non-re-iterable sources are materialized into a shared
    :class:`~repro.core.schedule.CompiledSchedule` buffer) and the replicas'
    register arenas are slot-aligned (:func:`align_replica_arenas`), then each
    replica is executed to the same step budget under ``policy``, one replica
    at a time: the bare counted loop when it attaches no observers and the
    policy records no trace, the general loop otherwise.  Results come back
    in replica order and are identical to
    ``[execute(sim, schedule, max_steps, None, policy) for sim in simulators]``.

    ``crash_steps``, when given, is one crash mask per replica (a mapping
    ``pid -> schedule step index``, or ``None``): replica ``i`` skips every
    step of a masked process at schedule index ``>= crash_steps[i][pid]`` —
    equivalently it runs the shared buffer with those steps deleted.  This is
    the same convention as
    :attr:`~repro.core.schedule.CompiledSchedule.crash_steps`, applied
    per-replica so one compiled schedule can drive a batch of replicas with
    diverging failure patterns.
    """
    sims = list(simulators)
    if not sims:
        return []
    n = sims[0].n
    for sim in sims[1:]:
        if sim.n != n:
            raise SimulationError(
                f"execute_batch needs replicas over one Πn, got n={n} and n={sim.n}"
            )
    masks = _normalize_crash_masks(crash_steps, len(sims), n)
    align_replica_arenas(sims)
    compiled = _materialize_for_batch(n, schedule, max_steps)
    steps = compiled.steps
    budget = len(steps) if max_steps is None else min(max_steps, len(steps))
    whole_buffer = budget == len(steps)
    counts = compiled.step_counts() if whole_buffer else None
    results: List["RunResult"] = []
    for index, sim in enumerate(sims):
        mask = masks[index] if masks is not None else None
        entries = sim.observer_entries()
        check_observer_capabilities(policy, entries)
        bare = not entries and not policy.collect_trace
        if mask:
            filtered = _filtered_buffer(steps, budget, mask)
            if bare:
                results.append(_execute_bare(sim, filtered))
            else:
                results.append(
                    _execute_general(
                        sim, iter(filtered), len(filtered), None, policy, entries
                    )
                )
        elif bare:
            if whole_buffer:
                results.append(_execute_bare_counted(sim, steps, counts))
            else:
                results.append(_execute_bare(sim, islice(iter(steps), budget)))
        else:
            results.append(
                _execute_general(sim, iter(steps), budget, None, policy, entries)
            )
    return results


def execute_multi_batch(
    simulators: Sequence["Simulator"],
    schedules: Sequence["ScheduleSource"],
    max_steps: Optional[int] = None,
    policy: ExecutionPolicy = FAST,
    crash_steps: Optional[Sequence[Optional[Dict[ProcessId, int]]]] = None,
    checkpoints: Optional[int] = None,
    snapshot_keys: Sequence[str] = (),
) -> MultiBatchResult:
    """Drive a batch of replicas, each over its **own** schedule source.

    The multi-schedule sibling of :func:`execute_batch` and the reference
    routine for checkpointed per-replica execution: replica ``i`` executes
    ``schedules[i]`` (budgeted to ``max_steps`` when given) under ``policy``
    through the per-replica kernel loops — the bare loop when it carries no
    observers, the general loop otherwise — so the results are identical to
    running each replica alone over its own schedule.  All replicas must live
    over the same ``Πn``; schedules may differ arbitrarily in steps, length
    and crash metadata.  ``crash_steps`` carries one per-replica mask with
    :func:`execute_batch` semantics, applied to that replica's own buffer.

    When ``checkpoints`` is given, each replica's effective (post-mask)
    buffer of ``L`` steps is split into ``checkpoints`` contiguous segments
    with bounds ``(L * i) // checkpoints``, and the published outputs under
    ``snapshot_keys`` are snapshotted for every process after each segment;
    zero-length segments execute nothing and repeat the previous snapshot.
    The snapshots come back on
    :attr:`~repro.runtime.backends.MultiBatchResult.snapshots` — the
    checkpointed-extraction contract every search screen judges from.
    Policies that collect traces are not supported — multi-schedule runs
    have no single shared executed schedule to record.
    """
    from .simulator import RunResult  # local import: simulator imports this module

    sims = list(simulators)
    sources = list(schedules)
    if len(sims) != len(sources):
        raise SimulationError(
            f"execute_multi_batch got {len(sims)} replica(s) and "
            f"{len(sources)} schedule(s); pass exactly one schedule per replica"
        )
    if policy.collect_trace:
        raise SimulationError(
            "execute_multi_batch does not support trace-collecting policies; "
            "replicas run heterogeneous buffers with no shared schedule to record"
        )
    if checkpoints is not None and checkpoints < 1:
        raise ConfigurationError(f"checkpoints must be >= 1, got {checkpoints}")
    if not sims:
        return MultiBatchResult(
            results=[], snapshots=[] if checkpoints is not None else None
        )
    n = sims[0].n
    for sim in sims[1:]:
        if sim.n != n:
            raise SimulationError(
                f"execute_multi_batch needs replicas over one Πn, got n={n} and n={sim.n}"
            )
    masks = _normalize_crash_masks(crash_steps, len(sims), n) or [None] * len(sims)
    buffers = []
    for source, mask in zip(sources, masks):
        steps = _materialize_for_batch(n, source, max_steps).steps
        if max_steps is not None:
            steps = steps[:max_steps]
        buffers.append(_filtered_buffer(steps, len(steps), mask) if mask else steps)
    align_replica_arenas(sims)
    segments = checkpoints or 1
    results: List["RunResult"] = []
    all_snapshots: Optional[List[List[Dict[ProcessId, Dict[str, Any]]]]] = (
        [] if checkpoints is not None else None
    )
    for sim, buffer in zip(sims, buffers):
        entries = sim.observer_entries()
        check_observer_capabilities(policy, entries)
        total = len(buffer)
        bounds = [(total * index) // segments for index in range(segments + 1)]
        executed = 0
        snapshots = []
        for start, end in zip(bounds, bounds[1:]):
            if end > start:
                segment = buffer[start:end]
                if entries:
                    part = _execute_general(
                        sim, iter(segment), end - start, None, policy, entries
                    )
                else:
                    part = _execute_bare(sim, segment)
                executed += part.steps_executed
            if all_snapshots is not None:
                snapshots.append(
                    {
                        pid: {key: sim.output_of(pid, key) for key in snapshot_keys}
                        for pid in range(1, n + 1)
                    }
                )
        results.append(
            RunResult(
                executed_schedule=Schedule(steps=(), n=n),
                steps_executed=executed,
                stopped_early=False,
                halted_processes=sim.halted_processes(),
                outputs={
                    pid: dict(state.automaton.outputs)
                    for pid, state in sim._states.items()
                },
            )
        )
        if all_snapshots is not None:
            all_snapshots.append(snapshots)
    return MultiBatchResult(results=results, snapshots=all_snapshots)
