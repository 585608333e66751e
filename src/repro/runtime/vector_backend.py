"""The sim-free numpy anti-Ω screen: a whole search generation as flat lanes.

:func:`anti_omega_screen_snapshots` runs the Figure 2 k-anti-Ω algorithm for
every candidate schedule of a search generation at once, without building a
single :class:`~repro.runtime.simulator.Simulator`: each ``(candidate,
process)`` pair is one lane of flat numpy arrays, advanced by a small phase
machine over the time axis.  It returns the checkpoint snapshots the
convergence screens judge from, identical to the ones the reference screen
collects through :func:`~repro.runtime.kernel.execute_multi_batch`
(``tests/search/test_screen_generation.py`` pins the verdicts equal).

It is the only numpy code in the package.  numpy is an optional extra
(``pip install "repro-set-timeliness[vector]"``); the module imports without
it, and the screen then raises :class:`UnsupportedLowering` so
:func:`~repro.search.properties.screen_generation` falls back to the
per-candidate reference screen:

>>> try:
...     anti_omega_screen_snapshots(4, 2, 2, [], 8, ["leader"])
... except UnsupportedLowering:
...     print("reference screen")
reference screen
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

try:  # numpy is the optional [vector] extra; the screen checks before use.
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching in tests
    np = None

from ..errors import ConfigurationError
from ..failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    constant_timeout_policy,
    doubling_timeout_policy,
    k_subsets,
    max_accusation_statistic,
    median_accusation_statistic,
    min_accusation_statistic,
    paper_accusation_statistic,
    paper_timeout_policy,
)
from ..failure_detectors.base import FD_OUTPUT, WINNER_SET
from ..memory.registers import RegisterFile
from .backends import Snapshot


class UnsupportedLowering(Exception):
    """Raised when a generation cannot take the numpy screen.

    :func:`~repro.search.properties.screen_generation` catches it and falls
    back to the per-candidate reference screen under ``backend="auto"`` (or
    raises :class:`~repro.errors.SimulationError` under ``"vector"``); the
    message becomes the recorded fallback reason.
    """


#: Vectorized forms of the registry accusation statistics, keyed by identity.
_STATISTIC_LOWERINGS: Dict[Callable, Callable] = {
    paper_accusation_statistic: lambda counters, t: np.sort(counters, axis=2)[:, :, t],
    min_accusation_statistic: lambda counters, t: counters.min(axis=2),
    max_accusation_statistic: lambda counters, t: counters.max(axis=2),
    median_accusation_statistic: lambda counters, t: np.sort(counters, axis=2)[
        :, :, (counters.shape[2] - 1) // 2
    ],
}

#: Vectorized forms of the registry timeout policies, keyed by identity.
_POLICY_LOWERINGS: Dict[Callable, Callable] = {
    paper_timeout_policy: lambda timeouts: timeouts + 1,
    doubling_timeout_policy: lambda timeouts: timeouts * 2,
    constant_timeout_policy: lambda timeouts: timeouts,
}


def anti_omega_screen_snapshots(
    n: int,
    t: int,
    k: int,
    compileds: Sequence[Any],
    checkpoints: int,
    keys: Sequence[str],
    accusation_statistic: Callable = paper_accusation_statistic,
    timeout_policy: Callable = paper_timeout_policy,
) -> List[List[Snapshot]]:
    """Checkpoint snapshots for a whole generation of anti-Ω screens, sim-free.

    The convergence screens need only two things per candidate: the published
    ``FD_OUTPUT`` / ``WINNER_SET`` values at ``checkpoints`` evenly spaced
    boundaries of the candidate's schedule.  Building one
    :class:`~repro.runtime.simulator.Simulator` per candidate costs more than
    half a millisecond before the first step runs, so this kernel drops the
    simulator stack entirely: every ``(candidate, process)`` pair becomes one
    *lane* whose Figure 2 interpreter state (counter matrix, heartbeat
    tracking, timers, timeouts, pending accusations) lives in flat numpy
    arrays, and a single pass over the time axis advances each lane through a
    small phase machine — counter-sweep reads, the heartbeat write (where
    winner selection and publication land, exactly as in the reference
    generator), heartbeat reads with timer resets, and the pending
    counter-write queue.  Register state is a dense ``(batch × slots)`` int64
    matrix (every Figure 2 register is declared with initial value 0, so no
    ``None`` tracking is needed).

    Timing is conformant at the observable level: published values and
    register writes land on exactly the reference step indices; purely local
    bookkeeping (timer resets and the expiry cascade) runs one step earlier
    than the generator interleaving, which no read or snapshot can detect.

    Candidates run their *own* schedules — rows are sorted by length
    (descending) internally so live lanes stay a contiguous prefix — and the
    returned snapshots are in the original candidate order:
    ``result[row][i][pid][key]`` is the value published by ``pid`` after
    ``(L_row * (i + 1)) // checkpoints`` steps (``None`` before the first
    publication), byte-identical to the snapshots the reference screen
    collects through :func:`~repro.runtime.kernel.execute_multi_batch`.

    Raises :class:`UnsupportedLowering` when the batch cannot take this lane
    (numpy missing, a non-registry statistic/policy, keys beyond
    ``FD_OUTPUT``/``WINNER_SET``, or a candidate over a different ``n``) so
    callers can fall back to the reference screen, and
    :class:`~repro.errors.ConfigurationError` for invalid ``checkpoints``.
    """
    if np is None:
        raise UnsupportedLowering(
            "numpy is not installed (the [vector] optional extra)"
        )
    if checkpoints < 1:
        raise ConfigurationError(
            f"checkpoints must be a positive count, got {checkpoints}"
        )
    statistic = _STATISTIC_LOWERINGS.get(accusation_statistic)
    policy = _POLICY_LOWERINGS.get(timeout_policy)
    if statistic is None or policy is None:
        raise UnsupportedLowering(
            "anti-Ω accusation statistic / timeout policy has no vector lowering "
            "(only the registry statistics and policies are vectorized)"
        )
    unknown = [key for key in keys if key not in (FD_OUTPUT, WINNER_SET)]
    if unknown:
        raise UnsupportedLowering(
            f"the anti-Ω screen kernel tracks {FD_OUTPUT!r} and {WINNER_SET!r} "
            f"only, not {unknown!r}"
        )
    compiled_list = list(compileds)
    batch = len(compiled_list)
    if batch == 0:
        return []
    for compiled in compiled_list:
        if compiled.n != n:
            raise UnsupportedLowering(
                f"candidate over {compiled.n} processes in a screen over {n}"
            )

    # Slot layout from a template register file (no simulators anywhere).
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    ksets = k_subsets(n, k)
    kset_count = len(ksets)
    sweep_len = kset_count * n
    write_base = sweep_len + n + 1  # phases: sweep | hb write | hb reads | writes
    slot_count = len(registers.arena_view())
    resolve = registers.resolve_slot
    sweep_slot = np.array(
        [
            resolve(("Counter", ksets[flat // n], (flat % n) + 1))
            for flat in range(sweep_len)
        ],
        dtype=np.int64,
    )
    heartbeat_slot = np.array(
        [0] + [resolve(("Heartbeat", q)) for q in range(1, n + 1)], dtype=np.int64
    )
    counter_write_slot = np.zeros((n + 1, kset_count), dtype=np.int64)
    for p in range(1, n + 1):
        for j, a_set in enumerate(ksets):
            counter_write_slot[p, j] = resolve(("Counter", a_set, p))
    reset_table = np.zeros((n + 1, kset_count), dtype=bool)
    for q in range(1, n + 1):
        for j, a_set in enumerate(ksets):
            reset_table[q, j] = q in a_set
    fd_objects = [
        frozenset(range(1, n + 1)) - frozenset(a_set) for a_set in ksets
    ]

    # Rows sorted by schedule length (descending): live rows stay a prefix.
    lengths = np.array([len(compiled) for compiled in compiled_list], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lengths_sorted = lengths[order]
    horizon = int(lengths_sorted[0])
    matrix = np.zeros((horizon, batch), dtype=np.int64)
    for position, row in enumerate(order.tolist()):
        steps = compiled_list[row].steps
        if len(steps):
            matrix[: len(steps), position] = np.frombuffer(steps, dtype=np.int32)
    ascending = np.sort(lengths)
    active_counts = batch - np.searchsorted(ascending, np.arange(horizon), side="right")

    # Interpreter state, one lane per (position, pid); lane = position*(n+1)+pid.
    pid_lanes = n + 1
    lanes = batch * pid_lanes
    phase = np.zeros(lanes, dtype=np.int64)
    cnt = np.zeros((lanes, kset_count, n), dtype=np.int64)
    cnt_flat = cnt.reshape(-1)
    prev_heartbeat = np.zeros((lanes, n), dtype=np.int64)
    prev_flat = prev_heartbeat.reshape(-1)
    timer = np.ones((lanes, kset_count), dtype=np.int64)
    timeout = np.ones((lanes, kset_count), dtype=np.int64)
    pending = np.zeros((lanes, kset_count), dtype=bool)
    pending_flat = pending.reshape(-1)
    my_hb = np.zeros(lanes, dtype=np.int64)
    last_winner = np.zeros(lanes, dtype=np.int64)
    has_output = np.zeros(lanes, dtype=bool)
    values_flat = np.zeros(batch * slot_count, dtype=np.int64)

    # Checkpoint events, grouped by effective-step boundary (position space).
    snap_winner = np.zeros((batch, checkpoints, n), dtype=np.int64)
    snap_has = np.zeros((batch, checkpoints, n), dtype=bool)
    events: Dict[int, List[Tuple[int, int]]] = {}
    for position in range(batch):
        total = int(lengths_sorted[position])
        for index in range(1, checkpoints + 1):
            events.setdefault((total * index) // checkpoints, []).append(
                (position, index - 1)
            )
    event_arrays = {
        boundary: (
            np.array([position for position, _ in pairs], dtype=np.intp),
            np.array([slot for _, slot in pairs], dtype=np.intp),
        )
        for boundary, pairs in events.items()
    }
    winner_lanes = last_winner.reshape(batch, pid_lanes)
    output_lanes = has_output.reshape(batch, pid_lanes)

    def capture(boundary: int) -> None:
        pair = event_arrays.get(boundary)
        if pair is not None:
            positions, slots = pair
            snap_winner[positions, slots] = winner_lanes[positions, 1:]
            snap_has[positions, slots] = output_lanes[positions, 1:]

    capture(0)
    positions_all = np.arange(batch, dtype=np.int64)
    lane_base = positions_all * pid_lanes
    value_base = positions_all * slot_count
    # Hot-loop precomputation: lane indices for the whole step matrix in one
    # vector op, and whether the sweep slots are affine in the flat sweep
    # index (they are whenever ``declare_registers`` ran on a fresh file, so
    # the table gather in the dominant band collapses to an add).
    lane_matrix = matrix + lane_base[np.newaxis, :]
    sweep_affine = np.array_equal(
        sweep_slot, n + np.arange(sweep_len, dtype=np.int64)
    )
    for index in range(horizon):
        active = int(active_counts[index])
        column = matrix[index]
        lane = lane_matrix[index]
        vbase = value_base
        if active < batch:
            column = column[:active]
            lane = lane[:active]
            vbase = vbase[:active]
        current = phase[lane]
        # Almost every lane is mid-sweep; pull the stragglers (heartbeat
        # write/reads, pending accusation writes) onto small worklists once
        # instead of testing four band masks against the full column.
        in_sweep = current < sweep_len
        if in_sweep.all():
            laggards = None
            sweep_lane = lane
            flat = current
            vb_sweep = vbase
        else:
            laggards = np.flatnonzero(~in_sweep)
            sweep_lane = lane[in_sweep]
            flat = current[in_sweep]
            vb_sweep = vbase[in_sweep]
        # Counter-sweep reads (Figure 2 lines 2-5).
        if sweep_lane.size:
            if sweep_affine:
                seen = values_flat[vb_sweep + (n + flat)]
            else:
                seen = values_flat[vb_sweep + sweep_slot[flat]]
            cnt_flat[sweep_lane * sweep_len + flat] = seen
            phase[sweep_lane] = flat + 1
        if laggards is None:
            capture(index + 1)
            continue
        lane_lag = lane[laggards]
        cur_lag = current[laggards]
        col_lag = column[laggards]
        vb_lag = vbase[laggards]
        # Heartbeat write: winner selection + publication land here (lines 5-7).
        in_write = cur_lag == sweep_len
        if in_write.any():
            write_lane = lane_lag[in_write]
            accusations = statistic(cnt[write_lane], t)
            last_winner[write_lane] = np.argmin(accusations, axis=1)
            has_output[write_lane] = True
            bumped = my_hb[write_lane] + 1
            my_hb[write_lane] = bumped
            values_flat[
                vb_lag[in_write] + heartbeat_slot[col_lag[in_write]]
            ] = bumped
            phase[write_lane] = sweep_len + 1
        # Heartbeat reads; the expiry cascade runs with the last read (8-15).
        in_read = (cur_lag > sweep_len) & (cur_lag < write_base)
        if in_read.any():
            read_lane = lane_lag[in_read]
            read_phase = cur_lag[in_read]
            target = read_phase - sweep_len  # 1-based heartbeat owner
            seen = values_flat[vb_lag[in_read] + heartbeat_slot[target]]
            prev_index = read_lane * n + (target - 1)
            newer = seen > prev_flat[prev_index]
            if newer.any():
                fresh_lane = read_lane[newer]
                prev_flat[prev_index[newer]] = seen[newer]
                resets = reset_table[target[newer]]
                timer[fresh_lane] = np.where(
                    resets, timeout[fresh_lane], timer[fresh_lane]
                )
            last = read_phase == write_base - 1
            if last.any():
                done_lane = read_lane[last]
                ticked = timer[done_lane] - 1
                expired = ticked == 0
                grown = policy(timeout[done_lane])
                timer[done_lane] = np.where(expired, grown, ticked)
                timeout[done_lane] = np.where(expired, grown, timeout[done_lane])
                pending[done_lane] = expired
                any_expired = expired.any(axis=1)
                phase[done_lane] = np.where(
                    any_expired, write_base + expired.argmax(axis=1), 0
                )
            if not last.all():
                phase[read_lane[~last]] = read_phase[~last] + 1
        # Pending accusation writes (lines 16-19), one k-set per step.
        in_accuse = cur_lag >= write_base
        if in_accuse.any():
            accuse_lane = lane_lag[in_accuse]
            accused = cur_lag[in_accuse] - write_base
            writer = col_lag[in_accuse]
            values_flat[
                vb_lag[in_accuse] + counter_write_slot[writer, accused]
            ] = cnt_flat[accuse_lane * sweep_len + accused * n + (writer - 1)] + 1
            pending_flat[accuse_lane * kset_count + accused] = False
            remaining = pending[accuse_lane]
            still = remaining.any(axis=1)
            phase[accuse_lane] = np.where(
                still, write_base + remaining.argmax(axis=1), 0
            )
        capture(index + 1)

    # Back to original candidate order, as published-object dictionaries.
    # Converged generations repeat a handful of (winner, produced) patterns
    # across tens of thousands of (row, checkpoint) cells, so snapshots are
    # interned by their per-process winner code (-1 = nothing published yet)
    # instead of built cell-by-cell.  Shared dicts are safe: snapshot
    # consumers (the ``judge_screen`` implementations) only read them, and
    # equality with the reference lane's fresh dicts is value equality.
    inverse = np.empty(batch, dtype=np.int64)
    inverse[order] = np.arange(batch, dtype=np.int64)
    want_fd = FD_OUTPUT in keys
    want_winner = WINNER_SET in keys

    def build_entry(code: int) -> Dict[str, Any]:
        entry: Dict[str, Any] = {}
        if want_fd:
            entry[FD_OUTPUT] = fd_objects[code] if code >= 0 else None
        if want_winner:
            entry[WINNER_SET] = ksets[code] if code >= 0 else None
        return entry

    entries = {code: build_entry(code) for code in range(-1, kset_count)}
    codes = np.where(snap_has, snap_winner, -1)
    snapshot_cache: Dict[bytes, Snapshot] = {}
    results: List[List[Snapshot]] = []
    for row in range(batch):
        position = int(inverse[row])
        row_codes = codes[position]
        row_snapshots: List[Snapshot] = []
        for slot in range(checkpoints):
            slot_codes = row_codes[slot]
            key = slot_codes.tobytes()
            snapshot = snapshot_cache.get(key)
            if snapshot is None:
                snapshot = {
                    pid: entries[int(slot_codes[pid - 1])]
                    for pid in range(1, n + 1)
                }
                snapshot_cache[key] = snapshot
            row_snapshots.append(snapshot)
        results.append(row_snapshots)
    return results
