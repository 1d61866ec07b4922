"""Region-sharded parallel tracing (ISSUE 5's tentpole).

Trace collection is the expensive phase of a slicing session: the whole
recorded region is re-executed with the slicing pintool attached, one
Python-level event per retired instruction.  Deterministic replay makes
that phase *partitionable*: any step of the recorded schedule is a valid
cut point, and the machine state at the cut — captured exactly the way
:mod:`repro.debugger.checkpoints` captures checkpoints — is a valid
pinball snapshot.  This module exploits that:

1. **Scout** — one *untraced* replay of the region pinball (the
   micro-op fast path, no events, several times faster than traced
   replay) that stops at ``K - 1`` planned step boundaries and
   captures, per boundary: the architectural snapshot, the syscall-log
   consumption cursors, the step clock (``global_seq``) and each
   thread's retired-instruction count.
2. **Window pinballs** — each contiguous window ``[b_i, b_{i+1})`` of
   the schedule becomes a self-contained pinball (``meta.kind ==
   "region_shard"``): boundary snapshot, RLE schedule slice, per-thread
   syscall-log suffix.  Window 0 needs no scouting (its start state *is*
   the region pinball's) and is dispatched before the scout even runs;
   every later window is dispatched the moment its boundary is captured,
   so tracing overlaps the scout.
3. **Parallel trace** — a :class:`~repro.serve.workers.WorkerPool` of
   ``min(shards, cpus)`` processes replays the windows concurrently.
   Two worker modes exist, picked per program:

   * **Columns mode** (the fast path, ``plan.mode == "columns"``): each
     worker runs a *full* seam-aware :class:`TraceCollector` over its
     window and ships finished columnar shards (statics pool + row
     indices + dynamic tuples, ``marshal``-encoded) with global thread
     indices — the boundary metadata seeds ``global_seq`` and each
     thread's retired-instruction count, and frame ids restore from the
     snapshot, so worker-local analyses already speak the serial
     numbering.  The only thing a worker *cannot* know is state opened
     before its window: control regions still on the stack and
     save/restore frames still open at the seam.  Whenever a worker
     analysis would have consulted that pre-window state it records a
     compact *seam event* instead; the parent replays those events
     against the live def maps it carries across seams — the open
     control-region frontier (patching the few rows whose
     control-dependence parent lives in an earlier window) and the open
     save map (verifying save/restore pairs that straddle a seam) —
     then appends the worker's final open state as the carry into the
     next window.
   * **Stitch mode** (``plan.mode == "stitch"``): with CFG refinement
     enabled *and* indirect jumps present, control-dependence regions
     depend on the refinement order across the whole run — worker-local
     analysis would see an unrefined CFG.  Workers then fall back to
     recording portable :class:`WindowTracer` rows and the parent
     drives a real collector through them serially (analysis is not
     parallelized, but the traced replay still is).
4. **Stitch/absorb** — the parent drains the windows *in order*
   (window ``i`` is processed while windows ``i+1..`` are still being
   traced), extending its columnar store and carrying the seam state —
   open control regions, open save/restore frames — across window
   boundaries.

The result is **byte-identical** to the serial build: same per-thread
columns, same control-dependence parents, same verified save/restore
pairs, same CFG refinements — hence the same global trace, the same DDG
and the same slices (``tests/slicing/test_shard_differential.py``).
Sharding changes *when* work happens, never the result.

Fallback gates (:func:`trace_sharded` returns ``None`` and the session
runs the serial pipeline): ``shards <= 1``, ``record_values=False``
(the stitch rebuilds save/restore events from recorded values), slice
pinballs with exclusions, regions too small to be worth the process
overhead, daemonic parents (a serve worker spawned with ``daemon=True``
cannot fork children), and any worker-pool failure mid-flight.
"""

from __future__ import annotations

import marshal
import os
from array import array
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp

from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.pinplay.format_v2 import capture_state
from repro.pinplay.pinball import Pinball
from repro.pinplay.replayer import (SyscallInjector, best_checkpoint,
                                    replay_machine, resume_machine)
from repro.slicing.control_dep import ControlDepTracker, _Region
from repro.slicing.options import SliceOptions
from repro.slicing.save_restore import SaveRestoreDetector
from repro.slicing.tracer import TraceCollector
from repro.vm.hooks import InstrEvent, Tool
from repro.vm.machine import Machine, MachineSnapshot, RunResult
from repro.vm.scheduler import RecordedScheduler

__all__ = [
    "MIN_WINDOW_STEPS",
    "ShardPlan",
    "WindowTracer",
    "plan_boundaries",
    "schedule_window",
    "trace_sharded",
]

#: Smallest window worth a worker process; below ``shards * MIN_WINDOW_STEPS``
#: total steps the session silently runs the serial pipeline instead.
MIN_WINDOW_STEPS = 8

_SYS_R0_DEF = ("r0",)
_NO_REGS = ()


# -- schedule slicing ---------------------------------------------------------

def schedule_window(schedule: Sequence[Tuple[int, int]],
                    start: int, count: int,
                    prefix: Optional[Sequence[int]] = None
                    ) -> List[Tuple[int, int]]:
    """The RLE sub-schedule covering steps ``[start, start + count)``.

    ``prefix`` is the cumulative step count per RLE run (precomputed by
    the caller when slicing many windows of one schedule); the resume
    run is found by binary search, the same prefix-sum idiom
    :class:`~repro.debugger.checkpoints.CheckpointManager` uses for
    rewinds.
    """
    if count <= 0:
        return []
    if prefix is None:
        prefix = list(accumulate(c for _tid, c in schedule))
    index = bisect_right(prefix, start)
    if index >= len(schedule):
        return []
    consumed_before = prefix[index - 1] if index else 0
    offset = start - consumed_before
    out: List[Tuple[int, int]] = []
    remaining = count
    while index < len(schedule) and remaining > 0:
        tid, run = schedule[index]
        available = run - offset
        take = available if available < remaining else remaining
        if take > 0:
            out.append((tid, take))
            remaining -= take
        offset = 0
        index += 1
    return out


def plan_boundaries(total_steps: int, shards: int) -> List[int]:
    """Evenly spaced interior cut points for ``shards`` windows."""
    bounds = []
    for i in range(1, shards):
        b = total_steps * i // shards
        if 0 < b < total_steps and (not bounds or b > bounds[-1]):
            bounds.append(b)
    return bounds


class ShardPlan:
    """Diagnostics of one sharded build (exposed as session stats)."""

    __slots__ = ("shards", "boundaries", "windows", "rows", "fallback",
                 "mode")

    def __init__(self, shards: int, boundaries: List[int]) -> None:
        self.shards = shards
        self.boundaries = list(boundaries)
        self.windows: List[dict] = []
        self.rows = 0
        self.fallback: Optional[str] = None
        #: "columns" (workers run the full seam-aware collector) or
        #: "stitch" (portable rows, serial parent-side analysis — the
        #: refinement-sensitive fallback).  None until decided.
        self.mode: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "boundaries": list(self.boundaries),
            "windows": list(self.windows),
            "rows": self.rows,
            "fallback": self.fallback,
            "mode": self.mode,
        }


# -- worker side --------------------------------------------------------------

class WindowTracer(Tool):
    """Per-window row recorder (the shard worker's pintool).

    Records one flat row per retired instruction, in event-arrival
    order::

        (tid, addr, rdefs, ruses, mdefs, muses, values, frame_id, extra)

    ``rdefs``/``ruses`` are the deduped, ``sp``-filtered register
    def/use tuples exactly as :meth:`TraceCollector._append`
    would intern them (cached per pc; the SYS ``r0`` def picked per
    event); ``values`` is the written-values map; ``extra`` carries the
    one execution-time fact the stitch cannot recompute statically —
    the observed target for ``ijmp``, the callee frame id for
    ``call``/``icall``, the loaded value for ``pop`` (save/restore
    verification needs it).  Tuples are interned per window so the
    pickled payload stays compact and the stitch can canonicalize via
    an identity memo.
    """

    wants_instr_events = True
    retains_instr_events = False   # rows copy what they need

    def __init__(self, options: SliceOptions) -> None:
        self._track_sp = options.track_stack_pointer
        self._record_values = options.record_values
        self.rows: list = []
        self._machine = None
        #: pc -> (rdefs | None-for-SYS, ruses)
        self._reg_cache: Dict[int, tuple] = {}
        self._intern: dict = {}

    def on_start(self, machine) -> None:
        self._machine = machine

    def on_instr(self, event: InstrEvent) -> None:
        instr = event.instr
        op = instr.op
        addr = event.addr
        interner = self._intern

        cached = self._reg_cache.get(addr)
        if cached is None:
            track_sp = self._track_sp
            ruses = tuple(dict.fromkeys(
                name for name, _ in event.reg_reads
                if track_sp or name != "sp"))
            ruses = interner.setdefault(ruses, ruses)
            if op == Opcode.SYS:
                cached = (None, ruses)
            else:
                rdefs = tuple(dict.fromkeys(
                    name for name, _ in event.reg_writes
                    if track_sp or name != "sp"))
                rdefs = interner.setdefault(rdefs, rdefs)
                cached = (rdefs, ruses)
            self._reg_cache[addr] = cached
        rdefs, ruses = cached
        if rdefs is None:   # SYS: r0 def present iff a result was written
            rdefs = _SYS_R0_DEF if event.reg_writes else _NO_REGS

        mem_writes = event.mem_writes
        if not mem_writes:
            mdefs = _NO_REGS
        elif len(mem_writes) == 1:
            mdefs = (mem_writes[0][0],)
            mdefs = interner.setdefault(mdefs, mdefs)
        else:
            mdefs = tuple(dict.fromkeys(a for a, _ in mem_writes))
            mdefs = interner.setdefault(mdefs, mdefs)
        mem_reads = event.mem_reads
        if not mem_reads:
            muses = _NO_REGS
        elif len(mem_reads) == 1:
            muses = (mem_reads[0][0],)
            muses = interner.setdefault(muses, muses)
        else:
            muses = tuple(dict.fromkeys(a for a, _ in mem_reads))
            muses = interner.setdefault(muses, muses)

        values = None
        if self._record_values:
            values = {}
            for name, value in event.reg_writes:
                values[name] = value
            for addr_w, value in mem_writes:
                values[addr_w] = value

        extra = None
        if op == Opcode.IJMP:
            extra = int(event.reg_reads[0][1])
        elif op == Opcode.CALL or op == Opcode.ICALL:
            frames = self._machine.threads[event.tid].frames
            extra = frames[-1].frame_id if frames else None
        elif op == Opcode.POP and mem_reads:
            extra = mem_reads[0][1]

        self.rows.append((event.tid, addr, rdefs, ruses, mdefs, muses,
                          values, event.frame_id, extra))


def _trace_window(raw: bytes, program: Program,
                  options: SliceOptions) -> dict:
    """Replay one window pinball with a :class:`WindowTracer` attached."""
    pinball = Pinball.from_bytes(raw, source="<region_shard>")
    tracer = WindowTracer(options)
    machine = replay_machine(pinball, program, tools=[tracer])
    meta = pinball.meta
    # Two counters live outside the architectural snapshot and must be
    # seeded so window-relative replay looks exactly like the serial
    # replay passing through: the step clock (sleep deadlines are
    # absolute in global_seq, and sleeper fast-forwards can push it past
    # the step count) and each thread's retired-instruction count.
    machine.global_seq = int(meta.get("global_seq", 0))
    for tid_text, count in (meta.get("base_instr_counts") or {}).items():
        thread = machine.threads.get(int(tid_text))
        if thread is not None:
            thread.instr_count = int(count)
    result = machine.run(max_steps=pinball.total_steps)
    return {
        "window": int(meta.get("window", 0)),
        "rows": tracer.rows,
        "steps": result.steps,
        "retired": result.retired,
        "reason": result.reason,
    }


# -- worker side, columns mode ------------------------------------------------
#
# The worker runs a full TraceCollector with *seam-aware* analyses: the
# trackers behave exactly like the serial ones over in-window state and
# record a seam event whenever the serial run would have consulted
# pre-window state (which only the parent has).  Event vocabulary:
#
# control events, per tid and in retirement order
#   ``(tindex, addr, frame_id, kind, arg, patch)`` with ``kind`` one of
#   0=plain, 1=branch (arg = region end addr), 2=call, 3=ret.
#   ``patch=True``: the worker-local stack was empty when this row's
#   control parent was computed, so the true parent (if any) is the top
#   of the parent's carried stack — after continuing the close-loop into
#   it — and the row's ``cd`` must be patched.  ``patch=False`` (only
#   for ``ret``): the parent was local and correct, but the pop-loop
#   emptied the local stack, so the carried stack may still hold regions
#   of the returning (pre-window) frame to pop.
#
# save/restore events, per tid and in retirement order
#   ``("pop", tindex, frame_id, reg, stack_addr, value)`` — a candidate
#   restore whose save is not open locally; the parent matches it
#   against the carried open-save map.
#   ``("ret", frame_id)`` — a pre-window frame exited; the parent drops
#   its carried open saves.
#
# Frames created in-window can have no carried state, so events touching
# only such frames are filtered out worker-side via the per-thread frame
# id watermark captured at window start.


class _SeamControlTracker(ControlDepTracker):
    """Xin-Zhang tracker that logs what it would ask the carried stack."""

    def __init__(self, registry) -> None:
        super().__init__(registry)
        #: tid -> [(tindex, addr, frame_id, kind, arg, patch)]
        self.events: Dict[int, list] = {}
        self.base_frame_ids: Dict[int, int] = {}

    def on_event(self, event: InstrEvent,
                 callee_frame_id: Optional[int]) -> Optional[tuple]:
        tid = event.tid
        frame = event.frame_id
        addr = event.addr
        stack = self._stacks.setdefault(tid, [])

        while (stack and stack[-1].frame_id == frame
               and stack[-1].end_addr == addr):
            stack.pop()
        seam = not stack
        cd = stack[-1].inst if stack else None

        op = event.instr.op
        if op == Opcode.IJMP and not self._ijmp_has_targets(addr):
            op = None
        kind = 0
        arg = None
        if op in (Opcode.BR, Opcode.BRZ, Opcode.IJMP):
            end_addr = self.registry.region_end_addr(addr)
            region = _Region(frame, (tid, event.tindex), end_addr)
            if (stack and stack[-1].frame_id == frame
                    and stack[-1].end_addr == end_addr):
                stack[-1] = region
            else:
                stack.append(region)
            kind = 1
            arg = end_addr
        elif op in (Opcode.CALL, Opcode.ICALL):
            stack.append(_Region(
                callee_frame_id if callee_frame_id is not None else frame,
                (tid, event.tindex), None))
            kind = 2
        elif op == Opcode.RET:
            while stack and stack[-1].frame_id == frame:
                stack.pop()
            kind = 3

        if seam:
            self.events.setdefault(tid, []).append(
                (event.tindex, addr, frame, kind, arg, True))
        elif (kind == 3 and not stack
              and frame < self.base_frame_ids.get(tid, 0)):
            # The RET emptied the local stack mid-pop-loop: the serial
            # loop would keep popping this frame's regions off the
            # carried stack (possible only for pre-window frames).
            self.events.setdefault(tid, []).append(
                (event.tindex, addr, frame, 3, None, False))
        return cd


class _SeamSaveRestore(SaveRestoreDetector):
    """Save/restore detector that defers cross-seam pairs to the parent."""

    def __init__(self, program: Program, max_save: int) -> None:
        super().__init__(program, max_save)
        #: tid -> [("pop", ...) | ("ret", frame_id)]
        self.events: Dict[int, list] = {}
        self.base_frame_ids: Dict[int, int] = {}

    def on_event(self, event: InstrEvent) -> None:
        if not self.max_save:
            return
        addr = event.addr
        op = event.instr.op
        if addr in self.save_addrs and op == Opcode.PUSH:
            super().on_event(event)      # saves always open locally
        elif addr in self.restore_addrs and op == Opcode.POP:
            if not event.mem_reads:
                return
            reg = event.instr.operands[0].name
            frame_saves = self._open.get((event.tid, event.frame_id))
            if frame_saves and reg in frame_saves:
                super().on_event(event)  # the latest save is in-window
            elif event.frame_id < self.base_frame_ids.get(event.tid, 0):
                stack_addr, value = event.mem_reads[0]
                self.events.setdefault(event.tid, []).append(
                    ("pop", event.tindex, event.frame_id, reg,
                     stack_addr, value))
        elif op == Opcode.RET:
            self._open.pop((event.tid, event.frame_id), None)
            if event.frame_id < self.base_frame_ids.get(event.tid, 0):
                self.events.setdefault(event.tid, []).append(
                    ("ret", event.frame_id))


class _WindowCollector(TraceCollector):
    """A full trace collector with the seam-aware analyses plugged in."""

    def __init__(self, program: Program, options: SliceOptions) -> None:
        super().__init__(program, options)
        self.control = _SeamControlTracker(self.registry)
        if self.save_restore.max_save > 0:
            self.save_restore = _SeamSaveRestore(
                program, self.save_restore.max_save)

    def on_start(self, machine) -> None:
        super().on_start(machine)
        # Frame ids below the watermark belong to pre-window frames; the
        # counters restore from the boundary snapshot, so the numbering
        # is globally consistent with the serial run.
        base = {tid: thread._next_frame_id
                for tid, thread in machine.threads.items()}
        self.control.base_frame_ids = base
        if isinstance(self.save_restore, _SeamSaveRestore):
            self.save_restore.base_frame_ids = base


def _encode_columns(store) -> dict:
    """{tid: (statics pool, row indices as bytes, dyns list)}.

    Statics are interned per worker store, so the pool (unique tuples)
    plus an ``array('I')`` of row indices round-trips them through
    ``marshal`` — which does not preserve object sharing — without
    exploding the payload.
    """
    out = {}
    for tid, cols in store._columns.items():
        pool: list = []
        index_of: Dict[int, int] = {}
        idx = array("I")
        idx_append = idx.append
        for static in cols.statics:
            key = id(static)
            i = index_of.get(key)
            if i is None:
                i = index_of[key] = len(pool)
                pool.append(static)
            idx_append(i)
        out[tid] = (pool, idx.tobytes(), cols.dyns)
    return out


def _trace_window_columns(raw: bytes, program: Program,
                          options: SliceOptions) -> dict:
    """Replay one window with a full seam-aware collector attached."""
    pinball = Pinball.from_bytes(raw, source="<region_shard>")
    collector = _WindowCollector(program, options)
    machine = replay_machine(pinball, program, tools=[collector])
    meta = pinball.meta
    machine.global_seq = int(meta.get("global_seq", 0))
    for tid_text, count in (meta.get("base_instr_counts") or {}).items():
        thread = machine.threads.get(int(tid_text))
        if thread is not None:
            thread.instr_count = int(count)
    result = machine.run(max_steps=pinball.total_steps)

    control = collector.control
    detector = collector.save_restore
    payload = {
        "columns": _encode_columns(collector.store),
        "control_events": control.events,
        "control_final": {
            tid: [(r.frame_id, r.inst, r.end_addr) for r in stack]
            for tid, stack in control._stacks.items() if stack},
        "sr_events": getattr(detector, "events", {}),
        "sr_open": {key: dict(saves)
                    for key, saves in detector._open.items() if saves},
        "sr_verified": dict(detector.verified),
        "sr_pairs": detector.pair_count,
    }
    return {
        "window": int(meta.get("window", 0)),
        "blob": marshal.dumps(payload),
        "rows": collector.store.total_records(),
        "steps": result.steps,
        "retired": result.retired,
        "reason": result.reason,
    }


def _shard_worker_main(worker_id: int, task_q, result_q,
                       store_root: Optional[str], config: dict) -> None:
    """Worker loop with the :class:`WorkerPool` wire protocol.

    Same ``(worker_id, task_q, result_q, store_root, config)`` signature
    as the debug service's ``_worker_main``; the pool mechanics (bounded
    queue, deadlines, crash respawn) are reused unchanged.
    """
    if config.get("obs"):
        OBS.enable()
    program = config["program"]
    options = config["slice_options"] or SliceOptions()
    while True:
        item = task_q.get()
        if item is None:
            break
        req_id, op, params = item
        try:
            if op == "ping":
                result = {"pong": True, "pid": os.getpid()}
            elif op == "trace_window":
                with OBS.span("shard.window"):
                    result = _trace_window(params["pinball_raw"], program,
                                           options)
            elif op == "trace_window_columns":
                with OBS.span("shard.window"):
                    result = _trace_window_columns(
                        params["pinball_raw"], program, options)
            else:
                raise ValueError("unknown shard worker op %r" % op)
        except BaseException as exc:   # noqa: BLE001 — wire it back
            result_q.put((req_id, worker_id, "error",
                          {"op": op, "type": type(exc).__name__,
                           "message": str(exc)}))
            continue
        result_q.put((req_id, worker_id, "ok", result))


# -- scout --------------------------------------------------------------------

class _Boundary:
    """State captured at one scout stop (cf. ``Checkpoint``)."""

    __slots__ = ("step", "snapshot", "consumed", "global_seq", "instr_counts")

    def __init__(self, step: int, snapshot: dict, consumed: Dict[int, int],
                 global_seq: int, instr_counts: Dict[int, int]) -> None:
        self.step = step
        self.snapshot = snapshot
        self.consumed = consumed
        self.global_seq = global_seq
        self.instr_counts = instr_counts


def _scout_machine(pinball: Pinball, program: Program
                   ) -> Tuple[Machine, SyscallInjector]:
    """An untraced replay machine with its injector exposed.

    :func:`repro.pinplay.replayer.replay_machine` hides the injector
    behind a closure; the scout needs ``injector.consumed()`` at every
    boundary, so it wires the same parts together itself.
    """
    scheduler = RecordedScheduler(pinball.schedule)
    injector = SyscallInjector(pinball.syscalls)
    machine = Machine.from_snapshot(
        program, MachineSnapshot.from_dict(pinball.snapshot),
        scheduler=scheduler, syscall_injector=injector.inject)
    return machine, injector


def _window_pinball(pinball: Pinball, index: int, start: int, count: int,
                    boundary: Optional[_Boundary],
                    schedule_prefix: Sequence[int]) -> Pinball:
    """Materialize window ``index`` (``[start, start + count)``) as a
    self-contained ``region_shard`` pinball."""
    if boundary is None:                 # window 0: the region's own start
        snapshot = pinball.snapshot
        global_seq = 0
        instr_counts: Dict[int, int] = {}
        syscalls = {tid: list(log) for tid, log in pinball.syscalls.items()}
    else:
        snapshot = boundary.snapshot
        global_seq = boundary.global_seq
        instr_counts = boundary.instr_counts
        syscalls = {tid: list(log[boundary.consumed.get(tid, 0):])
                    for tid, log in pinball.syscalls.items()}
    return Pinball(
        program_name=pinball.program_name,
        snapshot=snapshot,
        schedule=schedule_window(pinball.schedule, start, count,
                                 prefix=schedule_prefix),
        syscalls=syscalls,
        mem_order=(),
        exclusions=(),
        meta={
            "kind": "region_shard",
            "window": index,
            "start_step": start,
            "num_steps": count,
            "global_seq": global_seq,
            "base_instr_counts": {str(tid): int(count_)
                                  for tid, count_ in instr_counts.items()},
        },
        trusted=True,
    )


# -- stitch -------------------------------------------------------------------

def _stitch_window(collector: TraceCollector, program: Program,
                   options: SliceOptions, rows: list,
                   tindex_of: Dict[int, int], columns: Dict[int, tuple],
                   static_cache: dict, stub: InstrEvent) -> None:
    """Drive the collector's analyses/store through one window's rows.

    This reproduces :meth:`TraceCollector.on_instr` exactly, in the
    serial event order — (1) CFG refinement from the observed
    indirect-jump target, (2) control-dependence tracking with the
    callee frame id, (3) the columnar append, (4) save/restore
    verification — with the def/use dedup work already done by the
    worker.  Tuples arrive interned per window; an identity memo maps
    them onto the stitched store's canonical instances.
    """
    store = collector.store
    registry = collector.registry
    detector = collector.save_restore
    instructions = program.instructions
    refine = options.refine_cfg
    observe = registry.observe_indirect_jump
    on_event = collector.control.on_event
    sr_event = detector.on_event
    sr_on = detector.max_save > 0
    save_addrs = detector.save_addrs
    restore_addrs = detector.restore_addrs
    intern = store.intern
    IJMP, CALL, ICALL = Opcode.IJMP, Opcode.CALL, Opcode.ICALL
    RET, PUSH, POP = Opcode.RET, Opcode.PUSH, Opcode.POP
    memo: dict = {}
    memo_get = memo.get

    for tid, addr, rdefs, ruses, mdefs, muses, values, frame_id, extra \
            in rows:
        instr = instructions[addr]
        op = instr.op

        callee_frame_id = None
        if extra is not None:
            if op == IJMP:
                if refine:
                    observe(addr, extra)
            elif op == CALL or op == ICALL:
                callee_frame_id = extra

        tindex = tindex_of.get(tid, 0)
        tindex_of[tid] = tindex + 1
        stub.tid = tid
        stub.tindex = tindex
        stub.addr = addr
        stub.instr = instr
        stub.frame_id = frame_id
        cd = on_event(stub, callee_frame_id)

        # Canonicalize the worker-interned tuples into the stitched
        # store's interner (identity memo: within one pickled window
        # payload, equal tuples are the *same* object).
        key = id(rdefs)
        canon = memo_get(key)
        if canon is None:
            canon = memo[key] = intern(rdefs)
        rdefs = canon
        key = id(ruses)
        canon = memo_get(key)
        if canon is None:
            canon = memo[key] = intern(ruses)
        ruses = canon
        if mdefs:
            key = id(mdefs)
            canon = memo_get(key)
            if canon is None:
                canon = memo[key] = intern(mdefs)
            mdefs = canon
        if muses:
            key = id(muses)
            canon = memo_get(key)
            if canon is None:
                canon = memo[key] = intern(muses)
            muses = canon

        skey = (addr, rdefs)
        static = static_cache.get(skey)
        if static is None:
            static = static_cache[skey] = intern(
                (addr, instr.line, instr.func, rdefs, ruses))

        cols = columns.get(tid)
        if cols is None:
            cframe = store.columns_for(tid)
            cols = columns[tid] = (cframe.statics, cframe.dyns,
                                   cframe.gpos, cframe.cache)
        cols[0].append(static)
        cols[1].append((mdefs, muses, cd, values))
        cols[2].append(-1)
        cols[3].append(None)

        if sr_on and (op == RET
                      or (op == PUSH and addr in save_addrs)
                      or (op == POP and addr in restore_addrs)):
            if op == PUSH:
                stub.mem_writes = (((mdefs[0], values[mdefs[0]]),)
                                   if mdefs else ())
                stub.mem_reads = ()
            elif op == POP:
                stub.mem_reads = ((muses[0], extra),) if muses else ()
                stub.mem_writes = ()
            else:
                stub.mem_writes = ()
                stub.mem_reads = ()
            sr_event(stub)


def _absorb_window(collector: TraceCollector, blob: bytes,
                   carried_stacks: Dict[int, list]) -> int:
    """Fold one columns-mode worker payload into the parent collector.

    1. Extend the columnar store with the shipped per-thread columns
       (statics canonicalized through the parent interner, so a pc
       traced in two windows still shares one tuple).
    2. Replay the control seam events against the carried open-region
       stacks — continuing close-loops across the seam, patching the
       ``cd`` of rows whose controlling instance retired in an earlier
       window, honoring merge-with-top and frame-exit pops — then push
       the worker's final open regions as the carry into the next seam.
    3. Replay the save/restore seam events against the carried open-save
       map (verifying cross-seam pairs exactly like the serial
       detector), merge the worker's locally verified pairs, and carry
       its still-open saves forward.

    Returns the number of rows absorbed.
    """
    store = collector.store
    intern = store.intern
    data = marshal.loads(blob)
    rows = 0

    for tid, (pool, idx_bytes, dyns) in data["columns"].items():
        cols = store.columns_for(tid)
        canon = [intern(static) for static in pool]
        idx = array("I")
        idx.frombytes(idx_bytes)
        cols.statics.extend(map(canon.__getitem__, idx))
        cols.dyns.extend(dyns)
        count = len(dyns)
        cols.gpos.extend([-1] * count)
        cols.cache.extend([None] * count)
        rows += count

    columns = store._columns
    for tid, events in data["control_events"].items():
        stack = carried_stacks.get(tid)
        if not stack:
            # The carried stack only shrinks while replaying events, so
            # an empty carry makes every event for this tid a no-op.
            continue
        dyns_col = columns[tid].dyns
        for tindex, addr, frame, kind, arg, patch in events:
            if patch:
                while (stack and stack[-1][0] == frame
                       and stack[-1][2] == addr):
                    stack.pop()
                if stack:
                    row = dyns_col[tindex]
                    dyns_col[tindex] = (row[0], row[1], stack[-1][1],
                                        row[3])
                if kind == 1:
                    # Merge-with-top across the seam: the worker's fresh
                    # region supersedes a carried region ending at the
                    # same address in the same frame.
                    if (stack and stack[-1][0] == frame
                            and stack[-1][2] == arg):
                        stack.pop()
                elif kind == 3:
                    while stack and stack[-1][0] == frame:
                        stack.pop()
            else:   # RET continuation: finish the frame's pop-loop.
                while stack and stack[-1][0] == frame:
                    stack.pop()
            if not stack:
                break
    for tid, regions in data["control_final"].items():
        carried_stacks.setdefault(tid, []).extend(regions)

    detector = collector.save_restore
    open_map = detector._open
    verified = detector.verified
    for tid, events in data["sr_events"].items():
        for event in events:
            if event[0] == "pop":
                _tag, tindex, frame, reg, stack_addr, value = event
                frame_saves = open_map.get((tid, frame))
                if not frame_saves:
                    continue
                saved = frame_saves.get(reg)
                if saved is None:
                    continue
                save_tindex, save_stack_addr, save_value = saved
                if save_stack_addr == stack_addr and save_value == value:
                    verified[(tid, tindex)] = (tid, save_tindex)
                    detector.pair_count += 1
                    del frame_saves[reg]
            else:   # ("ret", frame_id)
                open_map.pop((tid, event[1]), None)
    verified.update(data["sr_verified"])
    detector.pair_count += data["sr_pairs"]
    for key, saves in data["sr_open"].items():
        open_map.setdefault(key, {}).update(saves)
    return rows


def _has_indirect_jumps(program: Program) -> bool:
    return any(instr.op == Opcode.IJMP for instr in program.instructions)


def _seam_diagnostics(collector: TraceCollector) -> Tuple[int, int]:
    """(open control regions, open save frames) carried across a seam."""
    open_regions = sum(len(stack) for stack
                       in collector.control._stacks.values())
    open_saves = sum(len(saves) for saves
                     in collector.save_restore._open.values())
    return open_regions, open_saves


# -- orchestration ------------------------------------------------------------

def _fallback(plan: ShardPlan, reason: str) -> None:
    plan.fallback = reason
    if OBS.enabled:
        OBS.inc("slicing.shard/fallbacks")


def trace_sharded(pinball: Pinball, program: Program,
                  options: SliceOptions,
                  boundaries: Optional[Sequence[int]] = None,
                  plan_out: Optional[ShardPlan] = None
                  ) -> Optional[Tuple[TraceCollector, Machine, RunResult]]:
    """Build the traced collector for ``pinball`` with region sharding.

    Returns ``(collector, machine, replay_result)`` — drop-in for the
    serial ``TraceCollector`` + :func:`repro.pinplay.replayer.replay`
    pair in :class:`~repro.slicing.api.SlicingSession` — or ``None``
    when a fallback gate fires and the caller should run the serial
    pipeline instead.

    ``boundaries`` overrides the evenly spaced cut points (the
    differential tests use it to park a seam in the middle of a
    save/restore pair or a critical section).  ``plan_out`` receives
    per-window diagnostics.
    """
    plan = plan_out if plan_out is not None else ShardPlan(
        options.shards, [])
    shards = options.shards
    total_steps = pinball.total_steps

    if shards <= 1 and boundaries is None:
        _fallback(plan, "shards<=1")
        return None
    if not options.record_values:
        _fallback(plan, "record_values=False")
        return None
    if pinball.exclusions:
        _fallback(plan, "slice pinball (exclusions)")
        return None
    if mp.current_process().daemon:
        # A daemonic parent (a serve worker spawned with daemon=True)
        # cannot fork children; the serial pipeline still works.
        _fallback(plan, "daemonic parent process")
        return None
    if boundaries is None:
        if total_steps < shards * MIN_WINDOW_STEPS:
            _fallback(plan, "region too small (%d steps)" % total_steps)
            return None
        bounds = plan_boundaries(total_steps, shards)
    else:
        bounds = sorted({int(b) for b in boundaries
                         if 0 < int(b) < total_steps})
    if not bounds:
        _fallback(plan, "no interior boundaries")
        return None
    plan.boundaries = list(bounds)

    from repro.serve.workers import PoolError, WorkerPool

    # Columns mode parallelizes the analyses too, but worker-local CFG
    # refinement would diverge from the serial refinement order when
    # indirect jumps are present; those programs use stitch mode (the
    # traced replay is still parallel, the analyses run in the parent).
    if options.refine_cfg and _has_indirect_jumps(program):
        plan.mode = "stitch"
        trace_op = "trace_window"
    else:
        plan.mode = "columns"
        trace_op = "trace_window_columns"

    edges = list(bounds) + [total_steps]
    schedule_prefix = list(accumulate(c for _tid, c in pinball.schedule))
    workers = min(len(edges), max(1, os.cpu_count() or 1))
    pool = WorkerPool(
        store_root=None,
        workers=workers,
        queue_limit=len(edges) + 8,
        default_timeout=600.0,
        obs=OBS.enabled,
        slice_options=options,
        worker_target=_shard_worker_main,
        worker_config={"program": program},
        name="shard",
    )

    try:
        pool.start()
    except (OSError, PoolError) as exc:
        _fallback(plan, "pool start failed: %s" % exc)
        return None

    try:
        futures = []

        def dispatch(index: int, start: int, count: int,
                     boundary: Optional[_Boundary]) -> None:
            window = _window_pinball(pinball, index, start, count,
                                     boundary, schedule_prefix)
            futures.append(pool.submit(
                trace_op,
                {"pinball_raw": window.to_bytes(compress=False)},
                worker=index % pool.workers))

        # Window 0 starts from the region's own initial state: dispatch
        # it before the scout runs so its trace overlaps the scouting.
        dispatch(0, 0, edges[0], None)

        # Scout: untraced replay, stopping at each boundary to capture
        # the window-start state; each later window is dispatched the
        # moment its boundary is captured.
        with OBS.span("shard.scout"):
            # Window 0 replays from the region snapshot regardless, so the
            # scout only needs to *reach* the first seam: a v2 pinball's
            # embedded checkpoints let it skip straight to the latest one
            # at or before bounds[0] instead of replaying the prefix.
            checkpoint = best_checkpoint(pinball, bounds[0])
            if checkpoint is not None and checkpoint.steps_done > 0:
                machine, injector = resume_machine(
                    pinball, program, checkpoint)
                done = checkpoint.steps_done
                retired = sum(checkpoint.body()["instr_counts"].values())
                OBS.add("slicing.scout_checkpoint_resumes", 1)
            else:
                machine, injector = _scout_machine(pinball, program)
                done = retired = 0
            steps = done
            reason = "limit"
            for i, bound in enumerate(bounds):
                result = machine.run(max_steps=bound - done)
                steps += result.steps
                retired += result.retired
                done += result.steps
                reason = result.reason
                if result.reason != "limit":
                    break               # region ended before this seam
                state = capture_state(machine, injector.consumed(), ())
                boundary = _Boundary(
                    step=done,
                    snapshot=state["snapshot"],
                    consumed=state["consumed"],
                    global_seq=state["global_seq"],
                    instr_counts=state["instr_counts"],
                )
                dispatch(i + 1, done, edges[i + 1] - done, boundary)
            else:
                result = machine.run(max_steps=total_steps - done)
                steps += result.steps
                retired += result.retired
                reason = result.reason
        replay_result = RunResult(reason=reason, steps=steps,
                                  retired=retired, failure=machine.failure)

        # Absorb windows in order while later windows are still tracing.
        collector = TraceCollector(program, options)
        stitching = plan.mode == "stitch"
        tindex_of: Dict[int, int] = {}
        columns: Dict[int, tuple] = {}
        static_cache: dict = {}
        carried_stacks: Dict[int, list] = {}
        stub = InstrEvent(0, 0, 0, 0, None, (), (), (), (), -1)
        obs_on = OBS.enabled
        last = len(futures) - 1
        with OBS.span("shard.stitch"):
            for index, future in enumerate(futures):
                payload = future.result(pool.default_timeout)
                if stitching:
                    rows = payload["rows"]
                    _stitch_window(collector, program, options, rows,
                                   tindex_of, columns, static_cache, stub)
                    row_count = len(rows)
                else:
                    row_count = _absorb_window(collector, payload["blob"],
                                               carried_stacks)
                plan.rows += row_count
                plan.windows.append({
                    "window": index,
                    "rows": row_count,
                    "steps": payload.get("steps"),
                })
                if index != last:
                    if stitching:
                        open_regions, open_saves = \
                            _seam_diagnostics(collector)
                    else:
                        open_regions = sum(
                            len(stack)
                            for stack in carried_stacks.values())
                        open_saves = sum(
                            len(saves) for saves
                            in collector.save_restore._open.values())
                    if obs_on:
                        OBS.add("slicing.shard/seam_open_regions",
                                open_regions)
                        OBS.add("slicing.shard/seam_open_saves", open_saves)
    except PoolError as exc:
        _fallback(plan, "pool failure: %s" % exc)
        return None
    finally:
        pool.close()

    if obs_on:
        OBS.add("slicing.shard/builds", 1)
        OBS.add("slicing.shard/windows", len(futures))
        OBS.add("slicing.shard/rows", plan.rows)
    return collector, machine, replay_result
