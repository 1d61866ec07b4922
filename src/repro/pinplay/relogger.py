"""The PinPlay-style relogger: turn a region pinball into a slice pinball.

Given the set of instruction instances a dynamic slice wants to keep, the
relogger replays the region pinball once, and along the way:

* partitions each thread's instruction stream into *kept* runs and
  *excluded* runs;
* for every excluded run, detects its side effects — the final values of
  every register and memory cell the run wrote, plus the call-frame state —
  using the same observe-during-replay approach PinPlay uses for system
  call side effects;
* rebuilds the schedule with excluded steps dropped (each excluded run
  collapses to the single "skip" step the replaying machine consumes when
  it teleports past the run);
* emits a slice pinball: same snapshot and syscall log, new schedule, plus
  the exclusion records with their injections.

Policy: syscall instructions are never excluded (they carry
synchronization and nondeterminism-injection order), and each thread's
final instruction is kept so every thread terminates cleanly in slice
replay.  This mirrors PinPlay keeping system effects in the pinball.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.pinplay.pinball import Pinball
from repro.pinplay.replayer import replay_machine
from repro.vm.errors import ReplayDivergence
from repro.vm.hooks import InstrEvent, Tool
from repro.vm.scheduler import ScheduleRecorder


class _PendingExclusion:
    """Accumulates one excluded run's side effects during the relog replay."""

    __slots__ = ("tid", "start_pc", "start_arrival", "regs", "mem", "frames",
                 "count")

    def __init__(self, tid: int, start_pc: int, start_arrival: int,
                 frames: List[dict]) -> None:
        self.tid = tid
        self.start_pc = start_pc
        self.start_arrival = start_arrival
        self.regs: Dict[str, object] = {}
        self.mem: Dict[int, object] = {}
        self.frames = frames
        self.count = 0

    def finalize(self, end_pc: int) -> dict:
        return {
            "tid": self.tid,
            "start_pc": self.start_pc,
            "start_arrival": self.start_arrival,
            "end_pc": end_pc,
            "regs": sorted(self.regs.items()),
            "mem": sorted(self.mem.items()),
            "frames": self.frames,
            "excluded_count": self.count,
        }


class RelogTool(Tool):
    """Observes a full region replay and derives the slice pinball parts."""

    wants_instr_events = True
    retains_instr_events = False   # values are copied into pending records

    def __init__(self, machine, program: Program,
                 keep: Dict[int, Set[int]],
                 last_tindex: Dict[int, int]) -> None:
        self.machine = machine
        self.program = program
        self.keep = {int(tid): set(idxs) for tid, idxs in keep.items()}
        self.last_tindex = dict(last_tindex)
        self.new_schedule = ScheduleRecorder()
        self.exclusions: List[dict] = []
        self.kept_counts: Dict[int, int] = {}
        self.total_counts: Dict[int, int] = {}
        self._active: Dict[int, Optional[_PendingExclusion]] = {}
        self._slice_arrivals: Dict[Tuple[int, int], int] = {}

    # -- keep policy ---------------------------------------------------------

    def _is_kept(self, tid: int, tindex: int, pc: int) -> bool:
        if self.program.instructions[pc].op == Opcode.SYS:
            return True
        if tindex == self.last_tindex.get(tid):
            return True
        return tindex in self.keep.get(tid, ())

    # -- event handlers ----------------------------------------------------------

    def on_step(self, tid: int) -> None:
        thread = self.machine.threads[tid]
        kept = self._is_kept(tid, thread.instr_count, thread.pc)
        # Keep the step if the instruction is kept, or if it *starts* an
        # excluded run (that step becomes the skip step in slice replay).
        if kept or self._active.get(tid) is None:
            self.new_schedule.record(tid)

    def on_instr(self, event: InstrEvent) -> None:
        tid = event.tid
        pc = event.addr
        self.total_counts[tid] = self.total_counts.get(tid, 0) + 1
        pending = self._active.get(tid)
        if self._is_kept(tid, event.tindex, pc):
            if pending is not None:
                self.exclusions.append(pending.finalize(end_pc=pc))
                self._active[tid] = None
            key = (tid, pc)
            self._slice_arrivals[key] = self._slice_arrivals.get(key, 0) + 1
            self.kept_counts[tid] = self.kept_counts.get(tid, 0) + 1
            return
        if pending is None:
            key = (tid, pc)
            arrival = self._slice_arrivals.get(key, 0) + 1
            self._slice_arrivals[key] = arrival
            pending = _PendingExclusion(
                tid, pc, arrival,
                frames=self._frames_snapshot(tid))
            self._active[tid] = pending
        for name, value in event.reg_writes:
            pending.regs[name] = value
        for addr, value in event.mem_writes:
            pending.mem[addr] = value
        pending.count += 1
        if event.instr.op in (Opcode.CALL, Opcode.ICALL, Opcode.RET):
            pending.frames = self._frames_snapshot(tid)

    def _frames_snapshot(self, tid: int) -> List[dict]:
        thread = self.machine.threads[tid]
        return [
            {"func": f.func, "call_addr": f.call_addr,
             "return_addr": f.return_addr, "frame_id": f.frame_id,
             "fp_at_entry": f.fp_at_entry}
            for f in thread.frames
        ]

    def on_finish(self, machine) -> None:
        dangling = [tid for tid, pending in self._active.items()
                    if pending is not None]
        if dangling:
            raise ReplayDivergence(
                "threads %s ended inside an exclusion run; the keep set "
                "must retain each thread's final instruction" % dangling)


def relog(region_pinball: Pinball, program: Program,
          keep: Dict[int, Set[int]]) -> Pinball:
    """Produce a slice pinball from ``region_pinball``.

    ``keep`` maps tid -> set of region-relative instruction indices that
    belong to the slice (the relogger adds syscalls and each thread's final
    instruction on top).
    """
    counts = region_pinball.meta.get("thread_instr_counts", {})
    last_tindex = {int(tid): int(count) - 1
                   for tid, count in counts.items() if int(count) > 0}
    machine = replay_machine(region_pinball, program)
    tool = RelogTool(machine, program, keep, last_tindex)
    machine.add_tool(tool)
    with OBS.span("pinplay.relog"):
        machine.run(max_steps=region_pinball.total_steps)

    kept_total = sum(tool.kept_counts.values())
    if OBS.enabled:
        OBS.add("pinplay.relogs", 1)
        OBS.add("pinplay.excluded_runs", len(tool.exclusions))
        OBS.add("pinplay.kept_instructions", kept_total)
        OBS.add("pinplay.excluded_instructions",
                sum(tool.total_counts.values()) - kept_total)
    meta = {
        "kind": "slice",
        "parent_kind": region_pinball.kind,
        "skip": region_pinball.meta.get("skip"),
        "length": region_pinball.meta.get("length"),
        "failure": region_pinball.meta.get("failure"),
        "thread_instr_counts": {str(tid): tool.kept_counts.get(tid, 0)
                                for tid in tool.total_counts},
        "region_instructions": region_pinball.total_instructions,
        "kept_instructions": kept_total,
        "excluded_runs": len(tool.exclusions),
        "schedule_steps": tool.new_schedule.total(),
    }
    return Pinball(
        program_name=region_pinball.program_name,
        snapshot=region_pinball.snapshot,
        schedule=tool.new_schedule.runs,
        syscalls=region_pinball.syscalls,
        mem_order=(),
        exclusions=tool.exclusions,
        meta=meta,
        # Schedule comes from our recorder and syscalls from an existing
        # pinball: both already canonical, no re-cast pass needed.
        trusted=True,
    )
