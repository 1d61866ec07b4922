"""Trace collection during pinball replay (the slicing "pintool").

Attached to a replay, this tool builds the per-thread local traces while
running the two online analyses that determine slice precision:

* CFG refinement from observed indirect-jump targets (Section 5.1) feeding
  the Xin-Zhang control-dependence tracker;
* dynamic save/restore pair verification (Section 5.2).

With ``discover_jump_tables`` the tracer instead primes every CFG from the
switch jump tables before execution — the precision upper bound that real
x86 static analysis cannot reach (useful for ablations).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.registry import CfgRegistry
from repro.isa.instructions import Imm, Opcode
from repro.isa.program import Program
from repro.slicing.control_dep import ControlDepTracker
from repro.slicing.options import SliceOptions
from repro.slicing.save_restore import SaveRestoreDetector
from repro.slicing.trace import ColumnarTraceStore
from repro.vm.hooks import InstrEvent, Tool

_SYS_R0_DEF = ("r0",)
_NO_REGS = ()


def prime_jump_tables(registry: CfgRegistry, program: Program) -> int:
    """Statically read switch jump tables into the CFGs; returns edge count.

    Recognizes the code generator's dispatch idiom: an ``ijmp`` whose
    target register was loaded from a table whose base came from
    ``lea rX, <table>`` within the preceding few instructions.
    """
    image = program.initial_data_image()
    table_ranges = [(d.addr, d.addr + len(d.values)) for d in
                    program.data_defs.values()]
    added = 0
    for function in program.functions.values():
        for addr in range(function.entry, function.end):
            if program.instructions[addr].op != Opcode.IJMP:
                continue
            base = None
            for back in range(addr - 1, max(function.entry, addr - 6) - 1, -1):
                instr = program.instructions[back]
                if (instr.op == Opcode.LEA
                        and isinstance(instr.operands[1], Imm)):
                    base = int(instr.operands[1].value)
                    break
            if base is None:
                continue
            for start, end in table_ranges:
                if start <= base < end:
                    cfg = registry.cfg(function.name)
                    for slot in range(start, end):
                        target = int(image.get(slot, 0))
                        if cfg.add_indirect_target(addr, target):
                            added += 1
                    break
    return added


class TraceCollector(Tool):
    """Collects per-thread traces plus precision metadata during replay.

    The trace goes into a :class:`ColumnarTraceStore`: one row of
    interned def/use tuples per retired instruction, with record views
    materialized only when a consumer asks for them.
    """

    wants_instr_events = True
    retains_instr_events = False   # events are consumed synchronously

    def __init__(self, program: Program,
                 options: Optional[SliceOptions] = None) -> None:
        self.program = program
        self.options = options or SliceOptions()
        self.registry = CfgRegistry(program, refine=self.options.refine_cfg)
        if self.options.discover_jump_tables:
            prime_jump_tables(self.registry, program)
        self.control = ControlDepTracker(self.registry)
        self.save_restore = SaveRestoreDetector(
            program, self.options.max_save
            if self.options.prune_save_restore else 0)
        self.store = ColumnarTraceStore()
        self._machine = None
        #: Per-pc cache of the interned static row part
        #: ``(addr, line, func, rdefs, ruses)``.  Register def/use sets
        #: are a pure function of the static instruction for every opcode
        #: except SYS, whose r0 def depends on whether the handler
        #: returned a result — SYS entries carry both variants and pick
        #: per event.  Entry: ``(static, sys_static_r0, sys_static_none)``
        #: with ``static=None`` for SYS.
        self._row_cache: Dict[int, tuple] = {}

    def on_start(self, machine) -> None:
        self._machine = machine

    def on_instr(self, event: InstrEvent) -> None:
        instr = event.instr
        op = instr.op

        # Refine the CFG with the observed indirect-jump target *before*
        # the control tracker asks for this jump's region end.
        if op == Opcode.IJMP and self.options.refine_cfg:
            target = int(event.reg_reads[0][1])
            self.registry.observe_indirect_jump(event.addr, target)

        callee_frame_id = None
        if op in (Opcode.CALL, Opcode.ICALL):
            frames = self._machine.threads[event.tid].frames
            callee_frame_id = frames[-1].frame_id if frames else None
        cd = self.control.on_event(event, callee_frame_id)

        self._append(event, instr, op, cd)

        self.save_restore.on_event(event)

    # -- columnar append (hot path) ----------------------------------------

    def _append(self, event, instr, op, cd) -> None:
        store = self.store
        addr = event.addr
        cached = self._row_cache.get(addr)
        if cached is None:
            track_sp = self.options.track_stack_pointer
            ruses = store.intern(_dedupe(
                name for name, _ in event.reg_reads
                if track_sp or name != "sp"))
            if op == Opcode.SYS:
                cached = (
                    None,
                    store.intern((addr, instr.line, instr.func,
                                  _SYS_R0_DEF, ruses)),
                    store.intern((addr, instr.line, instr.func,
                                  _NO_REGS, ruses)),
                )
            else:
                rdefs = store.intern(_dedupe(
                    name for name, _ in event.reg_writes
                    if track_sp or name != "sp"))
                cached = (
                    store.intern((addr, instr.line, instr.func,
                                  rdefs, ruses)),
                    None, None,
                )
            self._row_cache[addr] = cached
        static = cached[0]
        if static is None:   # SYS: r0 def present iff a result was written
            static = cached[1] if event.reg_writes else cached[2]

        mem_writes = event.mem_writes
        if not mem_writes:
            mdefs = _NO_REGS
        elif len(mem_writes) == 1:
            mdefs = store.intern((mem_writes[0][0],))
        else:
            mdefs = store.intern(_dedupe(a for a, _ in mem_writes))
        mem_reads = event.mem_reads
        if not mem_reads:
            muses = _NO_REGS
        elif len(mem_reads) == 1:
            muses = store.intern((mem_reads[0][0],))
        else:
            muses = store.intern(_dedupe(a for a, _ in mem_reads))

        values = None
        if self.options.record_values:
            values = {}
            for name, value in event.reg_writes:
                values[name] = value
            for addr_w, value in mem_writes:
                values[addr_w] = value

        store.append_row(store.columns_for(event.tid), static,
                         mdefs, muses, cd, values)


def _dedupe(items) -> Tuple:
    return tuple(dict.fromkeys(items))
