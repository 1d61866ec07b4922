"""The seed if/elif interpreter, kept as the engine differential's reference.

:class:`SeedMachine` is a :class:`~repro.vm.machine.Machine` whose
per-instruction step is the original interpreter: operands are
isinstance-tested and dispatched on every execution, and def/use lists are
built through small helpers.  Everything around the step — scheduling,
syscalls, thread lifecycle, snapshots, exclusion skips — is inherited, so
two runs that differ only in the machine class must produce identical
event streams, snapshots, pinballs and slices
(``tests/vm/test_engine_differential.py``, ``tests/vm/test_decode_shapes.py``
and ``benchmarks/test_perf_engine.py`` compare against it).

:class:`RowCollector` is the matching reference for the trace layout: the
seed slicing pintool, building one :class:`~repro.slicing.trace.TraceRecord`
per retired instruction, against which the interned columnar store is
compared record for record.

The seed interpreter has no fast record path and no selective tables:
:meth:`SeedMachine.set_recorder` / :meth:`SeedMachine.set_selective`
refuse to arm them, so a recording must take the per-event
:class:`~repro.pinplay.logger.LoggerTool` path (pass any extra tool to
:func:`~repro.pinplay.logger.record_region`; :func:`record_pinball_seed`
does).  :func:`seed_interpreter` makes the pinplay layer build every
machine — record, replay, relog, traced slicing sessions — as a
:class:`SeedMachine`.
"""

from contextlib import contextmanager
from typing import List, Optional, Tuple, Union

from repro.isa.instructions import Imm, Mem, Opcode, Reg
from repro.slicing.trace import TraceRecord
from repro.slicing.tracer import TraceCollector, _dedupe
from repro.vm.errors import VMError
from repro.vm.hooks import InstrEvent, Tool
from repro.vm.machine import Machine
from repro.vm.thread import EXIT_SENTINEL, ThreadContext

Word = Union[int, float]


class SeedMachine(Machine):
    """A :class:`Machine` stepping through the seed interpreter."""

    # The seed run loop rebuilt the sorted runnable-tid list on every
    # step; the cache is the predecoded machine's.  Reads always miss and
    # writes are dropped, so the inherited loop recomputes it per step.
    @property
    def _runnable_cache(self):
        return None

    @_runnable_cache.setter
    def _runnable_cache(self, value) -> None:
        pass

    def set_recorder(self, recorder) -> None:
        if recorder is not None:
            raise VMError("the seed interpreter has no fast record path")
        super().set_recorder(None)

    def set_selective(self, table) -> None:
        if table is not None:
            raise VMError("the seed interpreter has no selective tables")
        super().set_selective(None)

    def _step_thread_uop(self, thread: ThreadContext) -> bool:
        """Execute one instruction of ``thread``; False if it blocked."""
        pc = thread.pc
        if not 0 <= pc < len(self.instructions):
            raise VMError("pc out of range", tid=thread.tid, pc=pc)
        instr = self.instructions[pc]
        tracing = bool(self._instr_tools)
        reg_reads: Optional[List[Tuple[str, Word]]] = [] if tracing else None
        reg_writes: Optional[List[Tuple[str, Word]]] = [] if tracing else None
        mem_reads: Optional[List[Tuple[int, Word]]] = [] if tracing else None
        mem_writes: Optional[List[Tuple[int, Word]]] = [] if tracing else None
        self._cur_mem_writes = mem_writes
        # Frame id *before* execution: a call instruction belongs to the
        # caller's frame (the control-dependence tracker relies on this).
        frame_id = thread.frames[-1].frame_id if thread.frames else -1

        retired = self._execute(thread, instr, pc, reg_reads, reg_writes,
                                mem_reads, mem_writes)
        self._cur_mem_writes = None
        if not retired:
            return False
        if tracing:
            event = InstrEvent(
                seq=self.global_seq,
                tid=thread.tid,
                tindex=thread.instr_count,
                addr=pc,
                instr=instr,
                reg_reads=tuple(reg_reads),
                reg_writes=tuple(reg_writes),
                mem_reads=tuple(mem_reads),
                mem_writes=tuple(mem_writes),
                frame_id=frame_id,
            )
            for tool in self._instr_tools:
                tool.on_instr(event)
        thread.instr_count += 1
        return True

    # Operand evaluation helpers -----------------------------------------------------

    def _reg_read(self, thread, name, reg_reads) -> Word:
        value = thread.regs[name]
        if reg_reads is not None:
            reg_reads.append((name, value))
        return value

    def _src(self, thread, operand, reg_reads) -> Word:
        if isinstance(operand, Reg):
            return self._reg_read(thread, operand.name, reg_reads)
        if isinstance(operand, Imm):
            return operand.value
        raise VMError("bad source operand %r" % (operand,), tid=thread.tid)

    def _mem_addr(self, thread, operand: Mem, reg_reads) -> int:
        base = self._reg_read(thread, operand.base.name, reg_reads)
        return int(base) + operand.offset

    def _load(self, addr: int, mem_reads) -> Word:
        value = self.memory.read(addr)
        if mem_reads is not None:
            mem_reads.append((addr, value))
        return value

    def _store(self, addr: int, value: Word, mem_writes) -> None:
        self.memory.write(addr, value)
        if mem_writes is not None:
            mem_writes.append((addr, value))

    # The interpreter proper ------------------------------------------------------------

    def _execute(self, thread, instr, pc, reg_reads, reg_writes,
                 mem_reads, mem_writes) -> bool:
        op = instr.op
        ops = instr.operands

        if op == Opcode.MOV:
            value = self._src(thread, ops[1], reg_reads)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.LD:
            addr = self._mem_addr(thread, ops[1], reg_reads)
            value = self._load(addr, mem_reads)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.ST:
            addr = self._mem_addr(thread, ops[0], reg_reads)
            value = self._src(thread, ops[1], reg_reads)
            self._store(addr, value, mem_writes)
            thread.pc = pc + 1
        elif op == Opcode.LEA:
            target = ops[1]
            value = target.value if isinstance(target, Imm) else self._src(
                thread, target, reg_reads)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.BINOP:
            a = self._src(thread, ops[1], reg_reads)
            b = self._src(thread, ops[2], reg_reads)
            value = _apply_binop(instr.subop, a, b, thread, pc)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.UNOP:
            a = self._src(thread, ops[1], reg_reads)
            value = _apply_unop(instr.subop, a)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.JMP:
            thread.pc = int(ops[0].value)
        elif op == Opcode.BR:
            cond = self._reg_read(thread, ops[0].name, reg_reads)
            thread.pc = int(ops[1].value) if cond != 0 else pc + 1
        elif op == Opcode.BRZ:
            cond = self._reg_read(thread, ops[0].name, reg_reads)
            thread.pc = int(ops[1].value) if cond == 0 else pc + 1
        elif op == Opcode.IJMP:
            target = int(self._reg_read(thread, ops[0].name, reg_reads))
            self._check_code_addr(target, thread)
            thread.pc = target
        elif op in (Opcode.CALL, Opcode.ICALL):
            if op == Opcode.CALL:
                target = int(ops[0].value)
            else:
                target = int(self._reg_read(thread, ops[0].name, reg_reads))
            self._check_code_addr(target, thread)
            sp = int(self._reg_read(thread, "sp", reg_reads)) - 1
            if sp <= thread.stack_limit:
                raise VMError("stack overflow", tid=thread.tid, pc=pc)
            self._store(sp, pc + 1, mem_writes)
            self._reg_write(thread, "sp", sp, reg_writes)
            function = self.program.function_at(target)
            thread.push_frame(function.name if function else "<anon>",
                              pc, pc + 1)
            thread.pc = target
        elif op == Opcode.RET:
            sp = int(self._reg_read(thread, "sp", reg_reads))
            ret_addr = int(self._load(sp, mem_reads))
            self._reg_write(thread, "sp", sp + 1, reg_writes)
            thread.pop_frame()
            if ret_addr == EXIT_SENTINEL:
                thread.pc = pc + 1
                self._finish_thread(thread)
            else:
                self._check_code_addr(ret_addr, thread)
                thread.pc = ret_addr
        elif op == Opcode.PUSH:
            value = self._src(thread, ops[0], reg_reads)
            sp = int(self._reg_read(thread, "sp", reg_reads)) - 1
            if sp <= thread.stack_limit:
                raise VMError("stack overflow", tid=thread.tid, pc=pc)
            self._store(sp, value, mem_writes)
            self._reg_write(thread, "sp", sp, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.POP:
            sp = int(self._reg_read(thread, "sp", reg_reads))
            value = self._load(sp, mem_reads)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            self._reg_write(thread, "sp", sp + 1, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.SYS:
            return self._do_syscall(thread, instr, pc, reg_reads, reg_writes)
        elif op == Opcode.HALT:
            thread.pc = pc + 1
            self.request_exit(0)
        elif op == Opcode.NOP:
            thread.pc = pc + 1
        else:
            raise VMError("unimplemented opcode %r" % op,
                          tid=thread.tid, pc=pc)
        return True

    def _check_code_addr(self, target: int, thread) -> None:
        if not 0 <= target < len(self.instructions):
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)


def _apply_binop(subop: str, a: Word, b: Word, thread, pc) -> Word:
    if subop == "add":
        return a + b
    if subop == "sub":
        return a - b
    if subop == "mul":
        return a * b
    if subop == "div":
        if b == 0:
            raise VMError("division by zero", tid=thread.tid, pc=pc)
        if isinstance(a, int) and isinstance(b, int):
            quotient = abs(a) // abs(b)
            return quotient if (a >= 0) == (b >= 0) else -quotient
        return a / b
    if subop == "mod":
        if b == 0:
            raise VMError("modulo by zero", tid=thread.tid, pc=pc)
        return int(a) - int(b) * (abs(int(a)) // abs(int(b))) * (
            1 if (a >= 0) == (b >= 0) else -1)
    if subop == "and":
        return int(a) & int(b)
    if subop == "or":
        return int(a) | int(b)
    if subop == "xor":
        return int(a) ^ int(b)
    if subop == "shl":
        return int(a) << int(b)
    if subop == "shr":
        return int(a) >> int(b)
    if subop == "eq":
        return int(a == b)
    if subop == "ne":
        return int(a != b)
    if subop == "lt":
        return int(a < b)
    if subop == "le":
        return int(a <= b)
    if subop == "gt":
        return int(a > b)
    if subop == "ge":
        return int(a >= b)
    raise VMError("unknown binop %r" % subop, tid=thread.tid, pc=pc)


def _apply_unop(subop: str, a: Word) -> Word:
    if subop == "neg":
        return -a
    if subop == "not":
        return int(not a)
    if subop == "int":
        return int(a)
    if subop == "float":
        return float(a)
    raise VMError("unknown unop %r" % subop)


class RowCollector(TraceCollector):
    """The seed record-per-row trace layout: ``by_thread[tid]`` holds one
    eagerly built :class:`TraceRecord` per retired instruction."""

    def __init__(self, program, options=None) -> None:
        super().__init__(program, options)
        self.by_thread = {}

    def _append(self, event, instr, op, cd) -> None:
        track_sp = self.options.track_stack_pointer
        rdefs = _dedupe(name for name, _ in event.reg_writes
                        if track_sp or name != "sp")
        ruses = _dedupe(name for name, _ in event.reg_reads
                        if track_sp or name != "sp")
        mdefs = _dedupe(addr for addr, _ in event.mem_writes)
        muses = _dedupe(addr for addr, _ in event.mem_reads)

        values = None
        if self.options.record_values:
            values = {}
            for name, value in event.reg_writes:
                values[name] = value
            for addr, value in event.mem_writes:
                values[addr] = value

        self.by_thread.setdefault(event.tid, []).append(TraceRecord(
            tid=event.tid, tindex=event.tindex, addr=event.addr,
            line=instr.line, func=instr.func,
            rdefs=rdefs, ruses=ruses, mdefs=mdefs, muses=muses,
            cd=cd, values=values))


@contextmanager
def seed_interpreter():
    """Build every pinplay-layer machine as a :class:`SeedMachine`.

    Covers :func:`~repro.pinplay.logger.record_region` and everything that
    goes through :func:`~repro.pinplay.replayer.replay_machine` (replay,
    relog, the traced replay of a ``ddg``/``columnar`` slicing session).
    """
    from repro.pinplay import logger, replayer
    saved = logger.Machine, replayer.Machine
    logger.Machine = replayer.Machine = SeedMachine
    try:
        yield
    finally:
        logger.Machine, replayer.Machine = saved


def record_pinball_seed(program, seed: int, **kwargs):
    """:func:`tests.support.progen.record_pinball` under the seed
    interpreter, through the per-event LoggerTool record path."""
    from tests.support.progen import record_pinball
    with seed_interpreter():
        return record_pinball(program, seed, extra_tools=[Tool()], **kwargs)
