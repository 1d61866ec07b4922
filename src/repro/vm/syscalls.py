"""Guest syscall implementations.

Syscalls take arguments in ``r0``..``r3`` and return results in ``r0``.
Three of them are *nondeterministic* from the guest's point of view —
``input``, ``rand`` and ``time`` — and their results are what the PinPlay
logger records and the replayer injects.  Everything else is a pure
function of machine state and the schedule, so replaying the schedule
reproduces it exactly.

Each handler returns one of:

* a value — stored into ``r0``;
* ``None`` — no result register is written;
* :data:`BLOCK` — the calling thread blocks and the instruction will be
  re-executed when the thread becomes runnable again.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.vm.errors import HeapError, VMError
from repro.vm.thread import ThreadStatus

Word = Union[int, float]

#: Sentinel: the syscall blocked; retry the instruction when woken.
BLOCK = object()

#: Syscalls whose results the logger must record (true nondeterminism).
NONDET_SYSCALLS = ("input", "rand", "time")


def sys_spawn(machine, thread) -> Word:
    """``spawn(func_addr, arg) -> tid`` — create a new guest thread."""
    func_addr = int(thread.regs["r0"])
    arg = thread.regs["r1"]
    child = machine.create_thread(func_addr, arg, parent=thread.tid)
    return child.tid


def sys_join(machine, thread):
    """``join(tid) -> exit_value`` — block until the target thread exits."""
    target_tid = int(thread.regs["r0"])
    target = machine.threads.get(target_tid)
    if target is None:
        raise VMError("join of unknown tid %d" % target_tid,
                      tid=thread.tid, pc=thread.pc)
    if target.status == ThreadStatus.FINISHED:
        return target.exit_value
    thread.block_reason = ("join", target_tid)
    return BLOCK


def sys_lock(machine, thread):
    """``lock(addr)`` — acquire the mutex identified by data address."""
    addr = int(thread.regs["r0"])
    owner = machine.locks.get(addr)
    if owner is None:
        machine.locks[addr] = thread.tid
        return None
    if owner == thread.tid:
        raise VMError("recursive lock of %d" % addr,
                      tid=thread.tid, pc=thread.pc)
    thread.block_reason = ("lock", addr)
    return BLOCK


def sys_unlock(machine, thread) -> None:
    """``unlock(addr)`` — release a held mutex, waking its waiters."""
    addr = int(thread.regs["r0"])
    owner = machine.locks.get(addr)
    if owner != thread.tid:
        raise VMError(
            "unlock of mutex %d not held by tid %d" % (addr, thread.tid),
            tid=thread.tid, pc=thread.pc)
    machine.locks[addr] = None
    machine.wake_blocked(("lock", addr))
    return None


def sys_print(machine, thread) -> None:
    """``print(value)`` — append to the machine's output stream."""
    machine.output.append(thread.regs["r0"])
    return None


def sys_input(machine, thread) -> Word:
    """``input() -> value`` — nondeterministic external input."""
    return machine.next_input()


def sys_rand(machine, thread) -> Word:
    """``rand(bound) -> value`` in [0, bound) — nondeterministic."""
    bound = int(thread.regs["r0"])
    return machine.rng.next(max(1, bound))


def sys_time(machine, thread) -> Word:
    """``time() -> ticks`` — nondeterministic wall-clock analog."""
    return machine.clock()


def sys_malloc(machine, thread) -> Word:
    """``malloc(size) -> addr`` — heap allocation."""
    return machine.memory.malloc(int(thread.regs["r0"]))


def sys_free(machine, thread) -> None:
    """``free(addr)`` — heap release.

    In poison mode the allocator fills the block with
    :data:`~repro.vm.memory.HEAP_POISON`; those writes are deposited
    into ``machine._cur_mem_writes`` (the same channel ``spawn`` uses
    for the child's argument slot), so the tracer attributes them to
    this instruction and a use-after-free slice lands on the freeing
    ``delete`` site through an ordinary memory dependence.
    """
    addr = int(thread.regs["r0"])
    try:
        poison_writes = machine.memory.free(addr)
    except HeapError as exc:
        raise HeapError(str(exc), tid=thread.tid, pc=thread.pc) from None
    if poison_writes and machine._cur_mem_writes is not None:
        machine._cur_mem_writes.extend(poison_writes)
    return None


def sys_assert(machine, thread) -> None:
    """``assert(cond, code)`` — record a failure symptom if cond is falsy."""
    if not thread.regs["r0"]:
        machine.record_failure(int(thread.regs["r1"]), thread)
    return None


def sys_yield(machine, thread) -> None:
    """``yield()`` — scheduling hint; a no-op for our schedulers."""
    return None


def sys_sleep(machine, thread) -> None:
    """``sleep(steps)`` — block for ``steps`` global scheduler steps."""
    steps = int(thread.regs["r0"])
    if steps > 0:
        thread.block_reason = ("sleep", machine.global_seq + steps)
        thread.status = ThreadStatus.BLOCKED
        machine.note_sleeper(thread.tid)
    return None


def sys_barrier(machine, thread):
    """``barrier(addr, n)`` — block until ``n`` threads have arrived.

    The barrier is identified by a data address (like mutexes).  The
    ``n``-th arrival releases everyone and resets the barrier for reuse
    (generation counting prevents a fast thread from re-entering the same
    round).
    """
    addr = int(thread.regs["r0"])
    needed = int(thread.regs["r1"])
    if needed < 1:
        raise VMError("barrier needs a positive thread count",
                      tid=thread.tid, pc=thread.pc)
    return machine.barrier_arrive(addr, needed, thread)


def sys_exit(machine, thread) -> None:
    """``exit(code)`` — terminate the whole program."""
    machine.request_exit(int(thread.regs["r0"]))
    return None


SYSCALLS = {
    "spawn": sys_spawn,
    "join": sys_join,
    "lock": sys_lock,
    "unlock": sys_unlock,
    "print": sys_print,
    "input": sys_input,
    "rand": sys_rand,
    "time": sys_time,
    "malloc": sys_malloc,
    "free": sys_free,
    "assert": sys_assert,
    "yield": sys_yield,
    "sleep": sys_sleep,
    "barrier": sys_barrier,
    "exit": sys_exit,
}
