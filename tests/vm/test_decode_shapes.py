"""Decoder coverage: every opcode and operand shape the assembler can emit.

Table-driven over each opcode (each BINOP/UNOP subop, each SYS name plus
an unknown one) × every combination of operand kinds — register ``r``,
immediate ``i``, memory ``m`` and code label ``l`` — at the opcode's
assembler arity.  Each case is one instruction in a small program, run
on the predecoded machine and on the seed interpreter
(:mod:`tests.support.seed_vm`) with the condition register both non-zero
and zero:

* where the seed interpreter retires the instruction, the predecoded
  machine must produce the same :class:`InstrEvent` stream (traced), the
  same snapshot (traced and untraced) and the same pinball (its fast
  record path against the seed's per-event LoggerTool);
* where the seed interpreter raises, the predecoded machine must raise
  :class:`VMError` — when the instruction *executes*: building the
  machine decodes every instruction, and a malformed instruction on a
  path never taken stays harmless.

The decode tables hold no closure that falls back to an interpreter.
"""

import itertools

import pytest

from repro.isa import assemble
from repro.isa.instructions import BINARY_OPS, Opcode, UNARY_OPS
from repro.pinplay import RegionSpec, record_region
from repro.vm import microops
from repro.vm.errors import VMError
from repro.vm.hooks import Tool
from repro.vm.machine import Machine
from repro.vm.scheduler import RoundRobinScheduler
from repro.vm.syscalls import SYSCALLS

from tests.support.progen import RetainingLog
from tests.support.seed_vm import SeedMachine, seed_interpreter

#: Steps each case runs (the case instruction is the fifth).
STEPS = 12

#: The operand token per kind.  ``r1`` holds the per-run condition value
#: (3 or 0), ``r2`` the address of global ``g``; the immediate 2 and the
#: label ``target`` both name code addresses, so jumps and calls land.
TOKENS = {"r": "r1", "i": "2", "m": "[r2+1]", "l": "target"}

#: Mnemonic -> operand count, as the assembler enforces it.
ARITY = dict(
    [(Opcode.MOV, 2), (Opcode.LD, 2), (Opcode.ST, 2), (Opcode.LEA, 2),
     (Opcode.JMP, 1), (Opcode.BR, 2), (Opcode.BRZ, 2), (Opcode.IJMP, 1),
     (Opcode.CALL, 1), (Opcode.ICALL, 1), (Opcode.PUSH, 1),
     (Opcode.POP, 1), (Opcode.RET, 0), (Opcode.HALT, 0), (Opcode.NOP, 0)]
    + [(subop, 3) for subop in BINARY_OPS]
    + [(subop, 2) for subop in UNARY_OPS])

#: The instruction lines of one mnemonic: every kind combination.
CASES = {
    mnemonic: [
        ("%s %s" % (mnemonic, ", ".join(TOKENS[k] for k in kinds))).strip()
        for kinds in itertools.product("riml", repeat=arity)]
    for mnemonic, arity in ARITY.items()
}
CASES.update({"sys " + name: ["sys " + name]
              for name in sorted(SYSCALLS) + ["nosuchcall"]})

CASE_PC = 4


def build(line: str, cond: int):
    return assemble("""
.global g 4 = 5 6 7 8
func main
    mov r0, 1
    mov r1, %d
    lea r2, g
    mov r3, 0
    %s
    halt
target:
    nop
    halt
""" % (cond, line), name="shape")


def run(machine_class, program, tool=None):
    machine = machine_class(program, scheduler=RoundRobinScheduler(),
                            inputs=[4], rand_seed=1)
    if tool is not None:
        machine.add_tool(tool)
    try:
        machine.run(max_steps=STEPS)
    except Exception as exc:  # noqa: BLE001 — the outcome under test
        return machine, exc
    return machine, None


def record(program, seed_machine: bool):
    kwargs = dict(inputs=[4], rand_seed=1)
    try:
        if seed_machine:
            with seed_interpreter():
                return record_region(program, RoundRobinScheduler(),
                                     RegionSpec(length=STEPS),
                                     extra_tools=[Tool()], **kwargs), None
        return record_region(program, RoundRobinScheduler(),
                             RegionSpec(length=STEPS), **kwargs), None
    except Exception as exc:  # noqa: BLE001 — the outcome under test
        return None, exc


def check_case(line: str, cond: int) -> None:
    program = build(line, cond)
    where = "%r with r1=%d" % (line, cond)
    # Decoding never fails, whatever the shape.
    Machine(program)

    seed_log, pre_log = RetainingLog(), RetainingLog()
    seed_m, seed_err = run(SeedMachine, program, seed_log)
    pre_m, pre_err = run(Machine, program, pre_log)
    assert pre_log.frozen() == seed_log.frozen(), where
    assert pre_log.syscalls == seed_log.syscalls, where
    assert pre_m.snapshot().to_dict() == seed_m.snapshot().to_dict(), where
    if seed_err is None:
        assert pre_err is None, "%s: %r" % (where, pre_err)
        assert list(pre_m.output) == list(seed_m.output), where
    else:
        assert isinstance(pre_err, VMError), "%s: %r" % (where, pre_err)
        if not isinstance(seed_err, VMError):
            # A shape the seed interpreter trips over (AttributeError and
            # friends) faults with the thread and pc of the instruction.
            assert (pre_err.tid, pre_err.pc) == (0, CASE_PC), where

    # Untraced: same end state, same fault-or-not.
    seed_m, seed_err = run(SeedMachine, program)
    pre_m, pre_err = run(Machine, program)
    assert pre_m.snapshot().to_dict() == seed_m.snapshot().to_dict(), where
    assert (pre_err is None) == (seed_err is None), where

    # Fast record path vs the seed's per-event LoggerTool.
    seed_pb, seed_err = record(program, seed_machine=True)
    pre_pb, pre_err = record(program, seed_machine=False)
    assert (pre_err is None) == (seed_err is None), where
    if seed_pb is not None:
        assert pre_pb.schedule == seed_pb.schedule, where
        assert pre_pb.syscalls == seed_pb.syscalls, where
        assert pre_pb.mem_order == seed_pb.mem_order, where
        assert pre_pb.meta == seed_pb.meta, where
    else:
        assert isinstance(pre_err, VMError), "%s: %r" % (where, pre_err)


@pytest.mark.parametrize("mnemonic", sorted(CASES))
def test_every_shape_matches_the_seed_interpreter(mnemonic):
    for line in CASES[mnemonic]:
        for cond in (3, 0):
            check_case(line, cond)


def test_malformed_instruction_off_the_path_is_harmless():
    dead = ["mov 2, r1", "ld r0, r1", "st r1, 2", "jmp r1", "call [r2]",
            "icall 2", "pop 2", "push [r2]", "add r0, [r2], 1",
            "neg [r2], r1", "br 2, 3", "sys nosuchcall"]
    source = "func main\n    mov r1, 5\n    halt\n%s\n" % "\n".join(
        "    " + line for line in dead)
    program = assemble(source, name="dead")
    for machine_class in (Machine, SeedMachine):
        machine = machine_class(program)
        result = machine.run(max_steps=10)
        assert result.reason == "exit"
        assert machine.threads[0].regs["r1"] == 5


def test_branch_to_non_address_faults_only_when_taken():
    for cond, taken in ((0, False), (3, True)):
        program = build("br r1, r2", cond)
        machine = Machine(program)
        if taken:
            with pytest.raises(VMError) as info:
                machine.run(max_steps=STEPS)
            assert (info.value.tid, info.value.pc) == (0, CASE_PC)
        else:
            assert machine.run(max_steps=STEPS).reason == "exit"


def test_decode_tables_hold_no_interpreter_fallback():
    assert not hasattr(microops, "_make_fallback")
    assert not hasattr(Machine, "_execute")
    for lines in CASES.values():
        for line in lines:
            program = build(line, 3)
            fast, traced, rec = microops.decode_program(program)
            for handler in fast + traced + [r for r in rec if r]:
                names = handler.__code__.co_names
                assert "_execute" not in names, line
                assert "_step_thread" not in names, line
