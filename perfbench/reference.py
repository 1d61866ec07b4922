"""Machine-speed reference: fixed computations timed next to the workload.

The benchmark's host is shared.  On the 2-vCPU container the benchmark
was built on, the same cycle of the same workload, in the same process,
took up to twice as long for tens of seconds at a time while other
tenants were busy, and a median over a 15-second run cannot average
that away.  So every timed cycle of an in-process workload, and every
set-up, sits between two *probes*, run while the program is idle.  A
probe times three fixed pure-Python computations that exercise what the
interpreter-bound program does — dict and list churn, random access
into a table larger than the L2 cache, and a small register-machine
dispatch loop — and depends on nothing in ``repro``, so a change to the
program cannot move it.  Their sum tracked the workloads' slowdowns
better than any one of them.

A timing is reported in *reference seconds*: wall seconds divided by
the slowdown, the geometric mean of the two neighbouring probes over
``REFERENCE_S``.  ``REFERENCE_S`` is the probe's time on the quiet
reference container, so there reference and wall seconds agree; on a
loaded host the division takes the slowdown out.  Reports also carry
the raw wall timings and the median slowdown.  The served workload
stays in wall seconds: it runs in five processes talking over IPC, and
scaling it by the probe widened its spread instead of narrowing it.
"""

from __future__ import annotations

import gc
import math
import random
import time

#: The probe's time on the reference host (quiet 2-vCPU x86-64
#: container, Python 3.11).
REFERENCE_S = 0.0115

#: Repeats per computation; the fastest counts (it filters bursts
#: shorter than a repeat, while slowdowns lasting seconds slow every
#: repeat alike).
REPEATS = 3

_TABLE_SIZE = 1 << 15
_KEYS = list(range(_TABLE_SIZE))
random.Random(7).shuffle(_KEYS)
_TABLE = {key: key * 3 for key in range(_TABLE_SIZE)}

#: A counting loop for :func:`_interpret`: r0 counts to r7, storing and
#: reloading through a memory dict on the way.
_PROGRAM = (("li", 0, 0), ("li", 1, 1), ("add", 2, 0, 1), ("st", 2, 0),
            ("ld", 3, 0), ("addi", 0, 0, 1), ("blt", 0, 7, 2))


def _churn() -> int:
    table: dict = {}
    out = []
    for i in range(12000):
        key = i & 511
        table[key] = table.get(key, 0) + (i ^ key)
        out.append((table[key] * 31 + i) >> 3)
    return len(out)


def _lookup() -> int:
    acc = 0
    table = _TABLE
    out = []
    for key in _KEYS[:20000]:
        acc += table[key]
        out.append((key, acc & 255))
    return len(out)


def _interpret() -> int:
    regs = [0] * 8
    regs[7] = 1500
    memory: dict = {}
    pc = steps = 0
    while pc < len(_PROGRAM):
        op = _PROGRAM[pc]
        kind = op[0]
        steps += 1
        pc += 1
        if kind == "li":
            regs[op[1]] = op[2]
        elif kind == "add":
            regs[op[1]] = regs[op[2]] + regs[op[3]]
        elif kind == "addi":
            regs[op[1]] = regs[op[2]] + op[3]
        elif kind == "st":
            memory[(regs[op[2]] * 7919) & 4095] = regs[op[1]]
        elif kind == "ld":
            regs[op[1]] = memory.get((regs[op[2]] * 7919) & 4095, 0)
        elif kind == "blt" and regs[op[1]] < regs[op[2]]:
            pc = op[3]
    return steps


def _fastest(unit) -> float:
    best = math.inf
    for _ in range(REPEATS):
        started = time.perf_counter()
        unit()
        best = min(best, time.perf_counter() - started)
    return best


def probe() -> float:
    """Seconds the reference computations take right now (with the
    cyclic collector paused, so that garbage the program left behind
    cannot bill the probe for a collection)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return sum(_fastest(unit) for unit in (_churn, _lookup, _interpret))
    finally:
        if was_enabled:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference host the machine ran between
    two probes (1.0 = reference speed)."""
    return math.sqrt(before * after) / REFERENCE_S
