"""Seeded randomized multi-threaded program generator shared by suites.

One generator, many differential harnesses: the VM engine suite
(``tests/vm/test_engine_differential.py``), the slicing index suite
(``tests/slicing/test_index_differential.py``), the observability suite
(``tests/obs/test_obs_differential.py``) and the property tests all draw
their randomized workloads from here instead of carrying private copies.

The programs cover the shapes the differential suites care about: lock
acquire/release pairs, racy unlocked reads (cross-thread access-order
edges), counted loops, if/else branches, ``switch`` lowering, helper
calls, nondeterministic syscalls (``rand``/``time``/``input``) and
explicit ``yield`` points.  Everything is derived from a single integer
seed, so any two harnesses passing the same seed operate on the very
same program.

A second corpus (:func:`generate_struct_source` /
:func:`build_struct_program`) covers the struct/heap surface: linked
lists built with ``new``, chased through ``->`` field loads (by loop or
by self-recursion), struct-value locals with ``.`` access, ``delete``
teardown, and the same lock/racy-read/nondet seasoning as the flat
corpus.  The pointer-band differential suites draw from it.
"""

import random

from repro.lang import compile_source
from repro.pinplay import RegionSpec, record_region
from repro.vm import RandomScheduler
from repro.vm.hooks import Tool
from repro.vm.machine import Machine

#: Safety cap: every generated program terminates well under this.
STEP_CAP = 60_000

#: Scheduler preemption rate used by the shared record/run helpers.
SWITCH_PROB = 0.3

_BINOPS = ("+", "-", "*", "&", "|", "^")


def _worker(rng: random.Random, index: int) -> str:
    """One worker function: a lock-protected update loop with extras."""
    op1, op2, op3 = (rng.choice(_BINOPS) for _ in range(3))
    c1, c2, c3 = (rng.randint(1, 9) for _ in range(3))
    bound = rng.randint(3, 7)
    ga, gb = rng.sample(("g0", "g1", "g2", "g3"), 2)
    lines = [
        "int worker%d(int n) {" % index,
        "    int i; int t;",
        "    t = %d;" % rng.randint(0, 5),
        "    for (i = 0; i < n + %d; i = i + 1) {" % (bound - 3),
        "        lock(&m);",
        "        %s = %s %s %d;" % (ga, ga, op1, c1),
        "        %s = %s %s (i %s %d);" % (gb, gb, op2, op3, c2),
        "        unlock(&m);",
    ]
    # Racy unlocked read: generates cross-thread access-order edges.
    lines.append("        t = t + %s;" % rng.choice((ga, gb)))
    if rng.random() < 0.5:
        lines += [
            "        if (t > %d) { t = t - %d; } else { t = t + 1; }"
            % (c3 * 10, c3),
        ]
    if rng.random() < 0.4:
        lines += [
            "        switch (i % 4) {",
            "            case 0: t = t + %d; break;" % c1,
            "            case 1: t = t ^ %d; break;" % c2,
            "            case 2: t = helper(t); break;",
            "            default: t = t - 1; break;",
            "        }",
        ]
    if rng.random() < 0.4:
        lines.append("        t = t + rand(%d);" % rng.randint(2, 6))
    if rng.random() < 0.3:
        lines.append("        yield();")
    lines += [
        "    }",
        "    return t;",
        "}",
    ]
    return "\n".join(lines)


def generate_source(seed: int) -> str:
    """A deterministic, seed-randomized multi-threaded program."""
    rng = random.Random(seed)
    nworkers = rng.randint(1, 3)
    parts = [
        "int g0; int g1; int g2; int g3; int m;",
        "int helper(int v) {",
        "    if (v %% 2) { return v + %d; }" % rng.randint(1, 5),
        "    return v - %d;" % rng.randint(1, 5),
        "}",
    ]
    for index in range(nworkers):
        parts.append(_worker(rng, index))
    main = [
        "int main() {",
        "    int x; int r;",
        "    " + " ".join("int t%d;" % i for i in range(nworkers)),
        "    x = input();",
        "    g0 = x + %d;" % rng.randint(0, 9),
        "    g1 = %d;" % rng.randint(1, 9),
    ]
    if rng.random() < 0.5:
        main.append("    g2 = time() % 97;")
    for index in range(nworkers):
        main.append("    t%d = spawn(worker%d, %d);"
                    % (index, index, rng.randint(2, 5)))
    main.append("    r = helper(x);")
    for index in range(nworkers):
        main.append("    join(t%d);" % index)
    main += [
        "    print(g0); print(g1); print(g2); print(r);",
        "    return 0;",
        "}",
    ]
    parts.append("\n".join(main))
    return "\n".join(parts)


def build_program(seed: int):
    """Compile the generated source for ``seed``."""
    return compile_source(generate_source(seed), name="diff-%d" % seed)


# -- struct / pointer / recursion corpus --------------------------------------

_STRUCT_PRELUDE = """\
struct Node { int value; struct Node* next; };
struct Pair { int a; int b; };
int total; int m;
int rsum(struct Node* n) {
    if (n == 0) { return 0; }
    return n->value + rsum(n->next);
}
int rlen(struct Node* n) {
    if (n == 0) { return 0; }
    return 1 + rlen(n->next);
}
"""


def _struct_worker(rng: random.Random, index: int) -> str:
    """One worker: builds a heap list, chases it (loop or recursion),
    mixes in struct-value locals, and tears some of it down."""
    op = rng.choice(_BINOPS)
    c = rng.randint(1, 9)
    nodes = rng.randint(3, 6)
    recursive = rng.random() < 0.5
    lines = [
        "int sworker%d(int n) {" % index,
        "    struct Node* head; struct Node* cur; struct Node* nx;",
        "    struct Pair p;",
        "    int i; int t;",
        "    head = 0;",
        "    for (i = 0; i < n + %d; i = i + 1) {" % nodes,
        "        cur = new Node;",
        "        cur->value = i %s %d;" % (op, c),
        "        cur->next = head;",
        "        head = cur;",
    ]
    if rng.random() < 0.4:
        lines.append("        yield();")
    lines.append("    }")
    if recursive:
        lines.append("    t = rsum(head) + rlen(head);")
    else:
        lines += [
            "    t = 0;",
            "    cur = head;",
            "    while (cur != 0) {",
            "        t = t + cur->value;",
            "        cur = cur->next;",
            "    }",
        ]
    lines += [
        "    p.a = t % 101;",
        "    p.b = p.a %s %d;" % (rng.choice(_BINOPS), rng.randint(1, 5)),
        "    lock(&m);",
        "    total = total + p.b;",
        "    unlock(&m);",
        # Racy unlocked read of the shared accumulator.
        "    t = t + total;",
    ]
    if rng.random() < 0.7:
        lines += [
            "    cur = head;",
            "    while (cur != 0) {",
            "        nx = cur->next;",
            "        delete cur;",
            "        cur = nx;",
            "    }",
        ]
    if rng.random() < 0.4:
        lines.append("    t = t + rand(%d);" % rng.randint(2, 6))
    lines += [
        "    return t;",
        "}",
    ]
    return "\n".join(lines)


def generate_struct_source(seed: int) -> str:
    """A deterministic, seed-randomized struct/pointer/recursion
    program: heap lists built with ``new``, chased through ``->`` (by
    loop or by recursion), struct-value locals, and a lock-protected
    shared total with a racy unlocked read."""
    rng = random.Random(seed * 7919 + 17)
    nworkers = rng.randint(1, 2)
    parts = [_STRUCT_PRELUDE]
    for index in range(nworkers):
        parts.append(_struct_worker(rng, index))
    main = [
        "int main() {",
        "    struct Node* scratch;",
        "    int x; int r;",
        "    " + " ".join("int t%d;" % i for i in range(nworkers)),
        "    x = input();",
        "    scratch = new Node;",
        "    scratch->value = x + %d;" % rng.randint(0, 9),
        "    scratch->next = 0;",
        "    total = scratch->value;",
    ]
    for index in range(nworkers):
        main.append("    t%d = spawn(sworker%d, %d);"
                    % (index, index, rng.randint(1, 4)))
    main.append("    r = sworker%d(%d);"
                % (rng.randrange(nworkers), rng.randint(1, 3)))
    if rng.random() < 0.6:
        main.append("    delete scratch;")
    for index in range(nworkers):
        main.append("    r = r + join(t%d);" % index)
    main += [
        "    print(total); print(r);",
        "    return 0;",
        "}",
    ]
    parts.append("\n".join(main))
    return "\n".join(parts)


def build_struct_program(seed: int):
    """Compile the generated struct/pointer source for ``seed``."""
    return compile_source(generate_struct_source(seed),
                          name="sdiff-%d" % seed)


# -- shared execution / recording helpers -------------------------------------

def scheduler_for(seed: int) -> RandomScheduler:
    """The canonical scheduler every harness uses for ``seed``."""
    return RandomScheduler(seed=seed, switch_prob=SWITCH_PROB)


def inputs_for(seed: int):
    """The canonical input list for ``seed``."""
    return [seed % 11]


def run_machine(program, seed: int, machine_class=Machine, tool=None,
                **kwargs) -> Machine:
    """Run ``program`` to completion under the canonical seed setup
    (``machine_class``: e.g. the seed interpreter of
    :mod:`tests.support.seed_vm`)."""
    machine = machine_class(program, scheduler=scheduler_for(seed),
                            inputs=inputs_for(seed), rand_seed=seed,
                            **kwargs)
    if tool is not None:
        machine.add_tool(tool)
    machine.run(max_steps=STEP_CAP)
    assert machine.finished, "randomized program %d did not terminate" % seed
    return machine


def record_pinball(program, seed: int, **kwargs):
    """Record the whole-program region under the canonical seed setup."""
    return record_region(program, scheduler_for(seed), RegionSpec(),
                         inputs=inputs_for(seed), rand_seed=seed, **kwargs)


# -- shared observation tools -------------------------------------------------

def freeze_event(event) -> tuple:
    """An immutable, comparable rendering of one :class:`InstrEvent`."""
    return (event.seq, event.tid, event.tindex, event.addr,
            tuple(event.reg_reads), tuple(event.reg_writes),
            tuple(event.mem_reads), tuple(event.mem_writes),
            event.frame_id)


class RetainingLog(Tool):
    """Default protocol: events are immutable and may be stored as-is."""

    wants_instr_events = True      # retains_instr_events stays True

    def __init__(self):
        self.events = []
        self.syscalls = []
        self.steps = []

    def on_instr(self, event):
        self.events.append(event)   # retained: forces fresh events

    def on_syscall(self, event):
        self.syscalls.append((event.seq, event.tid, event.name,
                              tuple(event.args), event.result))

    def on_step(self, tid):
        self.steps.append(tid)

    def frozen(self):
        return [freeze_event(event) for event in self.events]


class EagerLog(Tool):
    """Non-retaining protocol: triggers the recycled scratch-event path."""

    wants_instr_events = True
    retains_instr_events = False

    def __init__(self):
        self.frozen_events = []

    def on_instr(self, event):
        self.frozen_events.append(freeze_event(event))
