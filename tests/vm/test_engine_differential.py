"""Differential tests: the predecoded engine is observationally identical
to the seed interpreter.

The shared seeded generator (:mod:`tests.support.progen`) synthesizes
randomized multi-threaded programs (locks, races, loops, branches,
switches, calls, nondeterministic syscalls) and every program is executed
under both the predecoded micro-op machine and the seed if/elif
interpreter (:mod:`tests.support.seed_vm`) with the same scheduler seed.
They must agree on:

* the full :class:`InstrEvent` stream — every retired instruction with its
  complete def/use information (register and memory reads/writes with
  values), in the same global order;
* the scratch-event fast path — a non-retaining tool (the recycled-event
  protocol) sees the same stream as a retaining tool;
* the final :class:`MachineSnapshot` dict, program output and exit code;
* recorded pinballs — schedule, syscall log, access-order edges and the
  final state hash — including *cross* replay (a pinball recorded by the
  seed interpreter through the per-event LoggerTool replays verified on
  the predecoded machine, and the fast recorder's pinball replays
  verified on the seed interpreter);
* slice-pinball replay with exclusion skips (relogged pinballs teleport
  over excluded runs and inject side effects identically);
* the columnar trace store — record-for-record equal to the reference
  record-per-row collector of :mod:`tests.support.seed_vm` — and slices
  computed over the seed interpreter's trace.
"""

import pytest

from repro.pinplay import relog, replay
from repro.pinplay.pinball import state_hash
from repro.slicing import SliceOptions, SlicingSession

from tests.support.progen import (EagerLog, RetainingLog, build_program,
                                  record_pinball, run_machine)
from tests.support.seed_vm import (RowCollector, SeedMachine,
                                   record_pinball_seed, seed_interpreter)

#: 24 randomized programs for the event-stream comparison (the cheap,
#: highest-coverage check) ...
STREAM_SEEDS = list(range(24))
#: ... and a subset for the heavier record/replay/slice pipelines.
PIPELINE_SEEDS = list(range(10))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_event_streams_and_final_state_match(seed):
    program = build_program(seed)

    seed_log = RetainingLog()
    seed_m = run_machine(program, seed, SeedMachine, seed_log)
    pre_log = RetainingLog()
    pre = run_machine(program, seed, tool=pre_log)

    assert seed_log.steps == pre_log.steps
    assert seed_log.syscalls == pre_log.syscalls
    assert seed_log.frozen() == pre_log.frozen()
    assert list(seed_m.output) == list(pre.output)
    assert seed_m.exit_code == pre.exit_code
    assert seed_m.snapshot().to_dict() == pre.snapshot().to_dict()


@pytest.mark.parametrize("seed", STREAM_SEEDS[::3])
def test_scratch_event_path_sees_identical_stream(seed):
    """The recycled-event fast path must be observationally identical to
    the fresh-tuple path (same fields, same def/use contents and order)."""
    program = build_program(seed)
    retaining = RetainingLog()
    run_machine(program, seed, tool=retaining)
    eager = EagerLog()
    run_machine(program, seed, tool=eager)
    assert retaining.frozen() == eager.frozen_events


@pytest.mark.parametrize("seed", PIPELINE_SEEDS)
def test_recorded_pinballs_match_and_cross_replay(seed):
    program = build_program(seed)
    seed_pb = record_pinball_seed(program, seed)
    pre_pb = record_pinball(program, seed)

    assert seed_pb.schedule == pre_pb.schedule
    assert seed_pb.syscalls == pre_pb.syscalls
    assert seed_pb.mem_order == pre_pb.mem_order
    assert seed_pb.snapshot == pre_pb.snapshot
    assert (seed_pb.meta["final_state_hash"]
            == pre_pb.meta["final_state_hash"])
    assert seed_pb.meta["output"] == pre_pb.meta["output"]
    assert (seed_pb.meta["thread_instr_counts"]
            == pre_pb.meta["thread_instr_counts"])

    # Cross-replay: each interpreter's pinball replays *verified* (final
    # state hash + output) under the other.
    replay(seed_pb, program, verify=True)
    with seed_interpreter():
        replay(pre_pb, program, verify=True)


@pytest.mark.parametrize("seed", PIPELINE_SEEDS)
def test_columnar_store_matches_row_store_and_slices_agree(seed):
    program = build_program(seed)
    pinball = record_pinball(program, seed)
    options = SliceOptions(index="columnar")

    columnar = SlicingSession(pinball, program, options=options)
    rows = RowCollector(program, options)
    with seed_interpreter():
        replay(pinball, program, tools=[rows], verify=False)

    col_store = columnar.collector.store
    assert col_store.threads() == sorted(rows.by_thread)
    for tid, records in rows.by_thread.items():
        assert col_store.thread_length(tid) == len(records)
        for tindex, row in enumerate(records):
            col = col_store.get((tid, tindex))
            for field in ("tid", "tindex", "addr", "line", "func", "rdefs",
                          "ruses", "mdefs", "muses", "cd", "values"):
                assert getattr(col, field) == getattr(row, field), (
                    "field %s differs at (%d, %d)" % (field, tid, tindex))
            assert col.def_locations() == row.def_locations()
            assert col.use_locations() == row.use_locations()

    # Slices over the seed interpreter's trace match the predecoded ones.
    with seed_interpreter():
        seed_session = SlicingSession(pinball, program, options=options)
    assert isinstance(seed_session.machine, SeedMachine)
    for criterion in columnar.last_reads(3):
        col_slice = columnar.slice_for(criterion)
        seed_slice = seed_session.slice_for(criterion)
        assert set(col_slice.nodes) == set(seed_slice.nodes)
        assert sorted(col_slice.edges) == sorted(seed_slice.edges)


@pytest.mark.parametrize("seed", PIPELINE_SEEDS)
def test_slice_pinball_exclusion_replay_matches(seed):
    """Relogged slice pinballs (exclusion skips + side-effect injection)
    replay to the same machine state under both interpreters."""
    program = build_program(seed)
    pinball = record_pinball(program, seed)
    session = SlicingSession(pinball, program,
                             options=SliceOptions(index="ddg"))
    criterion = session.last_reads(1)[0]
    dslice = session.slice_for(criterion)
    keep = {}
    for tid, tindex in dslice.nodes:
        keep.setdefault(tid, set()).add(tindex)
    slice_pb = relog(pinball, program, keep)
    with seed_interpreter():
        seed_slice_pb = relog(pinball, program, keep)
        seed_m, _ = replay(slice_pb, program, verify=False)
    pre_m, _ = replay(slice_pb, program, verify=False)
    assert seed_slice_pb.exclusions == slice_pb.exclusions
    assert list(seed_slice_pb.schedule) == list(slice_pb.schedule)
    assert seed_m.skipped_exclusions == pre_m.skipped_exclusions
    assert list(seed_m.output) == list(pre_m.output)
    assert state_hash(seed_m) == state_hash(pre_m)


def test_seed_machine_refuses_the_fast_paths():
    from repro.vm.errors import VMError
    program = build_program(0)
    machine = SeedMachine(program)
    with pytest.raises(VMError):
        machine.set_recorder(object())
    with pytest.raises(VMError):
        machine.set_selective([None] * len(program.instructions))
