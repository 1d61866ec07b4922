"""Differential tests: the build-once CSR dependence index ("ddg") is
observationally identical to the backward scanners.

The shared seeded generator (:mod:`tests.support.progen`) synthesizes
randomized multi-threaded programs (locks, races, loops, branches,
switches, calls, nondeterministic syscalls).  For every program the same
recorded region is sliced under both materialized index engines —

* ``"ddg"``       — forward-built CSR dependence graph + memoized closures,
* ``"columnar"``  — backward scan with LP block skipping over columns,

plus an independent ``columnar`` session (its own traced replay), and
the slices must agree node-for-node and edge-for-edge.  The save/restore
bypass (paper Section 5.2) is exercised both enabled and disabled, and
DDG-derived slice pinballs must replay (exclusion skips, side-effect
injection) identically to scan-derived ones on both the predecoded
machine and the seed interpreter (:mod:`tests.support.seed_vm`).
"""

import pytest

from repro.pinplay import relog, replay
from repro.pinplay.pinball import state_hash
from repro.slicing import BackwardSlicer, SliceOptions, SlicingSession

from tests.support.progen import build_program, record_pinball
from tests.support.seed_vm import seed_interpreter

SEEDS = list(range(12))

INDEXES = ("ddg", "columnar")


def _record(seed):
    program = build_program(seed)
    return program, record_pinball(program, seed)


def _assert_same_slice(reference, other, context):
    __tracebackhide__ = True
    assert set(reference.nodes) == set(other.nodes), (
        "slice node sets differ (%s)" % context)
    assert sorted(reference.edges) == sorted(other.edges), (
        "slice edge multisets differ (%s)" % context)
    assert reference.criterion == other.criterion


@pytest.mark.parametrize("seed", SEEDS)
def test_all_indexes_agree(seed):
    """ddg == columnar == an independent columnar session, for read
    criteria and for location (global variable) queries."""
    program, pinball = _record(seed)
    session = SlicingSession(pinball, program)
    restores = session.collector.save_restore.verified
    slicers = {
        index: BackwardSlicer(session.gtrace, verified_restores=restores,
                              options=SliceOptions(index=index))
        for index in INDEXES
    }
    scan_session = SlicingSession(
        pinball, program, options=SliceOptions(index="columnar"))

    queries = [(criterion, None) for criterion in session.last_reads(5)]
    queries.append((session.last_write_to_global("g0"),
                    [session.global_location("g0")]))
    queries.append((session.last_write_to_global("g1"),
                    [session.global_location("g1")]))

    for criterion, locations in queries:
        reference = slicers["ddg"].slice(criterion, locations)
        _assert_same_slice(
            reference, slicers["columnar"].slice(criterion, locations),
            "seed=%d index=columnar criterion=%r" % (seed, criterion))
        _assert_same_slice(
            reference, scan_session.slice_for(criterion, locations),
            "seed=%d columnar session criterion=%r" % (seed, criterion))
        assert (reference.stats["unresolved_locations"]
                == slicers["columnar"].slice(criterion, locations)
                .stats["unresolved_locations"])


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_indexes_agree_without_save_restore_bypass(seed):
    """Disabling the Section 5.2 bypass must change all engines in
    lockstep (slices still identical across indexes)."""
    program, pinball = _record(seed)
    session = SlicingSession(
        pinball, program, options=SliceOptions(prune_save_restore=False,
                                               index="ddg"))
    restores = session.collector.save_restore.verified
    criterion = session.last_reads(1)[0]
    reference = session.slice_for(criterion)
    other = BackwardSlicer(
        session.gtrace, verified_restores=restores,
        options=SliceOptions(prune_save_restore=False, index="columnar")
    ).slice(criterion)
    _assert_same_slice(reference, other,
                       "seed=%d no-bypass index=columnar" % seed)


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_repeated_queries_hit_caches_and_stay_identical(seed):
    program, pinball = _record(seed)
    session = SlicingSession(pinball, program,
                             options=SliceOptions(index="ddg"))
    criteria = session.last_reads(3)
    first = [session.slice_for(c) for c in criteria]
    again = [session.slice_for(c) for c in criteria]
    for a, b in zip(first, again):
        _assert_same_slice(a, b, "seed=%d repeat" % seed)
    ddg = session.slicer.ddg
    assert ddg.cache_hits >= len(criteria)
    # Distinct criteria over one trace share closure fragments.
    stats = session.stats()
    assert stats["memo_hits"] >= len(criteria)


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_ddg_slice_pinballs_replay_like_scan_slice_pinballs(seed):
    """Slice pinballs relogged from DDG slices replay with the same
    exclusion skips, output, and final state as scan-derived ones."""
    program, pinball = _record(seed)
    ddg_session = SlicingSession(pinball, program,
                                 options=SliceOptions(index="ddg"))
    scan_session = SlicingSession(pinball, program,
                                  options=SliceOptions(index="columnar"))
    criterion = ddg_session.last_reads(1)[0]
    ddg_slice = ddg_session.slice_for(criterion)
    scan_slice = scan_session.slice_for(criterion)
    _assert_same_slice(ddg_slice, scan_slice, "seed=%d pinball" % seed)

    ddg_pb = relog(pinball, program, ddg_slice.to_keep())
    scan_pb = relog(pinball, program, scan_slice.to_keep())
    assert ddg_pb.exclusions == scan_pb.exclusions
    assert ddg_pb.meta["kept_instructions"] == scan_pb.meta[
        "kept_instructions"]

    machines = {}
    machines["predecoded"], _ = replay(ddg_pb, program, verify=False)
    with seed_interpreter():
        machines["seed"], _ = replay(ddg_pb, program, verify=False)
    scan_machine, _ = replay(scan_pb, program, verify=False)
    for engine, machine in machines.items():
        assert machine.skipped_exclusions == scan_machine.skipped_exclusions
        assert list(machine.output) == list(scan_machine.output)
        assert state_hash(machine) == state_hash(scan_machine)
