"""Differential tests: observability observes, it never perturbs.

For a batch of seeds from the shared randomized generator
(:mod:`tests.support.progen`), the full record → replay → slice pipeline
is executed twice — once with the registry disabled, once enabled — and
everything guest-visible must be *byte-identical*:

* the full :class:`InstrEvent` stream (def/use values, global order),
* the final :class:`MachineSnapshot` dict, output and exit code,
* the serialized pinball bytes (``to_bytes`` of the recorded region),
* the computed slices (node sets and edge multisets),
* the relogged slice pinball's exclusion list and serialized form.

Any divergence means a metric leaked into guest state or changed an
execution path, which would silently invalidate every number the obs
layer reports.
"""

import pytest

from repro.obs import OBS
from repro.pinplay import relog
from repro.slicing import SlicingSession

from tests.support.progen import (RetainingLog, build_program,
                                  record_pinball, run_machine)

#: ISSUE 3 acceptance floor: the obs differential passes on >= 12 seeds.
SEEDS = list(range(12))


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each case starts from a disabled, empty process-wide registry and
    leaves it the way it found it."""
    saved = OBS.enabled
    OBS.disable()
    OBS.reset()
    yield
    OBS.reset()
    OBS.enabled = saved


def _pipeline(seed):
    """One full DrDebug cycle; returns every guest-visible artifact."""
    program = build_program(seed)

    log = RetainingLog()
    machine = run_machine(program, seed, tool=log)

    pinball = record_pinball(program, seed)
    session = SlicingSession(pinball, program)
    criterion = session.last_reads(1)[0]
    dslice = session.slice_for(criterion)
    slice_pb = relog(pinball, program, dslice.to_keep())

    return {
        "steps": list(log.steps),
        "syscalls": list(log.syscalls),
        "events": log.frozen(),
        "snapshot": machine.snapshot().to_dict(),
        "output": list(machine.output),
        "exit_code": machine.exit_code,
        "pinball_bytes": pinball.to_bytes(),
        "slice_nodes": sorted(dslice.nodes),
        "slice_edges": sorted(dslice.edges),
        "slice_pb_exclusions": slice_pb.exclusions,
        "slice_pb_bytes": slice_pb.to_bytes(),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_enabled_and_disabled_runs_are_byte_identical(seed):
    with OBS.scope(enabled=False):
        baseline = _pipeline(seed)
    with OBS.scope(enabled=True):
        observed = _pipeline(seed)

    # Guard against a vacuous pass: the enabled run really did record.
    counters = OBS.counters()
    assert counters.get("vm.steps", 0) > 0
    assert counters.get("pinplay.regions_recorded", 0) >= 1
    assert counters.get("slicing.queries", 0) >= 1

    for key in baseline:
        assert baseline[key] == observed[key], (
            "obs enabled perturbed %r (seed=%d)" % (key, seed))


@pytest.mark.parametrize("seed", SEEDS[::5])
def test_toggling_mid_process_leaves_execution_unchanged(seed):
    """Interleaving enabled/disabled pipelines (the cyclic-debugging usage
    pattern: metrics on for one replay, off for the next) never lets
    state recorded by one run contaminate the next."""
    first = _pipeline(seed)
    with OBS.scope(enabled=True):
        _pipeline(seed)
    again = _pipeline(seed)
    assert first == again
