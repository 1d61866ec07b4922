"""Slice fingerprints stored with the benchmark, and their regeneration.

A fingerprint is ``"<node count>:<digest>"``, the digest being the first
16 hex digits of a SHA-256 over the sorted ``(tid, tindex)`` nodes of a
slice.  The stored table (``fingerprints.json`` next to this file) holds:

* ``debug_cycle`` — for every schedule seed a run can draw, the
  fingerprint of the ``total`` slice and the kept-instruction count of
  its slice pinball;
* ``query_storm`` — for every schedule seed, the fingerprint of each
  criterion in the pool the queries are drawn from.

The table is computed with the ``ddg`` slice index, so the query-storm
check, which slices with ``reexec``, is also a ddg/reexec agreement
check.  Each entry records the sizes it was computed for; a table whose
sizes do not match the benchmark's fails every check rather than
passing stale numbers.

Regenerate after an intended change to slicing results::

    PYTHONPATH=src python3 -m perfbench.fingerprints
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from typing import Iterable, Tuple

from perfbench.env import state_dir

DEFAULT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fingerprints.json")


def fingerprint(nodes: Iterable[Tuple[int, int]]) -> str:
    """``"<count>:<digest>"`` of a slice's ``(tid, tindex)`` nodes."""
    ordered = sorted((int(tid), int(tindex)) for tid, tindex in nodes)
    digest = hashlib.sha256(json.dumps(ordered).encode("ascii"))
    return "%d:%s" % (len(ordered), digest.hexdigest()[:16])


def criterion_key(instance) -> str:
    return "%d:%d" % (int(instance[0]), int(instance[1]))


def load(path: str = DEFAULT_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def table_for(table: dict, workload: str, size_name: str,
              params: dict) -> dict:
    """The per-schedule entries for one workload size, or ``{}`` if the
    stored table was made for other sizes (every check then fails)."""
    entry = table.get(workload, {}).get(size_name)
    if not entry or entry.get("params") != params:
        return {}
    return entry["schedules"]


def _debug_cycle_entries(params: dict, tmp: str) -> dict:
    from perfbench import workloads
    out = {}
    program = workloads.build_debug_cycle_program(params)
    for sched in range(params["schedules"]):
        pinball = workloads.record_debug_cycle(
            program, params, sched, os.path.join(tmp, "dc.pinball"))
        session = workloads.open_session(pinball, program, "ddg")
        dslice = session.slice_for_global("total")
        kept = session.make_slice_pinball(dslice).meta["kept_instructions"]
        out[str(sched)] = {"total": fingerprint(dslice.nodes),
                           "kept": int(kept)}
    return out


def _query_storm_entries(params: dict, tmp: str) -> dict:
    from perfbench import workloads
    out = {}
    program = workloads.build_query_storm_program(params)
    for sched in range(params["schedules"]):
        pinball = workloads.record_query_storm(
            program, params, sched, os.path.join(tmp, "qs.pinball"))
        session = workloads.open_session(pinball, program, "ddg")
        out[str(sched)] = {
            criterion_key(crit): fingerprint(session.slice_for(crit).nodes)
            for crit in session.last_reads(params["pool"])}
    return out


def regenerate(path: str = DEFAULT_PATH) -> dict:
    """Recompute every stored fingerprint and write the table."""
    from perfbench import workloads
    table = {"debug_cycle": {}, "query_storm": {}}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for size_name, sizes in workloads.SIZES.items():
        for name, build in (("debug_cycle", _debug_cycle_entries),
                            ("query_storm", _query_storm_entries)):
            params = sizes[name]
            with tempfile.TemporaryDirectory(dir=state_dir(root)) as tmp:
                entries = build(params, tmp)
            table[name][size_name] = {"params": params,
                                      "schedules": entries}
            print("%s/%s: %d schedules" % (name, size_name,
                                           params["schedules"]),
                  file=sys.stderr)
    with open(path, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return table


if __name__ == "__main__":
    regenerate()
