"""Unit tests for global-trace construction (topological merge)."""

import pytest

from repro.slicing.global_trace import GlobalTraceError, merge_traces
from repro.slicing.trace import ColumnarTraceStore


def make_store(lengths):
    """A store with ``lengths[tid]`` empty rows per thread."""
    store = ColumnarTraceStore()
    for tid, length in lengths.items():
        cols = store.columns_for(tid)
        for tindex in range(length):
            store.append_row(cols, (tindex, None, "f", (), ()), (), (),
                             None, None)
    return store


class TestMerge:
    def test_program_order_preserved(self):
        store = make_store({0: 5, 1: 5})
        gtrace = merge_traces(store, [])
        seen = {}
        for record in gtrace.order:
            prev = seen.get(record.tid, -1)
            assert record.tindex == prev + 1
            seen[record.tid] = record.tindex
        assert len(gtrace) == 10

    def test_gpos_assigned_densely(self):
        store = make_store({0: 3, 1: 3})
        gtrace = merge_traces(store, [])
        assert [r.gpos for r in gtrace.order] == list(range(6))

    def test_edges_respected(self):
        store = make_store({0: 3, 1: 3})
        # Thread 1's record 0 must come after thread 0's record 2.
        edges = [(0, 2, 1, 0, 100, "raw")]
        gtrace = merge_traces(store, edges)
        assert gtrace.verify_topological(edges)
        pos_producer = store.get((0, 2)).gpos
        pos_consumer = store.get((1, 0)).gpos
        assert pos_producer < pos_consumer

    def test_interleaved_edges(self):
        store = make_store({0: 4, 1: 4})
        edges = [
            (0, 1, 1, 0, 1, "raw"),   # t1[0] after t0[1]
            (1, 2, 0, 3, 2, "waw"),   # t0[3] after t1[2]
        ]
        gtrace = merge_traces(store, edges)
        assert gtrace.verify_topological(edges)

    def test_clustering_keeps_runs_together(self):
        # With one cross edge, the merge should produce two long runs,
        # not a fine interleaving (LP locality heuristic).
        store = make_store({0: 10, 1: 10})
        edges = [(0, 9, 1, 0, 1, "raw")]
        gtrace = merge_traces(store, edges)
        tids = [record.tid for record in gtrace.order]
        assert tids == [0] * 10 + [1] * 10

    def test_cycle_detected(self):
        store = make_store({0: 2, 1: 2})
        edges = [
            (0, 1, 1, 0, 1, "raw"),
            (1, 1, 0, 0, 2, "raw"),
        ]
        with pytest.raises(GlobalTraceError):
            merge_traces(store, edges)

    def test_three_threads(self):
        store = make_store({0: 3, 1: 3, 2: 3})
        edges = [
            (0, 2, 1, 0, 1, "raw"),
            (1, 2, 2, 0, 2, "raw"),
        ]
        gtrace = merge_traces(store, edges)
        assert gtrace.verify_topological(edges)
        assert len(gtrace) == 9

    def test_empty_store(self):
        gtrace = merge_traces(ColumnarTraceStore(), [])
        assert len(gtrace) == 0

    def test_record_lookup(self):
        store = make_store({0: 2})
        gtrace = merge_traces(store, [])
        assert gtrace.record_at(1) is gtrace.record_of((0, 1))


class TestMergeFromRealExecution:
    def test_logger_edges_always_consistent(self, fig5):
        """Edges recorded from a real run must never be cyclic."""
        from repro.slicing import TraceCollector
        from repro.pinplay import replay
        program, pinball, _seed = fig5
        collector = TraceCollector(program)
        replay(pinball, program, tools=[collector], verify=False)
        gtrace = merge_traces(collector.store, pinball.mem_order)
        assert gtrace.verify_topological(pinball.mem_order)
