"""Unit tests for the build-once CSR dependence index (repro.slicing.ddg).

Structural CSR invariants, the two memo layers (closure fragments and
the slice-result LRU), the session-level amortization stats, and the
lazily built criterion reverse indexes that replaced the per-call trace
scans in :class:`SlicingSession`.
"""

import pytest

from repro.lang import compile_source
from repro.pinplay import RegionSpec, record_region
from repro.slicing import DependenceIndex, SliceOptions, SlicingSession
from repro.slicing.ddg import EDGE_CONTROL, EDGE_DATA
from repro.vm import RandomScheduler, RoundRobinScheduler

SOURCE = """
int g0; int g1; int m;

int worker(int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        lock(&m);
        g0 = g0 + i;
        unlock(&m);
        g1 = g1 ^ g0;
    }
    return g1;
}

int main() {
    int t; int r;
    g0 = input();
    g1 = 3;
    t = spawn(worker, 4);
    r = worker(2);
    join(t);
    print(g0); print(g1); print(r);
    return 0;
}
"""


def make_session(options=None, seed=7):
    program = compile_source(SOURCE, name="ddg-unit")
    pinball = record_region(
        program, RandomScheduler(seed=seed, switch_prob=0.3), RegionSpec(),
        inputs=[5], rand_seed=seed)
    opts = options or SliceOptions(index="ddg")
    return SlicingSession(pinball, program, opts)


@pytest.fixture(scope="module")
def session():
    return make_session()


@pytest.fixture(scope="module")
def ddg(session):
    return session.slicer.ddg


class TestCsrInvariants:
    def test_indptr_shape(self, session, ddg):
        indptr = ddg._indptr
        assert indptr[0] == 0
        assert indptr[-1] == len(ddg._preds)
        assert ddg.node_count == len(session.gtrace.order)
        assert all(indptr[i] <= indptr[i + 1]
                   for i in range(len(indptr) - 1))

    def test_parallel_columns_aligned(self, ddg):
        assert len(ddg._preds) == len(ddg._kinds) == len(ddg._elocs)
        assert ddg.edge_count == len(ddg._preds)

    def test_producers_strictly_precede_consumers(self, ddg):
        for g in range(ddg.node_count):
            for e in range(ddg._indptr[g], ddg._indptr[g + 1]):
                assert 0 <= ddg._preds[e] < g

    def test_edge_kinds_and_location_ids(self, ddg):
        for e in range(ddg.edge_count):
            kind = ddg._kinds[e]
            assert kind in (EDGE_DATA, EDGE_CONTROL)
            if kind == EDGE_CONTROL:
                assert ddg._elocs[e] == -1
            else:
                assert 0 <= ddg._elocs[e] < len(ddg._locs)

    def test_locations_interned_once(self, ddg):
        assert len(ddg._locs) == len(set(ddg._locs))
        assert all(ddg._loc_ids[loc] == i
                   for i, loc in enumerate(ddg._locs))

    def test_def_positions_sorted(self, ddg):
        assert len(ddg._def_positions) == len(ddg._locs)
        for positions in ddg._def_positions:
            assert positions == sorted(positions)


class TestMemoLayers:
    def test_slice_result_lru_hit(self):
        session = make_session()
        criterion = session.last_reads(1)[0]
        first = session.slice_for(criterion)
        second = session.slice_for(criterion)
        assert first is second
        assert session.slicer.ddg.cache_hits == 1

    def test_lru_eviction_at_capacity_one(self):
        session = make_session(SliceOptions(index="ddg", slice_cache_size=1))
        a, b = session.last_reads(2)
        session.slice_for(a)
        session.slice_for(b)                       # evicts a
        ddg = session.slicer.ddg
        assert len(ddg._slice_cache) == 1
        session.slice_for(a)                       # miss again
        assert ddg.cache_hits == 0
        assert ddg.cache_misses == 3
        assert ddg.stats()["slice_cache_entries"] == 1

    def test_closure_memo_reused_across_queries(self):
        session = make_session(SliceOptions(index="ddg",
                                            slice_cache_size=0))
        criterion = session.last_reads(1)[0]
        first = session.slice_for(criterion)
        second = session.slice_for(criterion)
        ddg = session.slicer.ddg
        assert ddg.memo_hits >= 1
        assert second.stats["closure_memo_hits"] >= 1
        assert set(first.nodes) == set(second.nodes)
        assert sorted(first.edges) == sorted(second.edges)

    def test_disabled_memos_still_correct(self):
        baseline = make_session()
        criterion = baseline.last_reads(1)[0]
        reference = baseline.slice_for(criterion)
        session = make_session(SliceOptions(index="ddg", slice_cache_size=0,
                                            closure_memo_size=0))
        dslice = session.slice_for(criterion)
        ddg = session.slicer.ddg
        assert not ddg._slice_cache and not ddg._closure_memo
        assert set(dslice.nodes) == set(reference.nodes)
        assert sorted(dslice.edges) == sorted(reference.edges)


class TestSessionStats:
    def test_stats_zero_before_first_query(self):
        session = make_session()
        stats = session.stats()
        assert stats["slice_index"] == "ddg"
        assert stats["ddg_build_time_sec"] == 0.0
        assert stats["edge_count"] == 0
        assert stats["memo_hits"] == 0 and stats["memo_misses"] == 0

    def test_stats_populated_after_query(self):
        session = make_session()
        criterion = session.last_reads(1)[0]
        session.slice_for(criterion)
        session.slice_for(criterion)
        stats = session.stats()
        assert stats["ddg_build_time_sec"] > 0
        assert stats["edge_count"] > 0
        assert stats["memo_hits"] >= 1       # the slice-cache hit counts
        assert stats["memo_misses"] >= 1
        assert stats["slice_cache_hits"] == 1

    def test_scan_engines_report_zero_ddg_stats(self):
        session = make_session(SliceOptions(index="columnar"))
        session.slice_for(session.last_reads(1)[0])
        stats = session.stats()
        assert stats["slice_index"] == "columnar"
        assert stats["edge_count"] == 0
        assert stats["ddg_build_time_sec"] == 0.0

    def test_direct_index_stats(self, session, ddg):
        stats = ddg.stats()
        for key in ("build_time_sec", "node_count", "edge_count",
                    "location_count", "bypassed_edges", "memo_hits",
                    "memo_misses", "cache_hits", "cache_misses",
                    "closure_memo_entries", "slice_cache_entries"):
            assert key in stats
        assert stats["node_count"] == ddg.node_count

    def test_ddg_built_lazily(self):
        session = make_session()
        assert session.slicer._ddg is None
        session.slice_for(session.last_reads(1)[0])
        assert isinstance(session.slicer._ddg, DependenceIndex)


class TestCriterionReverseIndexes:
    """The lazily built reverse indexes must equal brute-force scans."""

    def brute_force(self, session):
        store = session.collector.store
        line_best, write_best, reads = {}, {}, []
        for tid in store.threads():
            for tindex in range(store.thread_length(tid)):
                rec = store.get((tid, tindex))
                if rec.line is not None:
                    cur = line_best.get(rec.line)
                    if cur is None or rec.gpos > cur[0]:
                        line_best[rec.line] = (rec.gpos, (tid, tindex))
                for addr in rec.mdefs:
                    cur = write_best.get(addr)
                    if cur is None or rec.gpos > cur[0]:
                        write_best[addr] = (rec.gpos, (tid, tindex))
                if rec.muses:
                    reads.append((rec.gpos, (tid, tindex)))
        reads.sort()
        return line_best, write_best, reads

    def test_matches_brute_force(self):
        session = make_session()
        line_best, write_best, reads = self.brute_force(session)
        for line, (_gpos, inst) in line_best.items():
            assert session.last_instance_at_line(line) == inst
        for name in ("g0", "g1"):
            var = session.program.globals[name]
            best = max((write_best[addr]
                        for addr in range(var.addr,
                                          var.addr + max(1, var.size))
                        if addr in write_best))
            assert session.last_write_to_global(name) == best[1]
        for count in (1, 3, 10):
            expected = [inst for _g, inst in reads[:-count - 1:-1]]
            assert session.last_reads(count) == expected

    def test_per_thread_filters(self):
        session = make_session()
        store = session.collector.store
        for tid in store.threads():
            lines = {}
            for tindex in range(store.thread_length(tid)):
                rec = store.get((tid, tindex))
                if rec.line is not None:
                    cur = lines.get(rec.line)
                    if cur is None or rec.gpos > cur[0]:
                        lines[rec.line] = (rec.gpos, (tid, tindex))
            for line, (_gpos, inst) in lines.items():
                assert session.last_instance_at_line(line, tid=tid) == inst
