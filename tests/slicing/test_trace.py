"""Unit tests for trace records and the trace store."""

from repro.slicing.trace import ColumnarTraceStore, TraceRecord


def record(tid=0, tindex=0, addr=0, rdefs=(), ruses=(), mdefs=(), muses=(),
           cd=None, line=None):
    return TraceRecord(tid=tid, tindex=tindex, addr=addr, line=line,
                       func="f", rdefs=tuple(rdefs), ruses=tuple(ruses),
                       mdefs=tuple(mdefs), muses=tuple(muses), cd=cd)


class TestTraceRecord:
    def test_locations_tagged_by_kind(self):
        rec = record(tid=2, rdefs=("r0",), mdefs=(100,),
                     ruses=("r1",), muses=(200,))
        assert set(rec.def_locations()) == {("r", 2, "r0"), ("m", 100)}
        assert set(rec.use_locations()) == {("r", 2, "r1"), ("m", 200)}

    def test_register_locations_are_per_thread(self):
        a = record(tid=1, rdefs=("r0",))
        b = record(tid=2, rdefs=("r0",))
        assert set(a.def_locations()) != set(b.def_locations())

    def test_instance_identity(self):
        assert record(tid=3, tindex=7).instance == (3, 7)

    def test_gpos_defaults_unset(self):
        assert record().gpos == -1


def append(store, tid, addr=0, rdefs=(), mdefs=(), cd=None):
    """Append one row (interned statics, as the tracer does)."""
    static = store.intern((addr, None, "f", tuple(rdefs), ()))
    store.append_row(store.columns_for(tid), static, tuple(mdefs), (),
                     cd, None)


class TestTraceStore:
    def test_append_and_get(self):
        store = ColumnarTraceStore()
        append(store, 0)
        append(store, 0, addr=7)
        append(store, 1)
        assert store.get((0, 1)).tindex == 1
        assert store.get((0, 1)).addr == 7
        assert store.get((1, 0)).tid == 1
        assert store.get((1, 0)) is store.get((1, 0))

    def test_lengths_and_totals(self):
        store = ColumnarTraceStore()
        for _ in range(5):
            append(store, 0)
        for _ in range(3):
            append(store, 2)
        assert store.thread_length(0) == 5
        assert store.thread_length(2) == 3
        assert store.thread_length(9) == 0
        assert store.total_records() == 8
        assert store.threads() == [0, 2]

    def test_contains(self):
        store = ColumnarTraceStore()
        append(store, 0)
        assert (0, 0) in store
        assert (0, 1) not in store
        assert (1, 0) not in store

    def test_views_match_columns(self):
        store = ColumnarTraceStore()
        append(store, 3, addr=5, rdefs=("r0",), mdefs=(100,), cd=(3, 0))
        rec = store.get((3, 0))
        assert (rec.rdefs, rec.mdefs, rec.cd) == (("r0",), (100,), (3, 0))
        assert store.def_locations_at(3, 0) == rec.def_locations()
        assert set(rec.def_locations()) == {("r", 3, "r0"), ("m", 100)}
