"""Unit tests for Limited Preprocessing block summaries."""

from repro.slicing.global_trace import merge_traces
from repro.slicing.lp import TraceBlock, build_blocks
from repro.slicing.trace import ColumnarTraceStore


def order_of(rows):
    """The merged global order of ``(tid, rdefs, mdefs)`` rows."""
    store = ColumnarTraceStore()
    for tid, rdefs, mdefs in rows:
        store.append_row(store.columns_for(tid),
                         (0, None, "f", tuple(rdefs), ()), tuple(mdefs), (),
                         None, None)
    return merge_traces(store, []).order


def plain(count):
    return order_of([(0, (), ())] * count)


class TestBuildBlocks:
    def test_partitioning(self):
        blocks = build_blocks(plain(10), block_size=4)
        assert [(b.start, b.end) for b in blocks] == [(0, 4), (4, 8), (8, 10)]

    def test_exact_multiple(self):
        blocks = build_blocks(plain(8), block_size=4)
        assert [(b.start, b.end) for b in blocks] == [(0, 4), (4, 8)]

    def test_empty_trace(self):
        assert build_blocks(plain(0), block_size=4) == []

    def test_summaries_collect_defs(self):
        order = order_of([
            (0, ("r0",), ()),
            (0, (), (100,)),
            (1, ("r0",), ()),
        ])
        blocks = build_blocks(order, block_size=10)
        assert blocks[0].defs == {
            ("r", 0, "r0"), ("m", 100), ("r", 1, "r0")}


class TestMayDefine:
    def test_hit_and_miss(self):
        block = TraceBlock(0, 4, {("m", 100), ("r", 0, "r0")})
        assert block.may_define({("m", 100)})
        assert block.may_define({("r", 0, "r0"), ("m", 999)})
        assert not block.may_define({("m", 999)})
        assert not block.may_define(set())

    def test_symmetric_over_set_sizes(self):
        # Both branches of the size heuristic must agree.
        big = {("m", i) for i in range(100)}
        block = TraceBlock(0, 4, big)
        assert block.may_define({("m", 5)})
        small_block = TraceBlock(0, 4, {("m", 5)})
        assert small_block.may_define(big)
