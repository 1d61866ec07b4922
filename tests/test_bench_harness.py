"""Unit tests for the benchmark harness's ratio helpers."""

from benchmarks.harness import (RSS_RESOLUTION_BYTES, format_ratio,
                                resolved_ratio)


class TestResolvedRatio:
    def test_plain_ratio(self):
        assert resolved_ratio(10, 4) == 2.5

    def test_zero_denominator_is_unresolved(self):
        # The committed frontier once read 2228224.0x from a clamped 0.
        assert resolved_ratio(2228224, 0, RSS_RESOLUTION_BYTES) is None
        assert resolved_ratio(5, 0) is None

    def test_below_resolution_is_unresolved(self):
        assert resolved_ratio(2228224, 512, RSS_RESOLUTION_BYTES) is None
        assert resolved_ratio(2228224, RSS_RESOLUTION_BYTES,
                              RSS_RESOLUTION_BYTES) == 2176.0

    def test_format(self):
        assert format_ratio(None) == "unresolved"
        assert format_ratio(3.5094) == "3.5x"
