"""Tests for slicing options validation and defaults."""

import pytest

from repro.slicing import SliceOptions


class TestValidation:
    def test_defaults_match_paper_configuration(self):
        options = SliceOptions()
        assert options.refine_cfg            # Section 5.1 on
        assert options.prune_save_restore    # Section 5.2 on
        assert options.max_save == 10        # the paper's MaxSave
        assert not options.discover_jump_tables
        assert not options.track_stack_pointer

    def test_negative_max_save_rejected(self):
        with pytest.raises(ValueError):
            SliceOptions(max_save=-1)

    def test_zero_block_size_rejected(self):
        with pytest.raises(ValueError):
            SliceOptions(block_size=0)

    def test_frozen(self):
        options = SliceOptions()
        with pytest.raises(Exception):
            options.max_save = 5

    def test_max_save_zero_is_valid_disable(self):
        assert SliceOptions(max_save=0).max_save == 0


class TestIndexSelection:
    def test_default_index_is_ddg(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLICE_INDEX", raising=False)
        assert SliceOptions().index == "ddg"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLICE_INDEX", "reexec")
        assert SliceOptions().index == "reexec"
        monkeypatch.setenv("REPRO_SLICE_INDEX", "columnar")
        assert SliceOptions().index == "columnar"

    def test_explicit_index_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLICE_INDEX", "columnar")
        assert SliceOptions(index="ddg").index == "ddg"

    def test_unknown_index_rejected(self):
        with pytest.raises(ValueError):
            SliceOptions(index="quantum")

    def test_negative_cache_sizes_rejected(self):
        with pytest.raises(ValueError):
            SliceOptions(slice_cache_size=-1)
        with pytest.raises(ValueError):
            SliceOptions(closure_memo_size=-1)

    def test_zero_cache_sizes_disable(self):
        options = SliceOptions(slice_cache_size=0, closure_memo_size=0)
        assert options.slice_cache_size == 0
        assert options.closure_memo_size == 0

    def test_removed_layout_and_index_rejected(self):
        with pytest.raises(ValueError):
            SliceOptions(index="rows")
        with pytest.raises(TypeError):
            SliceOptions(columnar=True)
