"""The public API surface: everything advertised exists and imports.

Extended for the unified-surface redesign: the blessed top-level
``__all__`` (including the serve client and the config resolver), the
removal of the expired pre-1.0 aliases and slice keywords, and the
``repro.config`` precedence knobs.
"""

import importlib
import warnings

import pytest

import repro


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted_and_unique(self):
        names = [n for n in repro.__all__ if n != "__version__"]
        assert names == sorted(names)
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_version(self):
        assert repro.__version__

    def test_quickstart_snippet_names(self):
        # The README quickstart must keep working.
        for name in ("compile_source", "record", "record_region", "replay",
                     "RandomScheduler", "RegionSpec", "SlicingSession",
                     "DrDebugSession", "DrDebugCLI", "expose_and_record",
                     "detect_races", "DebugClient", "SliceOptions", "OBS",
                     "config"):
            assert hasattr(repro, name), name

    def test_record_is_record_region(self):
        assert repro.record is repro.record_region

    def test_config_is_the_resolver_module(self):
        assert repro.config.slice_shards() >= 1
        assert repro.config.slice_index() in ("ddg", "columnar", "reexec")


#: Pre-1.0 top-level spellings, removed after their deprecation cycle.
REMOVED_ALIASES = {
    "record_pinball": "record_region",
    "replay_pinball": "replay",
    "SliceSession": "SlicingSession",
    "races": "detect_races",
}


class TestDeprecatedAliases:
    @pytest.mark.parametrize("old,new", sorted(REMOVED_ALIASES.items()))
    def test_alias_removed(self, old, new):
        with pytest.raises(AttributeError):
            getattr(repro, old)
        assert new in repro.__all__

    def test_aliases_stay_out_of_all(self):
        for old in REMOVED_ALIASES:
            assert old not in repro.__all__

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_api  # noqa: B018

    def test_removed_slice_keywords_raise_type_error(self, fig5):
        from repro.slicing import SliceOptions
        program, pinball, _seed = fig5
        session = repro.SlicingSession(pinball, program,
                                       SliceOptions(index="ddg"))
        criterion = session.last_write_to_global("x")
        with pytest.raises(TypeError):
            session.slice_for_global(name="x")
        with pytest.raises(TypeError):
            session.slice_for_global("x", criterion=criterion)
        debugger = repro.DrDebugSession(pinball, program)
        with pytest.raises(TypeError):
            debugger.slice_for_variable(name="x")
        assert not hasattr(repro.deprecation, "deprecated_kwarg")

    def test_engine_accepts_only_predecoded(self, fig5):
        program, pinball, _seed = fig5
        assert repro.config.engine() == "predecoded"
        assert repro.config.engine(explicit="predecoded") == "predecoded"
        repro.replay(pinball, program, engine="predecoded")
        with pytest.raises(ValueError):
            repro.config.engine(explicit="legacy")
        with pytest.raises(ValueError):
            repro.replay(pinball, program, engine="legacy")
        with pytest.raises(ValueError):
            repro.SlicingSession(pinball, program, engine="legacy")
        with pytest.raises(ValueError):
            repro.record_region(program, repro.RandomScheduler(seed=1),
                                engine="legacy")
        assert "REPRO_ENGINE" not in repro.config.precedence_table()


SUBPACKAGES = [
    "repro.isa", "repro.lang", "repro.vm", "repro.pinplay",
    "repro.analysis", "repro.slicing", "repro.debugger", "repro.maple",
    "repro.detect", "repro.workloads", "repro.cli",
    "repro.serve", "repro.obs", "repro.config", "repro.deprecation",
]


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_imports_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("module_name", [
        m for m in SUBPACKAGES if m != "repro.cli"])
    def test_all_exports_exist(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), "%s.%s" % (module_name, name)

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_has_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 40, module_name


class TestConfigKnobs:
    def test_every_knob_has_env_doc_and_default(self):
        for knob in repro.config.KNOBS.values():
            assert knob.env.startswith("REPRO_")
            assert knob.doc
            # The default must pass the knob's own validator.
            assert knob.coerce(knob.default, "default") == knob.default

    def test_precedence_explicit_beats_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLICE_SHARDS", "3")
        assert repro.config.slice_shards() == 3
        assert repro.config.slice_shards(cli=5) == 5
        assert repro.config.slice_shards(explicit=7, cli=5) == 7

    def test_invalid_env_raises_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLICE_INDEX", "quantum")
        with pytest.raises(ValueError):
            repro.config.slice_index()

    def test_precedence_table_mentions_every_env(self):
        table = repro.config.precedence_table()
        for knob in repro.config.KNOBS.values():
            assert knob.env in table


class TestReportSchema:
    """The unified analysis-report surface (repro.analysis.report)."""

    def _racy(self):
        from repro.detect import detect_races
        from repro.lang import compile_source
        from repro.pinplay import RegionSpec, record_region
        from repro.vm import RandomScheduler
        source = """
        int x;
        int bump(int u) { x = x + 1; return 0; }
        int main() {
            int a; int b;
            a = spawn(bump, 0); b = spawn(bump, 0);
            join(a); join(b);
            print(x);
            return 0;
        }
        """
        program = compile_source(source, name="schema_demo")
        pinball = record_region(
            program, RandomScheduler(seed=1, switch_prob=0.3), RegionSpec())
        return program, pinball, detect_races(pinball, program)

    def test_races_payload_validates_and_keeps_legacy_fields(self):
        from repro.analysis.report import (SCHEMA, SCHEMA_VERSION,
                                           races_report_payload,
                                           validate_report)
        program, _pinball, races = self._racy()
        payload = races_report_payload(races, program)
        validate_report(payload)
        assert payload["schema"] == SCHEMA
        assert payload["schema_version"] == SCHEMA_VERSION
        # Legacy spellings ride along for one deprecation cycle and
        # mirror the canonical fields exactly.
        assert payload["race_count"] == payload["finding_count"]
        assert payload["races"] == payload["findings"]

    def test_race_payload_wrapper_is_schema_shaped(self):
        from repro.analysis.report import races_report_payload
        from repro.serve.sessions import race_payload
        program, _pinball, races = self._racy()
        assert race_payload(races, program) == races_report_payload(
            races, program)

    def test_maple_result_payload_validates(self):
        from repro.analysis.report import validate_report
        from repro.maple import expose_and_record
        from repro.lang import compile_source
        source = """
        int x;
        int bump(int u) { x = x + 1; return 0; }
        int main() {
            int a; int b;
            a = spawn(bump, 0); b = spawn(bump, 0);
            join(a); join(b);
            assert(x == 2, 11);
            return 0;
        }
        """
        program = compile_source(source, name="maple_demo")
        result = expose_and_record(program, profile_seeds=range(4))
        payload = result.payload()
        validate_report(payload)
        assert payload["kind"] == "maple"
        # Legacy integer spelling of the candidate count rides along.
        assert payload["candidates"] == payload["candidate_count"]

    def test_hunt_payload_validates(self):
        from repro.analysis.hunt import hunt
        from repro.analysis.report import HuntFinding, validate_report
        program, pinball, _races = self._racy()
        result = hunt(pinball, program, budget=4, profile_seeds=2,
                      minimize_budget=4, slice_reports=False)
        payload = result.payload()
        validate_report(payload)
        assert payload["kind"] == "hunt"
        for row in payload["findings"]:
            finding = HuntFinding.from_payload(row)
            assert finding.to_payload() == row

    def test_deprecated_field_reads_old_spelling_with_warning(self):
        from repro.deprecation import deprecated_field
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert deprecated_field({"race_count": 3}, "race_count",
                                    "finding_count") == 3
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert deprecated_field({"finding_count": 4}, "race_count",
                                    "finding_count") == 4
        assert not caught

    def test_validate_report_rejects_malformed(self):
        from repro.analysis.report import validate_report
        with pytest.raises(ValueError):
            validate_report({"schema": "something.else",
                             "schema_version": 1, "kind": "races",
                             "finding_count": 0, "findings": []})
        with pytest.raises(ValueError):
            validate_report({"schema": "repro.report", "schema_version": 1,
                             "kind": "nope", "finding_count": 0,
                             "findings": []})
