"""The public API surface: everything advertised exists and imports.

Extended for the unified-surface redesign: the blessed top-level
``__all__`` (including the serve client and the config resolver), the
removal of the expired pre-1.0 aliases, slice keywords and report-field
spellings, the ``repro.config`` precedence knobs, and the ``shards``
spellings that accept only 1.
"""

import importlib

import pytest

import repro
from repro.cli import main
from repro.serve import DebugClient, rpc

from tests.serve.conftest import RACY_SOURCE, record_racy_pinball, \
    running_server


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
        assert repro.config.slice_shards() == 1
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
    "repro.serve", "repro.obs", "repro.config",
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
        monkeypatch.setenv("REPRO_HUNT_BUDGET", "3")
        assert repro.config.hunt_budget() == 3
        assert repro.config.hunt_budget(cli=5) == 5
        assert repro.config.hunt_budget(explicit=7, cli=5) == 7

    def test_invalid_env_raises_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLICE_INDEX", "quantum")
        with pytest.raises(ValueError):
            repro.config.slice_index()

    def test_precedence_table_mentions_every_env(self):
        table = repro.config.precedence_table()
        for knob in repro.config.KNOBS.values():
            assert knob.env in table


class TestShardsAcceptOnlyOne:
    """Slicing traces with one serial replay: every ``shards`` spelling
    that remains accepts 1 and rejects anything else, naming the value."""

    def test_slice_shards_is_not_a_knob(self, monkeypatch):
        assert "slice_shards" not in repro.config.KNOBS
        assert "REPRO_SLICE_SHARDS" not in repro.config.precedence_table()
        monkeypatch.setenv("REPRO_SLICE_SHARDS", "4")
        assert repro.config.slice_shards() == 1
        assert repro.SliceOptions().shards == 1

    @pytest.mark.parametrize("kwargs,shown", [
        ({"explicit": 2}, "got 2"),
        ({"cli": 0}, "got 0"),
        ({"explicit": -1}, "got -1"),
        ({"explicit": True}, "got True"),
        ({"explicit": "1"}, "got '1'"),
        ({"explicit": 1, "cli": 3}, "got 3"),
    ])
    def test_resolver_rejects_other_values(self, kwargs, shown):
        with pytest.raises(ValueError, match="slice_shards") as caught:
            repro.config.slice_shards(**kwargs)
        assert shown in str(caught.value)

    @pytest.mark.parametrize("shards", [0, 2, 4])
    def test_slice_options_rejects_other_values(self, shards):
        with pytest.raises(ValueError, match="got %d" % shards):
            repro.SliceOptions(shards=shards)

    def test_perfbench_spellings_of_one_still_work(self, monkeypatch,
                                                   tmp_path):
        assert repro.config.slice_shards(explicit=1) == 1
        assert repro.SliceOptions(index="ddg", shards=1) == \
            repro.SliceOptions(index="ddg")
        served = []
        monkeypatch.setattr("repro.cli.run_server",
                            lambda server, **kw: served.append(server))
        assert main(["serve", "--store", str(tmp_path / "s"), "--port",
                     "0", "--workers", "1", "--shards", "1"]) == 0
        assert len(served) == 1 and not served[0].pool.started

    def test_serve_rejects_before_starting_anything(self, monkeypatch,
                                                    tmp_path, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("server constructed for --shards 2")
        monkeypatch.setattr("repro.cli.DebugServer", forbidden)
        monkeypatch.setattr("repro.cli.run_server", forbidden)
        code = main(["serve", "--store", str(tmp_path / "s"),
                     "--shards", "2"])
        err = capsys.readouterr().err
        assert code == 65
        assert "slice_shards" in err and "got 2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("argv", [
        ["slice", "p.mc", "p.pinball", "--shards", "2"],
        ["debug", "p.mc", "p.pinball", "--shards", "2"],
        ["client", "slice", "somekey", "--shards", "2"],
    ])
    def test_other_shards_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err

    def test_served_slice_rejects_other_values(self, tmp_path):
        _program, pinball = record_racy_pinball()
        with running_server(tmp_path / "store", workers=1) as live:
            with DebugClient(port=live.port, timeout=60) as client:
                key = client.put_recording(
                    RACY_SOURCE, pinball.to_bytes(compress=False),
                    program_name="racy")["key"]
                for verb in ("slice", "build", "last_reads"):
                    with pytest.raises(rpc.RpcRemoteError) as caught:
                        client.call(verb, {"key": key, "shards": 2})
                    assert caught.value.code == rpc.INVALID_PARAMS
                    assert "got 2" in caught.value.remote_message
                assert client.slice(key, shards=1)["node_count"] > 0


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

    def test_races_payload_validates_without_legacy_fields(self):
        from repro.analysis.report import (SCHEMA, SCHEMA_VERSION,
                                           races_report_payload,
                                           validate_report)
        program, _pinball, races = self._racy()
        payload = races_report_payload(races, program)
        validate_report(payload)
        assert payload["schema"] == SCHEMA
        assert payload["schema_version"] == SCHEMA_VERSION
        # The pre-schema spellings are gone from the envelope.
        assert "race_count" not in payload
        assert "races" not in payload

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
        # Only the schema spelling of the candidate count is emitted.
        assert "candidates" not in payload
        assert payload["candidate_count"] >= 0

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

    def test_deprecation_shims_are_gone(self):
        from repro.analysis.report import validate_report
        with pytest.raises(ImportError):
            importlib.import_module("repro.deprecation")
        # validate_report reads only the schema spellings.
        with pytest.raises(ValueError, match="findings"):
            validate_report({"schema": "repro.report", "schema_version": 1,
                             "kind": "races", "race_count": 0,
                             "races": []})

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
