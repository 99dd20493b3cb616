"""The ``repro.api`` façade: equivalence with the underlying layers,
response envelopes, and request-level cache replay."""

import pytest

from repro.api import (
    audit_request,
    check_program,
    encode,
    handle_request,
    run_sweep_request,
)
from repro.core.model import MODELS, check
from repro.litmus.library import get as get_litmus
from repro.perf.cache import ResultCache


class TestCheckProgram:
    def test_matches_direct_core_check(self):
        test = get_litmus("lb_non_ordering")
        response = check_program(name="lb_non_ordering")
        assert response["ok"]
        models = response["result"]["models"]
        for model in MODELS:
            direct = check(test.program, model)
            assert models[model]["legal"] == direct.legal
            assert models[model]["executions"] == direct.executions_explored
            assert models[model]["race_kinds"] == list(direct.race_kinds)

    def test_expected_and_mismatches(self):
        response = check_program(name="mp_paired")
        result = response["result"]
        assert result["expected"] == {m: True for m in MODELS}
        assert result["mismatches"] == []

    def test_source_program(self):
        source = (
            "name: api_source_race\n"
            "thread:\n"
            "  st x 1\n"
            "thread:\n"
            "  r0 = ld x\n"
        )
        response = check_program(source=source, models=["drf0"])
        assert response["ok"]
        assert response["result"]["models"]["drf0"]["legal"] is False

    def test_name_and_source_is_a_type_error(self):
        with pytest.raises(TypeError):
            check_program(name="mp_paired", source="thread 0 { }")

    def test_unknown_name_is_not_found(self):
        response = check_program(name="does_not_exist")
        assert not response["ok"]
        assert response["error"]["code"] == "not_found"

    def test_trace_flag_embeds_events(self):
        response = check_program(name="mp_paired", models=["drf0"], trace=True)
        assert response["ok"]
        trace = response["result"]["trace"]["drf0"]
        assert isinstance(trace, list) and trace
        assert all("event" in event and "component" in event for event in trace)


class TestSweepRequest:
    def test_matches_direct_harness_sweep(self):
        from repro.eval.harness import CONFIG_ORDER, run_sweep

        response = run_sweep_request(["SC"], scale=0.05)
        assert response["ok"]
        result = response["result"]
        direct = run_sweep(["SC"], scale=0.05)
        assert result["configs"] == list(CONFIG_ORDER)
        assert len(result["observations"]) == len(CONFIG_ORDER)
        for encoded in result["observations"]:
            obs = direct.get(encoded["workload"], encoded["config"])
            assert encoded["cycles"] == obs.cycles
        for cfg in CONFIG_ORDER[1:]:
            assert result["average_time_reduction"][cfg] == pytest.approx(
                direct.average_reduction(cfg)
            )

    def test_engines_share_results(self):
        a = run_sweep_request(["SC"], scale=0.05, engine="reference")
        b = run_sweep_request(["SC"], scale=0.05, engine="compiled")
        assert encode(a) == encode(b)


class TestAuditRequest:
    def test_audit_matches_corpus(self, tmp_path):
        from repro.litmus.corpus import load_corpus

        response = audit_request(cache=str(tmp_path), jobs=1)
        assert response["ok"]
        result = response["result"]
        assert result["total"] == len(load_corpus())
        assert result["failures"] == 0
        assert all(entry["ok"] for entry in result["files"])


class TestHandleRequest:
    def test_accepts_text_and_dicts(self):
        request = {
            "schema_version": 1,
            "kind": "check",
            "id": "x",
            "program": {"name": "mp_paired"},
            "models": ["drf0"],
        }
        assert encode(handle_request(request)) == encode(
            handle_request(encode(request))
        )

    def test_malformed_never_raises(self):
        response = handle_request("{nope")
        assert response["ok"] is False
        assert response["error"]["code"] == "malformed"

    def test_error_envelope_salvages_id(self):
        response = handle_request(
            {"schema_version": 99, "kind": "check", "id": "keep-me"}
        )
        assert response["id"] == "keep-me"
        assert response["error"]["code"] == "unsupported_version"


class TestRequestCache:
    def test_replay_is_byte_identical_and_hits(self, tmp_path):
        request = {
            "schema_version": 1,
            "kind": "check",
            "program": {"name": "lb_paired"},
        }
        cold = handle_request(dict(request), cache=str(tmp_path))
        store = ResultCache(str(tmp_path))
        warm = handle_request(dict(request), cache=store)
        assert encode(cold) == encode(warm)
        assert store.hits == 1
        assert store.misses == 0

    def test_different_ids_share_the_cached_result(self, tmp_path):
        base = {
            "schema_version": 1,
            "kind": "check",
            "program": {"name": "mp_paired"},
            "models": ["drf1"],
        }
        handle_request({**base, "id": "first"}, cache=str(tmp_path))
        store = ResultCache(str(tmp_path))
        second = handle_request({**base, "id": "second"}, cache=store)
        assert store.hits == 1
        assert second["id"] == "second"

    def test_trace_requests_bypass_the_cache(self, tmp_path):
        request = {
            "schema_version": 1,
            "kind": "check",
            "program": {"name": "mp_paired"},
            "models": ["drf0"],
            "options": {"trace": True},
        }
        handle_request(dict(request), cache=str(tmp_path))
        store = ResultCache(str(tmp_path))
        handle_request(dict(request), cache=store)
        assert store.hits == 0
