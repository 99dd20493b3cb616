"""The v1 request schema: validation, defaults, and the canonical codec."""

import json

import pytest

from repro.api import handle_request
from repro.api.core import request_cache_key
from repro.api.schema import (
    SCHEMA_VERSION,
    SchemaError,
    decode,
    encode,
    error_response,
    http_status,
    ok_response,
    request_key_material,
    validate_request,
)
from repro.perf.cache import ResultCache


def _check_request(**extra):
    request = {
        "schema_version": 1,
        "kind": "check",
        "program": {"name": "mp_paired"},
    }
    request.update(extra)
    return request


class TestValidation:
    def test_minimal_check_fills_defaults(self):
        normalized = validate_request(_check_request())
        assert normalized["schema_version"] == SCHEMA_VERSION
        assert normalized["kind"] == "check"
        assert normalized["models"] == ["drf0", "drf1", "drfrlx"]
        assert normalized["options"] == {
            "backend": "auto",
            "dedup": True,
            "exhaustive": True,
            "max_executions": None,
            "trace": False,
            "engine": "enum",
        }
        assert normalized["id"] is None

    def test_check_engine_option_accepted(self):
        for engine in ("enum", "sat", "auto"):
            normalized = validate_request(
                _check_request(options={"engine": engine})
            )
            assert normalized["options"]["engine"] == engine

    def test_check_engine_option_validated(self):
        with pytest.raises(SchemaError) as err:
            validate_request(_check_request(options={"engine": "z3"}))
        assert err.value.code == "bad_field"

    def test_id_is_echoed(self):
        assert validate_request(_check_request(id="req-1"))["id"] == "req-1"

    def test_sweep_defaults(self):
        normalized = validate_request(
            {"schema_version": 1, "kind": "sweep", "workloads": ["SC"]}
        )
        assert normalized["scale"] == 1.0
        assert normalized["engine"] == "auto"

    def test_audit_defaults(self):
        normalized = validate_request({"schema_version": 1, "kind": "audit"})
        assert normalized["options"] == {
            "backend": "auto", "dedup": True, "engine": "enum",
        }

    @pytest.mark.parametrize(
        "raw, code",
        [
            ("{not json", "malformed"),
            ('"a string"', "malformed"),
            ("[1, 2]", "malformed"),
            (json.dumps({"kind": "check"}), "unsupported_version"),  # missing version
        ],
    )
    def test_malformed(self, raw, code):
        with pytest.raises(SchemaError) as excinfo:
            validate_request(decode(raw) if raw.startswith(("{", "[")) else raw)
        assert excinfo.value.code == code

    def test_decode_rejects_non_object(self):
        with pytest.raises(SchemaError) as excinfo:
            validate_request(decode("[1]"))
        assert excinfo.value.code == "malformed"

    def test_unknown_schema_version(self):
        with pytest.raises(SchemaError) as excinfo:
            validate_request(_check_request(schema_version=99))
        assert excinfo.value.code == "unsupported_version"

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as excinfo:
            validate_request({"schema_version": 1, "kind": "frobnicate"})
        assert excinfo.value.code == "unknown_kind"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.update(program={}),  # neither name nor source
            lambda r: r.update(program={"name": "x", "source": "y"}),  # both
            lambda r: r.update(models=["drf0", "drf9"]),
            lambda r: r.update(models=[]),
            lambda r: r.update(models=["drf0", "drf0"]),
            lambda r: r.update(options={"backend": "quantum"}),
            lambda r: r.update(options={"trace": "yes"}),
            lambda r: r.update(surprise=1),  # unknown top-level field
        ],
    )
    def test_bad_fields(self, mutate):
        request = _check_request()
        mutate(request)
        with pytest.raises(SchemaError) as excinfo:
            validate_request(request)
        assert excinfo.value.code == "bad_field"

    def test_sweep_requires_workloads(self):
        with pytest.raises(SchemaError) as excinfo:
            validate_request({"schema_version": 1, "kind": "sweep"})
        assert excinfo.value.code == "bad_field"


class TestRetiredSpellings:
    """Retired v1 option values are accepted and normalised at the
    schema boundary, so they answer with the canonical spelling's bytes
    and share its response-cache entry."""

    @pytest.mark.parametrize(
        "field, old, canonical",
        [
            ("backend", "numpy", "auto"),
            ("backend", "dense", "auto"),
            ("backend", "pairs", "auto"),
            ("engine", "portfolio", "auto"),
        ],
    )
    @pytest.mark.parametrize(
        "request_",
        [
            _check_request(id="r"),
            {"schema_version": 1, "kind": "audit", "id": "r"},
            {
                "schema_version": 1, "kind": "batch", "id": "r",
                "programs": [{"name": "mp_paired"}, {"name": "sb_data"}],
            },
        ],
        ids=["check", "audit", "batch"],
    )
    def test_old_spelling_answers_like_canonical(
        self, request_, field, old, canonical, tmp_path
    ):
        store = ResultCache(str(tmp_path))

        def request(value):
            return dict(request_, options={field: value})

        def answer(value):
            return encode(handle_request(request(value), cache=False))

        def cache_key(value):
            return request_cache_key(store, validate_request(request(value)))

        assert validate_request(request(old))["options"][field] == canonical
        assert answer(old) == answer(canonical)
        assert cache_key(old) == cache_key(canonical)
        if field == "backend":
            # The one backend value is the default: every spelling,
            # null included, means a request without the field.
            default = encode(handle_request(request_, cache=False))
            assert answer(old) == default
            assert answer(None) == default
            assert cache_key(old) == request_cache_key(
                store, validate_request(request_)
            )

    @pytest.mark.parametrize("old", ["compiled", "vectorized"])
    def test_old_sweep_engine_answers_like_auto(self, old):
        """The two retired fast-path names of a sweep's ``engine``."""
        def answer(value):
            request = {
                "schema_version": 1, "kind": "sweep", "id": "r",
                "workloads": ["SC"], "scale": 0.05, "engine": value,
            }
            return encode(handle_request(request, cache=False))

        request = {"schema_version": 1, "kind": "sweep", "workloads": ["SC"]}
        assert validate_request(dict(request, engine=old))["engine"] == "auto"
        assert answer(old) == answer("auto")

    def test_error_lists_only_canonical_values(self):
        with pytest.raises(SchemaError) as excinfo:
            validate_request(_check_request(options={"backend": "tiles"}))
        assert "numpy" not in excinfo.value.message


class TestCodec:
    def test_encode_is_canonical(self):
        a = encode({"b": 1, "a": {"d": 2, "c": 3}})
        b = encode({"a": {"c": 3, "d": 2}, "b": 1})
        assert a == b
        assert " " not in a

    def test_encode_rejects_nan(self):
        with pytest.raises(ValueError):
            encode({"x": float("nan")})

    def test_roundtrip(self):
        payload = {"kind": "check", "n": 3, "ok": True}
        assert decode(encode(payload)) == payload


class TestEnvelopes:
    def test_ok_response_shape(self):
        normalized = validate_request(_check_request(id="a"))
        response = ok_response(normalized, {"answer": 42})
        assert response == {
            "schema_version": SCHEMA_VERSION,
            "id": "a",
            "kind": "check",
            "ok": True,
            "result": {"answer": 42},
        }
        assert http_status(response) == 200

    @pytest.mark.parametrize(
        "code, status",
        [
            ("malformed", 400),
            ("unsupported_version", 400),
            ("unknown_kind", 400),
            ("bad_field", 400),
            ("not_found", 404),
            ("busy", 429),
            ("internal", 500),
        ],
    )
    def test_error_status_map(self, code, status):
        response = error_response(code, "boom")
        assert response["ok"] is False
        assert response["error"]["code"] == code
        assert http_status(response) == status


class TestKeyMaterial:
    def test_id_does_not_shape_the_key(self):
        a = request_key_material(validate_request(_check_request(id="one")))
        b = request_key_material(validate_request(_check_request(id="two")))
        assert a == b

    def test_engine_does_not_shape_sweep_keys(self):
        base = {"schema_version": 1, "kind": "sweep", "workloads": ["SC"]}
        a = request_key_material(validate_request({**base, "engine": "reference"}))
        b = request_key_material(validate_request({**base, "engine": "compiled"}))
        assert a == b

    def test_options_do_shape_check_keys(self):
        a = request_key_material(validate_request(_check_request()))
        b = request_key_material(
            validate_request(_check_request(options={"dedup": False}))
        )
        assert a != b
