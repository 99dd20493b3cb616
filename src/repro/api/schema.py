"""Versioned request/result schema for the ``repro.api`` façade (v1).

Every programmatic entry point — the ``python -m repro serve`` service,
the ``litmus``/``audit`` CLI subcommands under ``--json``, and direct
:mod:`repro.api` callers — speaks the same protocol:

- a **request** is a JSON object with a required integer
  ``schema_version`` (currently :data:`SCHEMA_VERSION`), a required
  ``kind`` (one of :data:`KINDS`), an optional client-chosen ``id``
  echoed back verbatim, and kind-specific fields;
- a **response** is a JSON object with ``schema_version``, the echoed
  ``id``, the request ``kind``, an ``ok`` flag, and either a ``result``
  payload or an ``error`` object (``{"code", "message"}``).

Responses are **deterministic**: they carry no timestamps, hostnames,
or wall-clock measurements, so the same request against the same source
tree encodes to the same bytes — which is what makes whole responses
content-addressable in :mod:`repro.perf.cache` and lets the golden
fixtures under ``tests/serve/golden`` assert byte-identity.

:func:`encode` is the stable result codec: canonical JSON with sorted
keys, compact separators, and ASCII escapes.  Transports frame one
encoded object per line (JSONL) or per HTTP response body.

Request shapes (v1)
-------------------

``check`` — classify one litmus program under one or more models::

    {"schema_version": 1, "kind": "check", "id": "r1",
     "program": {"name": "mp_paired"},          # or {"source": "<DSL text>"}
     "models": ["drf0", "drf1", "drfrlx"],       # optional, default all
     "options": {"backend": "auto", "dedup": true, "exhaustive": true,
                 "max_executions": null, "trace": false,
                 "engine": "enum"}}              # all optional

``batch`` — check many litmus programs in one request, through the
amortizing :func:`repro.batch.check_many` pipeline (shared enumerations,
shared race classification, one warm worker pool)::

    {"schema_version": 1, "kind": "batch", "id": "fuzz-0",
     "programs": [{"name": "mp_paired"}, {"source": "<DSL text>"}],
     "models": ["drf0", "drf1", "drfrlx"],       # optional, default all
     "options": {"backend": "auto", "dedup": true, "exhaustive": true,
                 "max_executions": null, "engine": "enum"}}  # all optional

Each program's per-model payload is byte-identical to what a ``check``
request for that program alone would return (``trace`` is the one
check-only option; a batch never captures traces).

``sweep`` — run workloads over the six simulated configurations::

    {"schema_version": 1, "kind": "sweep",
     "workloads": ["SC", "RC"], "scale": 0.25, "engine": "auto"}

``audit`` — re-check the litmus corpus against its declared verdicts::

    {"schema_version": 1, "kind": "audit",
     "options": {"backend": "auto", "dedup": true, "engine": "enum"}}

Validation is strict: unknown top-level fields, unknown option names,
and out-of-range values all fail with ``bad_field`` rather than being
silently ignored, so a typo cannot change what a request means.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

# The two facades define their engine tuples without loading the
# checker or the simulator, so validating a request loads neither.
from repro.core import ENGINES as CHECK_ENGINES
from repro.sim import ENGINES

#: Protocol version.  Part of every request and response; requests
#: carrying any other value are rejected with ``unsupported_version``.
SCHEMA_VERSION = 1

#: The request kinds v1 defines.  ``batch`` was added post-v1: old
#: requests are untouched and old servers answer it with
#: ``unknown_kind``, so no version bump.
KINDS = ("check", "sweep", "audit", "batch")

#: Upper bound on ``programs`` in one batch request — a service-side
#: memory guard (the response carries one payload per program-model
#: cell); split larger corpora across requests.
MAX_BATCH_PROGRAMS = 10000

#: The one ``options.backend`` value of check, batch and audit requests.
#: The checker has one relation representation, so the field selects
#: nothing; it stays in the normalized options, where old clients and
#: the benchmark replay read it.
BACKENDS = ("auto",)

#: Retired ``options.backend`` spellings, normalised during validation so
#: no code past :func:`validate_request` knows them.  Each named a
#: relation representation (the tiled numpy bitsets, the dense bitsets,
#: the pair-set oracle); every one computed the same verdicts.
BACKEND_ALIASES = {"dense": "auto", "pairs": "auto", "numpy": "auto"}

#: Retired sweep ``engine`` spellings (the valid ones are
#: :data:`repro.sim.ENGINES`), normalised during validation: both named
#: a fast path, and ``auto`` takes the one that is left.
ENGINE_ALIASES = {"compiled": "auto", "vectorized": "auto"}

#: Retired ``options.engine`` spellings, normalised during validation.
#: The valid ones are :data:`repro.core.ENGINES` (``CHECK_ENGINES``
#: here), added post-v1 as an optional field whose default, "enum", is
#: the pre-existing behavior, so every old request stays valid and means
#: what it always did; no version bump.  The portfolio engine raced enum
#: against sat and fell back to ``auto`` routing wherever racing was
#: unavailable.
CHECK_ENGINE_ALIASES = {"portfolio": "auto"}

#: Error codes an ``ok: false`` response may carry.
ERROR_CODES = (
    "malformed",            # the request was not a JSON object
    "unsupported_version",  # schema_version != SCHEMA_VERSION
    "unknown_kind",         # kind not in KINDS
    "bad_field",            # a field failed validation
    "not_found",            # a named program/workload does not exist
    "busy",                 # service backpressure: bounded queue full
    "internal",             # unexpected failure while executing
)


class ApiError(Exception):
    """An error with a v1 protocol ``code``; maps onto an error response."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message

    def __reduce__(self):
        # Two-arg __init__: spell out the reconstruction so the error
        # survives a trip back from a process-pool worker.
        return (type(self), (self.code, self.message))


class SchemaError(ApiError):
    """A request failed validation (the ``malformed`` ..``bad_field``
    family of codes)."""


# -- codec ---------------------------------------------------------------------

def encode(payload: Any) -> str:
    """The stable v1 codec: canonical JSON, byte-stable for equal values.

    Keys are sorted, separators compact, non-ASCII escaped, and NaN /
    Infinity rejected (they are not JSON and would break replay
    identity).  Two payloads encode to the same bytes iff they are
    value-equal, so cached responses replay byte-identically.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"),
        ensure_ascii=True, allow_nan=False,
    )


def decode(text: str) -> Dict[str, Any]:
    """Parse one request object; anything but a JSON object is ``malformed``."""
    try:
        obj = json.loads(text)
    except (ValueError, TypeError) as err:
        raise SchemaError("malformed", f"request is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise SchemaError(
            "malformed",
            f"request must be a JSON object, got {type(obj).__name__}",
        )
    return obj


# -- validation helpers --------------------------------------------------------

def _bad(field: str, message: str) -> SchemaError:
    return SchemaError("bad_field", f"{field}: {message}")


def _require_keys(obj: Dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise _bad(where, f"unknown field(s) {unknown}; allowed: {sorted(allowed)}")


def _bool(obj: Dict, field: str, default: bool, where: str) -> bool:
    value = obj.get(field, default)
    if not isinstance(value, bool):
        raise _bad(f"{where}.{field}", f"expected a boolean, got {value!r}")
    return value


def _choice(
    obj: Dict, field: str, choices: Sequence[str], default: str, where: str,
    aliases: Optional[Dict[str, str]] = None,
) -> str:
    value = obj.get(field, default)
    if value is None:
        value = default
    if aliases and isinstance(value, str):
        value = aliases.get(value, value)
    if value not in choices:
        raise _bad(f"{where}.{field}", f"expected one of {list(choices)}, got {value!r}")
    return value


# -- request validation --------------------------------------------------------

def _validate_program(spec: Any) -> Dict[str, str]:
    if not isinstance(spec, dict):
        raise _bad("program", f"expected an object, got {type(spec).__name__}")
    _require_keys(spec, ("name", "source"), "program")
    has_name = "name" in spec
    has_source = "source" in spec
    if has_name == has_source:
        raise _bad("program", "exactly one of 'name' or 'source' is required")
    key = "name" if has_name else "source"
    value = spec[key]
    if not isinstance(value, str) or not value.strip():
        raise _bad(f"program.{key}", "expected a non-empty string")
    return {key: value}


def _validate_models(models: Any) -> List[str]:
    from repro.core.model import MODELS

    if models is None:
        return list(MODELS)
    if not isinstance(models, list) or not models:
        raise _bad("models", "expected a non-empty list of model names")
    seen = []
    for model in models:
        if model not in MODELS:
            raise _bad("models", f"unknown model {model!r}; expected {list(MODELS)}")
        if model in seen:
            raise _bad("models", f"duplicate model {model!r}")
        seen.append(model)
    return seen


def _validate_check_options(options: Any) -> Dict[str, Any]:
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise _bad("options", f"expected an object, got {type(options).__name__}")
    _require_keys(
        options,
        ("backend", "dedup", "exhaustive", "max_executions", "trace", "engine"),
        "options",
    )
    max_executions = options.get("max_executions")
    if max_executions is not None and (
        isinstance(max_executions, bool)
        or not isinstance(max_executions, int)
        or max_executions < 1
    ):
        raise _bad("options.max_executions", "expected a positive integer or null")
    return {
        "backend": _choice(options, "backend", BACKENDS, "auto", "options",
                           BACKEND_ALIASES),
        "dedup": _bool(options, "dedup", True, "options"),
        "exhaustive": _bool(options, "exhaustive", True, "options"),
        "max_executions": max_executions,
        "trace": _bool(options, "trace", False, "options"),
        "engine": _choice(options, "engine", CHECK_ENGINES, "enum", "options",
                          CHECK_ENGINE_ALIASES),
    }


def _validate_batch_options(options: Any) -> Dict[str, Any]:
    """Check options minus ``trace`` — a batch never captures traces
    (the payloads must stay small and cacheable), so the field is
    rejected rather than silently dropped."""
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise _bad("options", f"expected an object, got {type(options).__name__}")
    _require_keys(
        options,
        ("backend", "dedup", "exhaustive", "max_executions", "engine"),
        "options",
    )
    max_executions = options.get("max_executions")
    if max_executions is not None and (
        isinstance(max_executions, bool)
        or not isinstance(max_executions, int)
        or max_executions < 1
    ):
        raise _bad("options.max_executions", "expected a positive integer or null")
    return {
        "backend": _choice(options, "backend", BACKENDS, "auto", "options",
                           BACKEND_ALIASES),
        "dedup": _bool(options, "dedup", True, "options"),
        "exhaustive": _bool(options, "exhaustive", True, "options"),
        "max_executions": max_executions,
        "engine": _choice(options, "engine", CHECK_ENGINES, "enum", "options",
                          CHECK_ENGINE_ALIASES),
    }


def _validate_audit_options(options: Any) -> Dict[str, Any]:
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise _bad("options", f"expected an object, got {type(options).__name__}")
    _require_keys(options, ("backend", "dedup", "engine"), "options")
    return {
        "backend": _choice(options, "backend", BACKENDS, "auto", "options",
                           BACKEND_ALIASES),
        "dedup": _bool(options, "dedup", True, "options"),
        "engine": _choice(options, "engine", CHECK_ENGINES, "enum", "options",
                          CHECK_ENGINE_ALIASES),
    }


def validate_request(obj: Any) -> Dict[str, Any]:
    """Validate one raw request object into its normalized v1 form.

    Normalization fills every optional field with its default, so two
    requests meaning the same thing normalize to the same value — the
    property :func:`request_key_material` needs for content-addressed
    response caching.  Raises :class:`SchemaError` on any violation.
    """
    if not isinstance(obj, dict):
        raise SchemaError(
            "malformed",
            f"request must be a JSON object, got {type(obj).__name__}",
        )
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            "unsupported_version",
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}",
        )
    kind = obj.get("kind")
    if kind not in KINDS:
        raise SchemaError(
            "unknown_kind", f"kind must be one of {list(KINDS)}, got {kind!r}"
        )
    request_id = obj.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise _bad("id", "expected a string or integer")

    common = ("schema_version", "kind", "id")
    if kind == "check":
        _require_keys(obj, common + ("program", "models", "options"), "request")
        if "program" not in obj:
            raise _bad("program", "required for kind 'check'")
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "check",
            "id": request_id,
            "program": _validate_program(obj["program"]),
            "models": _validate_models(obj.get("models")),
            "options": _validate_check_options(obj.get("options")),
        }
    if kind == "batch":
        _require_keys(obj, common + ("programs", "models", "options"), "request")
        programs = obj.get("programs")
        if not isinstance(programs, list) or not programs:
            raise _bad("programs", "expected a non-empty list of program specs")
        if len(programs) > MAX_BATCH_PROGRAMS:
            raise _bad(
                "programs",
                f"at most {MAX_BATCH_PROGRAMS} programs per batch request, "
                f"got {len(programs)}",
            )
        normalized_programs = []
        for index, spec in enumerate(programs):
            try:
                normalized_programs.append(_validate_program(spec))
            except SchemaError as err:
                raise SchemaError(
                    err.code, f"programs[{index}].{err.message}"
                ) from None
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "batch",
            "id": request_id,
            "programs": normalized_programs,
            "models": _validate_models(obj.get("models")),
            "options": _validate_batch_options(obj.get("options")),
        }
    if kind == "sweep":
        _require_keys(obj, common + ("workloads", "scale", "engine"), "request")
        workloads = obj.get("workloads")
        if (
            not isinstance(workloads, list)
            or not workloads
            or not all(isinstance(w, str) and w for w in workloads)
        ):
            raise _bad("workloads", "expected a non-empty list of workload names")
        if len(set(workloads)) != len(workloads):
            raise _bad("workloads", "duplicate workload names")
        scale = obj.get("scale", 1.0)
        if isinstance(scale, bool) or not isinstance(scale, (int, float)) or not scale > 0:
            raise _bad("scale", f"expected a positive number, got {scale!r}")
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep",
            "id": request_id,
            "workloads": list(workloads),
            "scale": float(scale),
            "engine": _choice(obj, "engine", ENGINES, "auto", "request",
                              ENGINE_ALIASES),
        }
    # kind == "audit"
    _require_keys(obj, common + ("options",), "request")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "audit",
        "id": request_id,
        "options": _validate_audit_options(obj.get("options")),
    }


# -- cache-key material --------------------------------------------------------

def request_key_material(normalized: Dict[str, Any]) -> Dict[str, Any]:
    """The part of a normalized request that determines its result.

    Drops ``id`` (a client label) and, for sweeps, ``engine`` — every
    simulator engine is required (and tested) to produce identical
    observations, so responses are shared across them, exactly like the
    per-cell sweep cache in :mod:`repro.eval.harness`.
    """
    material = {k: v for k, v in normalized.items() if k != "id"}
    if normalized["kind"] == "sweep":
        material.pop("engine", None)
    return material


# -- response envelopes --------------------------------------------------------

def salvage_identity(request: Any) -> Tuple[Optional[Any], Optional[str]]:
    """Best-effort ``(id, kind)`` from a raw (possibly invalid) request.

    Error envelopes echo whatever identity the request managed to carry,
    so JSONL clients can correlate them even when validation fails.  The
    kind is kept only when it is a string; the id is echoed verbatim.
    """
    if not isinstance(request, dict):
        return None, None
    kind = request.get("kind")
    if not isinstance(kind, str):
        kind = None
    return request.get("id"), kind


def ok_response(normalized: Dict[str, Any], result: Dict[str, Any]) -> Dict[str, Any]:
    """A successful v1 response for *normalized*, wrapping *result*."""
    return {
        "schema_version": SCHEMA_VERSION,
        "id": normalized.get("id"),
        "kind": normalized["kind"],
        "ok": True,
        "result": result,
    }


def error_response(
    code: str,
    message: str,
    request_id: Optional[Any] = None,
    kind: Optional[str] = None,
) -> Dict[str, Any]:
    """An ``ok: false`` v1 response carrying one of :data:`ERROR_CODES`."""
    assert code in ERROR_CODES, code
    return {
        "schema_version": SCHEMA_VERSION,
        "id": request_id,
        "kind": kind,
        "ok": False,
        "error": {"code": code, "message": message},
    }


#: HTTP status for each error code (the serve HTTP transport's mapping).
HTTP_STATUS = {
    "malformed": 400,
    "unsupported_version": 400,
    "unknown_kind": 400,
    "bad_field": 400,
    "not_found": 404,
    "busy": 429,
    "internal": 500,
}


def http_status(response: Dict[str, Any]) -> int:
    """The HTTP status code for a v1 response envelope."""
    if response.get("ok"):
        return 200
    error = response.get("error") or {}
    return HTTP_STATUS.get(error.get("code"), 500)
