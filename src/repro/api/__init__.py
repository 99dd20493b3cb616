"""``repro.api`` — the versioned programmatic front door.

One API, two transports: the ``python -m repro`` CLI subcommands
(``litmus``, ``audit``, ``figures``) and the ``python -m repro serve``
service both call these functions, so a request answered over HTTP,
over stdin-JSONL, or in-process produces byte-identical payloads.

- :func:`check_program` / :func:`check_batch` /
  :func:`run_sweep_request` / :func:`audit_request` — build + execute
  one v1 request, returning the full response envelope;
- :func:`handle_request` — validate/execute a raw request object or
  JSONL line (never raises; errors become ``ok: false`` envelopes);
- :func:`generate_figures` — the figures artifact pipeline;
- :mod:`repro.api.schema` — the v1 request/result schema and the stable
  :func:`~repro.api.schema.encode` codec.

See ``docs/serve.md`` for the protocol reference.
"""

from repro.api.core import (
    audit_request,
    check_batch,
    check_program,
    execute_check_shards,
    execute_request,
    execute_shard,
    generate_figures,
    handle_request,
    merge_shards,
    request_cache_key,
    request_is_cacheable,
    shard_request,
    run_sweep_request,
)
from repro.api.schema import (
    SCHEMA_VERSION,
    ApiError,
    SchemaError,
    encode,
    error_response,
    ok_response,
    validate_request,
)

__all__ = [
    "SCHEMA_VERSION",
    "ApiError",
    "SchemaError",
    "audit_request",
    "check_batch",
    "check_program",
    "encode",
    "error_response",
    "execute_check_shards",
    "execute_request",
    "execute_shard",
    "generate_figures",
    "handle_request",
    "merge_shards",
    "ok_response",
    "request_cache_key",
    "request_is_cacheable",
    "run_sweep_request",
    "shard_request",
    "validate_request",
]
