"""The ``repro.api`` façade: one programmatic front door for the checker
and the simulator.

Every entry point — the ``python -m repro`` CLI subcommands, the
``python -m repro serve`` service, and library callers — goes through
the same three layers:

1. :func:`parse_request` decodes and validates a raw v1 request
   (:mod:`repro.api.schema`);
2. one request executor consults the content-addressed response cache
   (:mod:`repro.perf.cache`) and, on a miss, splits the request into
   **shards**, the units :func:`merge_shards` combines (one model per
   check, one workload per sweep, one corpus file per audit, one
   :data:`BATCH_SHARD_PROGRAMS`-program slice per batch), then stores
   the merged result and wraps errors into the response envelope;
3. the shards run as tasks: a check request is **one** task,
   :func:`execute_check_shards`, which checks all its models in one
   :class:`~repro.core.model.Pipeline` (one parse, one shared
   enumeration, one race memo); every sweep, audit and batch shard is a
   task of its own, :func:`execute_shard`.  Both are module-level
   functions of JSON-able dicts, so they ship to pool workers by
   reference and produce the same bytes wherever they run.

The executor is the same for every front end; only how a list of tasks
runs differs.  :func:`handle_request` runs one task inline and fans
several out over :func:`repro.perf.pool.parallel_map`;
:class:`repro.serve.Service` runs the executor on its dispatcher threads
and sends each task to its warm process pool.

The façade functions :func:`check_program`, :func:`run_sweep_request`,
:func:`audit_request`, and :func:`generate_figures` are thin wrappers
that build a request and return the full response envelope, so CLI and
service are two transports over one API.

Responses are deterministic (no timestamps or timings — see
:mod:`repro.api.schema`), which is what lets the request-level cache
replay them byte-identically: a warm hit is one file read instead of an
enumeration or a sweep.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.schema import (
    ApiError,
    SchemaError,
    decode,
    error_response,
    ok_response,
    request_key_material,
    salvage_identity,
    validate_request,
)
# The checker loads with the api, not on the first check: a served
# request's pool workers fork with it already imported.
from repro.core.model import Pipeline
from repro.perf.cache import (
    SWEEP_CODE_PACKAGES,
    CacheSpec,
    ResultCache,
    code_fingerprint,
    resolve_cache,
)
from repro.perf.pool import parallel_map

#: Packages whose sources determine a check/audit response.  The solver
#: sources ride along because ``options.engine`` may route the check
#: through :mod:`repro.solver`.
CHECK_CODE_PACKAGES = ("repro.core", "repro.litmus", "repro.api", "repro.solver")

#: Packages whose sources determine a sweep response.
SWEEP_REQUEST_CODE_PACKAGES = SWEEP_CODE_PACKAGES + ("repro.api",)


# -- program resolution --------------------------------------------------------

def _resolve_program(spec: Dict[str, str]):
    """The :class:`~repro.litmus.program.Program` a check request names.

    ``{"name": ...}`` looks the test up in the litmus library;
    ``{"source": ...}`` parses DSL text.  Raises :class:`ApiError` with
    ``not_found`` / ``bad_field`` so transports can map it to 404/400.
    """
    from repro.litmus.dsl import DslError, parse
    from repro.litmus.library import get as get_litmus

    if "name" in spec:
        try:
            return get_litmus(spec["name"]).program
        except KeyError:
            raise ApiError(
                "not_found", f"no litmus test named {spec['name']!r} in the library"
            ) from None
    try:
        return parse(spec["source"])
    except DslError as err:
        raise ApiError("bad_field", f"program.source: {err}") from None


def _program_expectations(spec: Dict[str, str]) -> Dict[str, bool]:
    """Expected per-model verdicts, when the request carries them.

    Named library tests declare ``expected_legal``; DSL sources may
    carry a corpus-style ``# expect:`` header.  Unknown models are
    simply absent.
    """
    from repro.litmus.corpus import _parse_expectations
    from repro.litmus.library import get as get_litmus

    if "name" in spec:
        try:
            return dict(get_litmus(spec["name"]).expected_legal)
        except KeyError:
            return {}
    return {
        model: legal
        for model, (legal, _kinds) in _parse_expectations(spec["source"]).items()
    }


# -- sharding ------------------------------------------------------------------

#: Programs per ``batch`` shard.  One shard is one
#: :func:`repro.batch.check_many` call, so the slice is the amortization
#: unit — big enough that shared enumeration/classification pay off,
#: small enough that a large batch still spreads over the worker pool.
BATCH_SHARD_PROGRAMS = 25


def shard_request(
    normalized: Dict[str, Any], cache_root: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Split a normalized request into independent, picklable shards.

    Also validates the names the request refers to (litmus test,
    workloads) in the calling process, so ``not_found`` surfaces before
    any worker is involved.  Every shard carries ``cache_root``, but
    only sweep shards read it (each sweep cell is cached on its own);
    check, batch and audit results are cached whole, as the request's
    response, by :func:`execute_request`.
    """
    kind = normalized["kind"]
    if kind == "check":
        _resolve_program(normalized["program"])  # raise not_found/bad_field early
        options = normalized["options"]
        root = None if options["trace"] else cache_root
        return [
            {
                "shard": "check_model",
                "program": normalized["program"],
                "model": model,
                "options": options,
                "cache_root": root,
            }
            for model in normalized["models"]
        ]
    if kind == "batch":
        for spec in normalized["programs"]:
            _resolve_program(spec)  # raise not_found/bad_field early
        return [
            {
                "shard": "batch_chunk",
                "programs": normalized["programs"][offset:offset + BATCH_SHARD_PROGRAMS],
                "offset": offset,
                "models": normalized["models"],
                "options": normalized["options"],
                "cache_root": cache_root,
            }
            for offset in range(
                0, len(normalized["programs"]), BATCH_SHARD_PROGRAMS
            )
        ]
    if kind == "sweep":
        from repro.workloads.base import get as get_workload

        for name in normalized["workloads"]:
            try:
                get_workload(name)
            except KeyError as err:
                raise ApiError("not_found", str(err).strip('"')) from None
        return [
            {
                "shard": "sweep_workload",
                "workload": name,
                "scale": normalized["scale"],
                "engine": normalized["engine"],
                "cache_root": cache_root,
            }
            for name in normalized["workloads"]
        ]
    # kind == "audit"
    from repro.litmus.corpus import CORPUS_DIR

    options = normalized["options"]
    return [
        {
            "shard": "audit_file",
            "path": os.path.join(CORPUS_DIR, filename),
            "options": options,
            "cache_root": cache_root,
        }
        for filename in sorted(os.listdir(CORPUS_DIR))
        if filename.endswith(".litmus")
    ]


def _check_payload(result) -> Dict[str, Any]:
    """The v1 payload for one :class:`~repro.core.model.CheckResult`."""
    payload = {
        "legal": result.legal,
        "race_kinds": list(result.race_kinds),
        "executions": result.executions_explored,
        "execution_classes": result.execution_classes,
        "analyses_run": result.analyses_run,
        "truncated_paths": result.truncated_paths,
        "engine": result.engine,
        "witnesses": [
            {
                "execution": w.execution_index,
                "kind": w.race.kind,
                "race": repr(w.race),
            }
            for w in result.witnesses
        ],
    }
    # Additive: only solver-backed checks carry stats, so enum-engine
    # responses (and every pre-existing golden fixture) are unchanged.
    # Wall times are deliberately excluded — the payload stays a pure
    # function of the request.
    stats = getattr(result, "solver_stats", None)
    if stats is not None:
        payload["solver_stats"] = dict(stats.counters(), shared=stats.shared)
    return payload


def execute_check_shards(
    shards: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Run one check request's ``check_model`` shards as one task.

    The shards of a check request name one program and one set of
    options (see :func:`shard_request`), so the program is parsed once
    and one :class:`~repro.core.model.Pipeline` checks every model: one
    base enumeration relabeled per model and one race-signature memo.
    A traced request runs one pipeline per model instead, each with its
    own tracer, so each model's trace is that of a one-cell check.
    Returns one part per shard, in shard order, as :func:`merge_shards`
    consumes them.  Module-level, so the service ships it to a pool
    worker by reference.
    """
    from repro.obs.export import to_dicts
    from repro.obs.tracer import Tracer

    options = shards[0]["options"]
    program = _resolve_program(shards[0]["program"])
    models = [shard["model"] for shard in shards]

    def pipeline(tracer=None) -> Pipeline:
        return Pipeline(
            engine=options["engine"],
            max_executions=options["max_executions"],
            dedup=options["dedup"],
            exhaustive=options["exhaustive"],
            tracer=tracer,
        )

    if options["trace"]:
        tracers = [Tracer() for _ in models]
        results = [
            pipeline(tracer).check_models(program, [model])[0]
            for model, tracer in zip(models, tracers)
        ]
    else:
        tracers = [None] * len(models)
        results = pipeline().check_models(program, models)
    parts = []
    for result, tracer in zip(results, tracers):
        part: Dict[str, Any] = {
            "model": result.model,
            "program": program.name,
            "check": _check_payload(result),
        }
        if tracer is not None:
            part["trace"] = to_dicts(tracer)
        parts.append(part)
    return parts


def execute_shard(shard: Dict[str, Any]) -> Dict[str, Any]:
    """Run one shard; module-level so pools can import it by reference.

    Deterministic: equal shards produce value-equal payloads whatever
    process runs them, which is what keeps service responses
    byte-identical to direct API calls.
    """
    kind = shard["shard"]
    if kind == "check_model":
        return execute_check_shards([shard])[0]
    if kind == "batch_chunk":
        from repro.batch import check_many

        options = shard["options"]
        models = shard["models"]
        programs = [_resolve_program(spec) for spec in shard["programs"]]
        results = list(check_many(
            programs,
            models=models,
            engine=options["engine"],
            jobs=1,  # shards are the parallelism unit; amortize inside
            max_executions=options["max_executions"],
            dedup=options["dedup"],
            exhaustive=options["exhaustive"],
        ))
        # check_many yields program-major / model-minor in input order,
        # so consecutive len(models)-slices are one program each; the
        # payloads are byte-identical to per-program check_model shards
        # (the pipeline's core invariant, asserted by
        # tests/core/test_batch.py).
        entries = []
        for index, program in enumerate(programs):
            cells = results[index * len(models):(index + 1) * len(models)]
            entries.append({
                "program": program.name,
                "models": {r.model: _check_payload(r) for r in cells},
            })
        return {"offset": shard["offset"], "programs": entries}
    if kind == "sweep_workload":
        from repro.eval.harness import CONFIG_ORDER, encode_observation, run_sweep

        sweep = run_sweep(
            [shard["workload"]],
            scale=shard["scale"],
            engine=shard["engine"],
            jobs=1,
            cache=shard["cache_root"],
        )
        return {
            "workload": shard["workload"],
            "observations": [
                encode_observation(sweep.get(shard["workload"], cfg))
                for cfg in CONFIG_ORDER
            ],
        }
    if kind == "audit_file":
        from repro.litmus.corpus import _parse_expectations
        from repro.litmus.dsl import parse

        # One pipeline checks every model the file's header declares, so
        # the models share one enumeration.
        options = shard["options"]
        with open(shard["path"]) as handle:
            text = handle.read()
        program = parse(text)
        expected = sorted(_parse_expectations(text).items())
        pipeline = Pipeline(dedup=options["dedup"], engine=options["engine"])
        results = pipeline.check_models(program, [model for model, _ in expected])
        verdicts: Dict[str, Any] = {}
        for (model, (legal, _kinds)), result in zip(expected, results):
            payload = _check_payload(result)
            verdicts[model] = {"expected": legal, "actual": result.legal}
            verdicts[model].update(
                (field, payload[field])
                for field in ("race_kinds", "engine", "solver_stats")
                if field in payload
            )
        return {
            "name": program.name,
            "ok": all(v["expected"] == v["actual"] for v in verdicts.values()),
            "verdicts": verdicts,
        }
    raise ApiError("internal", f"unknown shard kind {kind!r}")


def merge_shards(
    normalized: Dict[str, Any], parts: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Combine shard payloads into the request's result payload."""
    kind = normalized["kind"]
    if kind == "check":
        models: Dict[str, Any] = {}
        traces: Dict[str, Any] = {}
        program_name = None
        for part in parts:
            program_name = part["program"]
            models[part["model"]] = part["check"]
            if "trace" in part:
                traces[part["model"]] = part["trace"]
        result: Dict[str, Any] = {"program": program_name, "models": models}
        expected = {
            model: legal
            for model, legal in _program_expectations(normalized["program"]).items()
            if model in models
        }
        if expected:
            result["expected"] = expected
            result["mismatches"] = sorted(
                model
                for model, legal in expected.items()
                if models[model]["legal"] != legal
            )
        if traces:
            result["trace"] = traces
        return result
    if kind == "batch":
        entries: List[Dict[str, Any]] = []
        for part in sorted(parts, key=lambda p: p["offset"]):
            entries.extend(part["programs"])
        divergent: List[str] = []
        for spec, entry in zip(normalized["programs"], entries):
            expected = {
                model: legal
                for model, legal in _program_expectations(spec).items()
                if model in entry["models"]
            }
            if expected:
                entry["expected"] = expected
                mismatches = sorted(
                    model
                    for model, legal in expected.items()
                    if entry["models"][model]["legal"] != legal
                )
                if mismatches:
                    entry["mismatches"] = mismatches
                    divergent.append(entry["program"])
        return {
            "programs": entries,
            "count": len(entries),
            "models": list(normalized["models"]),
            "mismatched_programs": divergent,
        }
    if kind == "sweep":
        from repro.eval.harness import CONFIG_ORDER, SweepResult, decode_observation

        sweep = SweepResult()
        observations: List[Dict[str, Any]] = []
        for part in parts:
            for encoded in part["observations"]:
                observations.append(encoded)
                obs = decode_observation(encoded)
                assert obs is not None
                sweep.add(obs)
        return {
            "workloads": list(normalized["workloads"]),
            "scale": normalized["scale"],
            "configs": list(CONFIG_ORDER),
            "observations": observations,
            "average_time_reduction": {
                cfg: sweep.average_reduction(cfg) for cfg in CONFIG_ORDER[1:]
            },
            "average_energy_reduction": {
                cfg: sweep.average_energy_reduction(cfg)
                for cfg in CONFIG_ORDER[1:]
            },
        }
    # kind == "audit"
    files = list(parts)
    failures = sum(1 for part in files if not part["ok"])
    return {"files": files, "total": len(files), "failures": failures}


# -- request-level execution ---------------------------------------------------

def _corpus_digest() -> str:
    """Hash of the litmus corpus files (they are data, not fingerprinted
    ``*.py`` sources, yet audit responses depend on them)."""
    from repro.litmus.corpus import CORPUS_DIR

    digest = hashlib.sha256()
    for filename in sorted(os.listdir(CORPUS_DIR)):
        if not filename.endswith(".litmus"):
            continue
        digest.update(filename.encode() + b"\0")
        with open(os.path.join(CORPUS_DIR, filename), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def request_cache_key(store: ResultCache, normalized: Dict[str, Any]) -> str:
    """The content address of a request's response payload.

    Keyed on the normalized request (minus client labels), a code
    fingerprint of the packages that compute the result, and — for
    audits — the corpus file contents, so any relevant change orphans
    stale responses instead of replaying them.
    """
    kind = normalized["kind"]
    packages = (
        SWEEP_REQUEST_CODE_PACKAGES if kind == "sweep" else CHECK_CODE_PACKAGES
    )
    material: Dict[str, Any] = {
        "request": request_key_material(normalized),
        "code": code_fingerprint(packages),
    }
    if kind == "audit":
        material["corpus"] = _corpus_digest()
    return store.key("api_request", material)


def request_is_cacheable(normalized: Dict[str, Any]) -> bool:
    """Trace-capturing requests bypass the response cache (a cached
    response has no events to record), mirroring the sweep harness."""
    return not normalized.get("options", {}).get("trace", False)


#: How a front end runs a request's tasks: ``run(fn, tasks)`` returns
#: ``[fn(task) for task in tasks]``, in task order, wherever it runs them.
Run = Callable[[Callable[[Any], Any], List[Any]], List[Any]]


def _execute(
    normalized: Dict[str, Any], store: Optional[ResultCache], run: Run
) -> Tuple[Dict[str, Any], bool]:
    """A normalized request's result payload and whether *store* had it.

    Cache lookup, shard, run, merge, store.  A check request is **one**
    task (:func:`execute_check_shards`); batch, sweep and audit requests
    give *run* one :func:`execute_shard` task per shard.
    """
    key = None
    if store is not None and request_is_cacheable(normalized):
        key = request_cache_key(store, normalized)
        hit, value = store.get(key)
        if hit and isinstance(value, dict):
            return value, True
    root = store.root if store is not None else None
    shards = shard_request(normalized, cache_root=root)
    if normalized["kind"] == "check":
        [parts] = run(execute_check_shards, [shards])
    else:
        parts = run(execute_shard, shards)
    result = merge_shards(normalized, parts)
    if key is not None:
        store.put(key, result)
    return result, False


def _respond(
    normalized: Dict[str, Any], store: Optional[ResultCache], run: Run
) -> Tuple[Dict[str, Any], bool]:
    """:func:`_execute` as a v1 response envelope plus the cache-hit flag.

    The one request executor: :func:`handle_request` runs it in the
    calling process, and :class:`repro.serve.Service` on its dispatcher
    threads with a *run* that feeds the warm pool.  Unknown names and
    internal failures come back as ``ok: false`` envelopes.
    """
    try:
        result, hit = _execute(normalized, store, run)
    except ApiError as err:
        return error_response(
            err.code, err.message,
            request_id=normalized["id"], kind=normalized["kind"],
        ), False
    except Exception as err:
        return error_response(
            "internal", f"{type(err).__name__}: {err}",
            request_id=normalized["id"], kind=normalized["kind"],
        ), False
    return ok_response(normalized, result), hit


def _local_run(jobs: Optional[int]) -> Run:
    """Run one task inline and fan several out over
    :func:`repro.perf.pool.parallel_map`."""
    def run(fn: Callable[[Any], Any], tasks: List[Any]) -> List[Any]:
        if len(tasks) == 1:
            return [fn(tasks[0])]
        return parallel_map(fn, tasks, jobs=jobs)
    return run


def execute_request(
    normalized: Dict[str, Any],
    cache: CacheSpec = None,
    jobs: Optional[int] = 1,
) -> Dict[str, Any]:
    """Execute a normalized request: cache lookup, shard, run, merge.

    A check request runs inline as one task
    (:func:`execute_check_shards`).  ``jobs`` fans the shards of batch,
    sweep and audit requests out over
    :func:`repro.perf.pool.parallel_map` (``1``, the default, runs them
    inline; ``None`` auto-resolves a worker count).  Raises
    :class:`ApiError` for unknown names.
    """
    return _execute(normalized, resolve_cache(cache), _local_run(jobs))[0]


def parse_request(
    request: Any,
) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Decode and validate one raw request.

    Returns ``(normalized, None)``, or ``(None, error envelope)`` when
    *request* is not a valid v1 request; the envelope echoes whatever
    ``id`` and ``kind`` could be salvaged from it.
    """
    raw_id, raw_kind = salvage_identity(request)
    try:
        obj = decode(request) if isinstance(request, (str, bytes)) else request
        raw_id, raw_kind = salvage_identity(obj)
        return validate_request(obj), None
    except SchemaError as err:
        return None, error_response(
            err.code, err.message, request_id=raw_id, kind=raw_kind
        )


def handle_request(
    request: Any,
    cache: CacheSpec = None,
    jobs: Optional[int] = 1,
) -> Dict[str, Any]:
    """Validate and execute one raw request; always returns a v1 response.

    *request* may be a JSON string (one JSONL line) or an already-parsed
    object.  Schema violations, unknown names, and internal failures all
    come back as ``ok: false`` envelopes — this function does not raise.
    """
    normalized, error = parse_request(request)
    if error is not None:
        return error
    return _respond(normalized, resolve_cache(cache), _local_run(jobs))[0]


# -- the façade ----------------------------------------------------------------

def check_program(
    name: Optional[str] = None,
    source: Optional[str] = None,
    models: Optional[Sequence[str]] = None,
    *,
    dedup: bool = True,
    exhaustive: bool = True,
    max_executions: Optional[int] = None,
    trace: bool = False,
    engine: str = "enum",
    cache: CacheSpec = None,
    jobs: Optional[int] = 1,
    request_id: Optional[Any] = None,
) -> Dict[str, Any]:
    """Check a litmus program; returns the full v1 response envelope.

    Exactly one of *name* (a litmus-library test) or *source* (DSL text)
    selects the program.  *models* defaults to all three.  *engine*
    picks the checking engine (``"enum"``, ``"sat"`` or ``"auto"``; see
    :func:`repro.core.model.check`).  The envelope is exactly what
    ``python -m repro serve`` would answer for the equivalent request.
    """
    if (name is None) == (source is None):
        raise TypeError("pass exactly one of name= or source=")
    request: Dict[str, Any] = {
        "schema_version": 1,
        "kind": "check",
        "id": request_id,
        "program": {"name": name} if name is not None else {"source": source},
        "options": {
            "dedup": dedup,
            "exhaustive": exhaustive,
            "max_executions": max_executions,
            "trace": trace,
            "engine": engine,
        },
    }
    if models is not None:
        request["models"] = list(models)
    return handle_request(request, cache=cache, jobs=jobs)


def check_batch(
    programs: Sequence[Dict[str, str]],
    models: Optional[Sequence[str]] = None,
    *,
    dedup: bool = True,
    exhaustive: bool = True,
    max_executions: Optional[int] = None,
    engine: str = "enum",
    cache: CacheSpec = None,
    jobs: Optional[int] = 1,
    request_id: Optional[Any] = None,
) -> Dict[str, Any]:
    """Check many litmus programs in one request; returns the v1 envelope.

    *programs* is a list of program specs — each ``{"name": ...}`` (a
    litmus-library test) or ``{"source": ...}`` (DSL text).  The request
    runs through the amortizing :func:`repro.batch.check_many` pipeline
    in :data:`BATCH_SHARD_PROGRAMS`-program shards; each program's
    per-model payload is byte-identical to a standalone
    :func:`check_program` call.  Programs with declared expectations
    (library tests, ``# expect:`` headers) get per-entry ``expected`` /
    ``mismatches`` fields, and the result lists ``mismatched_programs``
    — which is all a differential corpus replay needs to read.
    """
    request: Dict[str, Any] = {
        "schema_version": 1,
        "kind": "batch",
        "id": request_id,
        "programs": list(programs),
        "options": {
            "dedup": dedup,
            "exhaustive": exhaustive,
            "max_executions": max_executions,
            "engine": engine,
        },
    }
    if models is not None:
        request["models"] = list(models)
    return handle_request(request, cache=cache, jobs=jobs)


def run_sweep_request(
    workloads: Sequence[str],
    scale: float = 1.0,
    engine: str = "auto",
    *,
    cache: CacheSpec = None,
    jobs: Optional[int] = 1,
    request_id: Optional[Any] = None,
) -> Dict[str, Any]:
    """Sweep *workloads* over the six configurations; returns the v1
    response envelope (observations plus the headline reductions)."""
    request = {
        "schema_version": 1,
        "kind": "sweep",
        "id": request_id,
        "workloads": list(workloads),
        "scale": scale,
        "engine": engine,
    }
    return handle_request(request, cache=cache, jobs=jobs)


def audit_request(
    *,
    dedup: bool = True,
    engine: str = "enum",
    cache: CacheSpec = None,
    jobs: Optional[int] = 1,
    request_id: Optional[Any] = None,
) -> Dict[str, Any]:
    """Re-check the litmus corpus against its declared verdicts; returns
    the v1 response envelope."""
    request = {
        "schema_version": 1,
        "kind": "audit",
        "id": request_id,
        "options": {"dedup": dedup, "engine": engine},
    }
    return handle_request(request, cache=cache, jobs=jobs)


def generate_figures(
    out_dir: str = "results",
    scale: float = 1.0,
    jobs: Optional[int] = None,
    trace_dir: Optional[str] = None,
    cache: CacheSpec = None,
    engine: str = "auto",
) -> Dict[str, str]:
    """Regenerate every table/figure artifact (the ``figures``
    subcommand's entry point; see :func:`repro.eval.reporting.generate_all`)."""
    from repro.eval.reporting import generate_all

    return generate_all(
        out_dir=out_dir, scale=scale, jobs=jobs, trace_dir=trace_dir,
        cache=cache, engine=engine,
    )
