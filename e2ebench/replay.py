"""Stage-by-stage replay of v1 ``check``/``batch`` requests, with spans.

:func:`replay_request` does what ``repro.api.handle_request(body,
cache=store, jobs=1)`` does, one public layer call at a time, and
records a span around each call: ``api.validate`` → ``api.handle``
(cache lookup, sharding, payload assembly) → ``litmus.parse`` →
``core.prepare`` → ``solver.router.decide`` → ``solver.sat_enumeration``
or ``core.executions.enumerate`` → ``core.races.classify`` (or
``batch.check_many`` for batch shards) → ``perf.cache.get``/``put`` →
``api.encode``.  The caller asserts that the encoded response equals the
one ``handle_request`` gives for the same request, so the per-layer
split describes the real program.

Work done only to take measurements runs inside a ``bench`` span, whose
time is reported by no layer and left out of the request wall times.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from common import Spans

import repro.litmus.dsl
from repro.api.core import (
    _check_payload,
    _resolve_program,
    merge_shards,
    request_cache_key,
    request_is_cacheable,
    shard_request,
)
from repro.api.schema import decode, encode, ok_response, validate_request
from repro.batch import check_many
from repro.core.executions import enumerate_sc_executions, static_step_bound
from repro.core.model import CheckResult, _prepare, classify_enumeration
from repro.perf.cache import ResultCache
from repro.solver import SolverCapacityError, sat_enumeration
from repro.solver.router import decide

#: Self-time metrics of the checker layers (``<name>_ms``).
CHECK_TIMES = (
    "litmus.parse",
    "core.prepare",
    "core.executions.enumerate",
    "core.races.classify",
    "solver.router.decide",
    "batch.check_many",
    "api.validate",
    "api.handle",
    "api.encode",
    "perf.cache.get",
    "perf.cache.put",
)


class Replayer:
    """Replays requests against one store, accumulating spans and counts."""

    def __init__(self, spans: Spans, cache_dir: Optional[str]):
        self.spans = spans
        self.store = ResultCache(cache_dir) if cache_dir is not None else None
        self.sat_solve_s = 0.0
        # Every DSL parse, including the ones inside repro.api's program
        # resolution, is one litmus.parse span.
        repro.litmus.dsl.parse = spans.wrap("litmus.parse", repro.litmus.dsl.parse)
        # Every read and write of a cache store is one perf.cache span.
        # Patching the class reaches the stores check_many opens on the
        # batch shards' cache root, as the server's shards do.
        ResultCache.get = spans.wrap("perf.cache.get", ResultCache.get)
        ResultCache.put = spans.wrap("perf.cache.put", ResultCache.put)

    def replay_request(self, body: str) -> str:
        """The encoded v1 response for *body* (a JSON request)."""
        spans = self.spans
        with spans.span("request"):
            with spans.span("api.validate"):
                normalized = validate_request(decode(body))
            with spans.span("api.handle"):
                response = ok_response(normalized, self._execute(normalized))
            with spans.span("api.encode"):
                text = encode(response)
        spans.count("api.payload_bytes", len(text))
        return text

    def _execute(self, normalized: Dict[str, Any]) -> Dict[str, Any]:
        store = self.store
        key = None
        if store is not None and request_is_cacheable(normalized):
            key = request_cache_key(store, normalized)
            hit, value = store.get(key)
            if hit and isinstance(value, dict):
                return value
        shards = shard_request(
            normalized, cache_root=store.root if store is not None else None
        )
        parts = [
            self._check_shard(shard) if shard["shard"] == "check_model"
            else self._batch_shard(shard)
            for shard in shards
        ]
        result = merge_shards(normalized, parts)
        if key is not None:
            store.put(key, result)
        return result

    def _check_shard(self, shard: Dict[str, Any]) -> Dict[str, Any]:
        """``execute_shard`` for one (program, model) cell, which is
        ``repro.core.model.check`` stage by stage."""
        spans = self.spans
        options = shard["options"]
        model = shard["model"]
        # check() resolves a cache root to a store on that directory.
        cache = self.store if shard["cache_root"] is not None else None
        program = _resolve_program(shard["program"])
        with spans.span("core.prepare"):
            prepared = _prepare(program, model)
        engine = options["engine"]
        use_sat = engine == "sat"
        route = None
        if engine == "auto":
            with spans.span("solver.router.decide"):
                route = decide(prepared)
            use_sat = route.engine == "sat"
        enumeration = None
        engine_used = "enum"
        if use_sat:
            with spans.span("solver.sat_enumeration"):
                try:
                    enumeration = sat_enumeration(
                        prepared, max_executions=options["max_executions"],
                        cache=cache,
                    )
                    engine_used = "sat"
                except SolverCapacityError:
                    enumeration = None
        if enumeration is None:
            with spans.span("core.executions.enumerate"):
                enumeration = enumerate_sc_executions(
                    prepared, max_executions=options["max_executions"],
                    cache=cache,
                )
        with spans.span("core.races.classify"):
            classified = classify_enumeration(
                enumeration, model, backend=options["backend"],
                dedup=options["dedup"], exhaustive=options["exhaustive"],
            )
        witnesses, n_classes, analyses = classified
        result = CheckResult(
            program_name=program.name,
            model=model,
            legal=not witnesses,
            witnesses=witnesses,
            executions_explored=len(enumeration.executions),
            truncated_paths=enumeration.truncated_paths,
            checked_program=prepared,
            execution_classes=n_classes,
            analyses_run=analyses,
            engine=engine_used,
            found_race_kinds=classified.race_kinds,
            solver_stats=getattr(enumeration, "solver_stats", None),
        )
        with spans.span("bench"):
            self._count_check(prepared, route, enumeration, engine_used,
                              n_classes, analyses)
        return {"model": model, "program": program.name,
                "check": _check_payload(result)}

    def _count_check(self, prepared, route, enumeration, engine_used,
                     n_classes, analyses) -> None:
        count = self.spans.count
        count("core.prepare.events", static_step_bound(prepared))
        count("core.races.analyses_run", analyses)
        count("core.races.classes", n_classes)
        count("core.races.executions", len(enumeration.executions))
        if route is not None:
            count("solver.router.decisions")
            count("solver.router.sat", route.engine == "sat")
        if engine_used == "sat":
            stats = enumeration.solver_stats
            count("solver.conflicts", stats.conflicts)
            count("solver.decisions", stats.decisions)
            count("solver.classes", stats.classes)
            self.sat_solve_s += stats.solve_s
        else:
            stats = enumeration.stats
            count("core.executions.steps", stats.steps)
            count("core.executions.executions", len(enumeration.executions))
            count("core.executions.por_pruned", stats.por_pruned)
            count("core.executions.memo_hits", stats.memo_hits)

    def _batch_shard(self, shard: Dict[str, Any]) -> Dict[str, Any]:
        """``execute_shard`` for one batch chunk: parse, then one
        ``check_many`` call, then payload assembly."""
        options = shard["options"]
        models = shard["models"]
        programs = [_resolve_program(spec) for spec in shard["programs"]]
        with self.spans.span("batch.check_many"):
            results = list(check_many(
                programs, models=models, engine=options["engine"], jobs=1,
                cache=shard["cache_root"],
                max_executions=options["max_executions"],
                backend=options["backend"], dedup=options["dedup"],
                exhaustive=options["exhaustive"],
            ))
        entries = []
        for index, program in enumerate(programs):
            cells = results[index * len(models):(index + 1) * len(models)]
            entries.append({
                "program": program.name,
                "models": {r.model: _check_payload(r) for r in cells},
            })
        return {"offset": shard["offset"], "programs": entries}

    def metrics(self) -> Dict[str, float]:
        """Per-layer self times (ms) and counts of everything replayed."""
        spans = self.spans
        self_ms = spans.self_ms()
        counts = spans.counts
        out = {f"{name}_ms": self_ms.get(name, 0.0) for name in CHECK_TIMES}
        # The solver's own layer time: encode/ground/decode is the
        # sat_enumeration span minus the time inside solve().
        sat_ms = self_ms.get("solver.sat_enumeration", 0.0)
        out["solver.solve_ms"] = self.sat_solve_s * 1e3
        out["solver.encode_ms"] = max(0.0, sat_ms - self.sat_solve_s * 1e3)
        for name in (
            "core.prepare.events", "core.executions.steps",
            "core.executions.executions", "core.executions.por_pruned",
            "core.executions.memo_hits", "core.races.analyses_run",
            "solver.conflicts", "solver.decisions", "solver.classes",
            "api.payload_bytes",
        ):
            out[name] = counts.get(name, 0)
        executions = counts.get("core.races.executions", 0)
        out["core.races.class_ratio"] = (
            counts.get("core.races.classes", 0) / executions if executions else 0.0
        )
        decisions = counts.get("solver.router.decisions", 0)
        out["solver.router.sat_share"] = (
            counts.get("solver.router.sat", 0) / decisions if decisions else 0.0
        )
        return out


def request_roots_ms(spans: Spans) -> List[float]:
    """Wall time of each replayed request, in replay order, less the
    ``bench`` spans inside it."""
    walls: Dict[int, float] = {}
    root = [0] * len(spans.records)
    for index, (name, start, end, parent, _req) in enumerate(spans.records):
        root[index] = index if parent < 0 else root[parent]
        if name == "request":
            walls[index] = (end - start) / 1e6
        elif name == "bench" and root[index] in walls:
            walls[root[index]] -= (end - start) / 1e6
    return list(walls.values())
