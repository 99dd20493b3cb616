"""A v1 ``check`` request runs as one pipeline call.

``execute_request`` checks all of a request's models in one
:class:`repro.core.model.Pipeline`; these tests pin it to the per-model
composition of the public shard API (``shard_request`` →
``execute_shard`` per shard → ``merge_shards``), which is how a
stage-by-stage replay of a request consumes the shards.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.api.core as api_core
from repro.api import (
    encode,
    execute_request,
    execute_shard,
    merge_shards,
    shard_request,
    validate_request,
)
from repro.api.core import _check_payload
from repro.core.model import check
from repro.litmus.corpus import load_corpus
from repro.litmus.dsl import parse
from repro.litmus.fuzz import generate_program
from repro.litmus.render import render
from repro.obs.export import to_dicts
from repro.obs.tracer import Tracer
from repro.serve import Service

ALL_MODELS = ["drf0", "drf1", "drfrlx"]
FUZZ_PROGRAMS = 60


def _sources():
    sources = []
    for entry in load_corpus():
        with open(entry.path) as handle:
            sources.append(handle.read())
    return sources + [render(generate_program(0, i)) for i in range(FUZZ_PROGRAMS)]


SOURCES = _sources()


def _normalized(source, models, **options):
    return validate_request({
        "schema_version": 1,
        "kind": "check",
        "id": "c",
        "program": {"source": source},
        "models": models,
        "options": options,
    })


def _per_shard(normalized, cache_root=None):
    shards = shard_request(normalized, cache_root=cache_root)
    return merge_shards(normalized, [execute_shard(shard) for shard in shards])


@pytest.mark.parametrize(
    "engine, models, exhaustive",
    [
        (engine, models, True)
        for engine in ("enum", "sat", "auto")
        for models in (["drfrlx"], ["drfrlx", "drf0"], ALL_MODELS)
    ]
    + [(engine, ALL_MODELS, False) for engine in ("enum", "sat", "auto")],
)
def test_pipeline_call_matches_per_shard_composition(engine, models, exhaustive):
    for source in SOURCES:
        normalized = _normalized(source, models, engine=engine,
                                 exhaustive=exhaustive)
        result = execute_request(normalized)
        assert encode(result) == encode(_per_shard(normalized))
        # The shards run through the same executor, so pin each model's
        # payload to the one-cell core check as well.
        program = parse(source)
        for model in models:
            payload = _check_payload(
                check(program, model, engine=engine, exhaustive=exhaustive)
            )
            assert result["models"][model] == payload


def test_cached_pipeline_call_matches_per_shard_composition(tmp_path):
    # The grouped call caches its whole response; the per-shard
    # composition runs under its own root.  The grouped path is run
    # cold, then warm from the response entry.
    for source in SOURCES[:20]:
        normalized = _normalized(source, ALL_MODELS)
        reference = encode(_per_shard(normalized, str(tmp_path / "shards")))
        for _ in range(2):
            served = execute_request(normalized, cache=str(tmp_path / "grouped"))
            assert encode(served) == reference


def test_jobs_do_not_fan_out_a_check(monkeypatch):
    calls = []
    real = api_core.execute_check_shards

    def counting(shards):
        calls.append(len(shards))
        return real(shards)

    monkeypatch.setattr(api_core, "execute_check_shards", counting)
    monkeypatch.setattr(
        api_core, "parallel_map",
        lambda *args, **kwargs: pytest.fail("a check request was fanned out"),
    )
    normalized = _normalized(SOURCES[0], ALL_MODELS)
    execute_request(normalized, jobs=2)
    assert calls == [3]


def test_traced_request_carries_each_models_one_cell_trace():
    source = SOURCES[0]
    program = parse(source)
    result = execute_request(_normalized(source, ALL_MODELS, trace=True))
    assert sorted(result["trace"]) == ALL_MODELS
    for model in ALL_MODELS:
        tracer = Tracer()
        check(program, model, tracer=tracer)
        assert result["trace"][model] == to_dicts(tracer)


class _CountingExecutor(ThreadPoolExecutor):
    """Stands in for the warm pool and records every task it is given."""

    def __init__(self):
        super().__init__(max_workers=2)
        self.tasks = []

    def submit(self, fn, *args, **kwargs):
        self.tasks.append(fn.__name__)
        return super().submit(fn, *args, **kwargs)


def _serve(requests):
    executor = _CountingExecutor()

    async def main():
        service = Service(jobs=1, cache=False)
        service.executor = executor
        await service.start()
        futures = [await service.submit(request) for request in requests]
        responses = [await future for future in futures]
        await service.aclose()
        return responses

    try:
        return asyncio.run(main()), executor.tasks
    finally:
        executor.shutdown()


def test_service_sends_a_check_request_to_the_pool_as_one_task():
    request = {
        "schema_version": 1, "kind": "check", "id": "one",
        "program": {"source": SOURCES[0]},
    }
    [response], tasks = _serve([request])
    assert response["ok"] and sorted(response["result"]["models"]) == ALL_MODELS
    assert tasks == ["execute_check_shards"]


def test_service_still_fans_out_batch_shards():
    request = {
        "schema_version": 1, "kind": "batch", "id": "many",
        "programs": [{"source": source} for source in SOURCES[:30]],
    }
    [response], tasks = _serve([request])
    assert response["ok"] and response["result"]["count"] == 30
    assert tasks == ["execute_shard", "execute_shard"]
