"""The checking pipeline: ``check`` and ``check_many`` against the
unshared composition of the stages.

The pipeline's whole contract is that amortization (shared enumerations
relabeled per model, call-wide classification memo, memoized engine
routing) is invisible in the results: every payload field a response
carries must match what ``classify_enumeration(enumerate_sc_executions(
_prepare(p, m)), m)`` (or its ``sat_enumeration`` counterpart) gives,
with no memo anywhere.
"""

import gc
import json
import os
import weakref

import pytest

import repro.core.model as model_module
from repro.api.core import _check_payload
from repro.batch import check_many
from repro.core.executions import enumerate_sc_executions
from repro.core.model import (
    MODELS,
    CheckResult,
    _prepare,
    check,
    classify_enumeration,
)
from repro.litmus.corpus import CORPUS_DIR
from repro.litmus.dsl import parse
from repro.litmus.fuzz import generate
from repro.litmus.library import get as get_litmus
from repro.obs.export import to_jsonl
from repro.obs.tracer import Tracer
from repro.solver import SolverCapacityError, clear_core_memo, sat_enumeration
from repro.solver.router import decide

LIBRARY_NAMES = (
    "mp_paired", "mp_data", "sb_data", "sb_paired", "lb_non_ordering",
    "flags", "split_counter",
)


def _programs():
    programs = [get_litmus(name).program for name in LIBRARY_NAMES]
    programs += generate(13, 8)
    return programs


def _payload(result):
    return json.dumps(_check_payload(result), sort_keys=True, default=repr)


def _reference(program, model, engine="enum", max_executions=None,
               max_witnesses=32, dedup=True, exhaustive=True):
    """One cell through the stages composed by hand, nothing shared."""
    prepared = _prepare(program, model)
    if engine == "auto":
        engine = decide(prepared).engine
    enumeration, engine_used = None, "enum"
    if engine == "sat":
        try:
            enumeration = sat_enumeration(prepared, max_executions=max_executions)
            engine_used = "sat"
        except SolverCapacityError:
            pass
    if enumeration is None:
        enumeration = enumerate_sc_executions(prepared,
                                              max_executions=max_executions)
    classified = classify_enumeration(
        enumeration, model, max_witnesses=max_witnesses,
        dedup=dedup, exhaustive=exhaustive,
    )
    witnesses, n_classes, analyses = classified
    return CheckResult(
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
        solver_stats=enumeration.solver_stats,
    )


def _assert_identical(programs, **kwargs):
    batched = list(check_many(programs, jobs=1, **kwargs))
    index = 0
    for program in programs:
        for model in MODELS:
            result = batched[index]
            index += 1
            assert result.program_name == program.name
            assert result.model == model
            expected = _payload(_reference(program, model, **kwargs))
            assert _payload(result) == expected, (program.name, model, kwargs)
            assert _payload(check(program, model, **kwargs)) == expected, (
                program.name, model, kwargs,
            )
    assert index == len(batched)


def test_identical_to_naive_loop_default_options():
    _assert_identical(_programs())


def test_identical_without_dedup():
    # dedup=False changes the per-execution accounting, which routes the
    # pipeline through the stock classifier — results must still match.
    _assert_identical(generate(19, 5), dedup=False)


def test_identical_early_exit():
    _assert_identical(generate(23, 5), exhaustive=False)


def test_identical_with_execution_cap():
    _assert_identical(generate(29, 5), max_executions=10)


def test_identical_sat_engine():
    _assert_identical(generate(31, 4), engine="sat")


def test_identical_auto_engine():
    _assert_identical(generate(37, 4), engine="auto")


def test_parallel_matches_serial():
    programs = generate(41, 10)
    serial = [_payload(r) for r in check_many(programs, jobs=1)]
    parallel = [_payload(r) for r in check_many(programs, jobs=2)]
    assert serial == parallel


def test_model_subset_and_order():
    programs = generate(43, 4)
    results = list(check_many(programs, models=("drfrlx", "drf0"), jobs=1))
    assert [(r.program_name, r.model) for r in results] == [
        (p.name, m) for p in programs for m in ("drfrlx", "drf0")
    ]
    for result in results:
        program = next(p for p in programs if p.name == result.program_name)
        assert _payload(result) == _payload(_reference(program, result.model))


def test_empty_batch():
    assert list(check_many([], jobs=1)) == []


def test_enumerations_die_with_the_call(tmp_path, monkeypatch):
    """No checking memo outlives its call: once ``check_many`` returns
    and the collector runs, every enumeration it made is gone (the
    bin's store handle included, which holds raw values)."""
    made = []
    real = model_module.enumerate_sc_executions

    def recording(*args, **kwargs):
        enumeration = real(*args, **kwargs)
        made.append(weakref.ref(enumeration))
        return enumeration

    monkeypatch.setattr(model_module, "enumerate_sc_executions", recording)
    results = list(check_many(generate(53, 6), jobs=1, cache=str(tmp_path)))
    assert results and made
    gc.collect()
    assert all(ref() is None for ref in made)


def test_intern_dicts_die_with_the_call(monkeypatch):
    """A SAT-routed call's race-signature intern dict dies with it, even
    though the memoized solver cores keep the events it signed."""

    class Intern(dict):  # a dict that can be weakly referenced
        pass

    made = []
    real_init = model_module.Pipeline.__init__

    def recording(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.sig_intern = Intern()
        made.append(weakref.ref(self.sig_intern))

    monkeypatch.setattr(model_module.Pipeline, "__init__", recording)
    clear_core_memo()
    results = list(check_many(generate(53, 6), engine="sat", jobs=1))
    assert any(r.solver_stats and r.solver_stats.shared for r in results)
    assert made
    del results  # their witnesses' executions carry the call's signatures
    gc.collect()
    assert all(ref() is None for ref in made)
    clear_core_memo()


@pytest.mark.parametrize("model", MODELS)
def test_traced_check_traces_the_prepared_enumeration(model):
    """``check(tracer=...)`` hands the tracer to the enumerator it runs:
    the trace is the prepared program's search, and tracing does not
    change the payload."""
    program = get_litmus("mp_paired").program
    traced = Tracer()
    result = check(program, model, tracer=traced)
    direct = Tracer()
    enumerate_sc_executions(_prepare(program, model), tracer=direct)
    assert to_jsonl(traced) == to_jsonl(direct)
    assert to_jsonl(traced)
    assert _payload(result) == _payload(check(program, model))


def _corpus_programs():
    for filename in sorted(os.listdir(CORPUS_DIR)):
        if filename.endswith(".litmus"):
            with open(os.path.join(CORPUS_DIR, filename)) as handle:
                yield parse(handle.read())


@pytest.mark.parametrize("engine", ["enum", "sat", "auto"])
def test_fast_path_verdicts_match_the_naive_oracle(engine):
    """Over the corpus, every engine's pipeline reaches the verdict of
    the ``naive=True`` oracle (no memo, no relabel, naive interleaver)."""
    for program in _corpus_programs():
        for model in MODELS:
            fast = check(program, model, engine=engine)
            oracle = check(program, model, naive=True)
            assert (fast.legal, fast.race_kinds) == \
                (oracle.legal, oracle.race_kinds), (program.name, model)


def test_sweep_runs_after_the_pipeline_is_gone(monkeypatch):
    """The sweep on leaving a bin scans what the bin's memos leave
    behind, not the memos themselves: the pipeline is released first."""
    import repro.batch as batch_module

    pipelines = []
    alive_at_sweep = []

    class Recorded(model_module.Pipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pipelines.append(weakref.ref(self))

    real_collect = gc.collect

    def collect(*args):
        alive_at_sweep.append([ref() is not None for ref in pipelines])
        return real_collect(*args)

    monkeypatch.setattr(batch_module, "Pipeline", Recorded)
    monkeypatch.setattr(gc, "collect", collect)
    was_enabled = gc.isenabled()
    gc.enable()  # the bin sweeps only when it paused a running collector
    try:
        results = list(check_many(generate(59, 4), jobs=1))
    finally:
        if not was_enabled:
            gc.disable()
    assert results and len(pipelines) == 1
    assert alive_at_sweep == [[False]]


def test_default_pipeline_never_builds_the_oracle(monkeypatch):
    """Under default options the checker classifies with the race
    kernel alone; ``classify_enumeration`` still runs the oracle."""
    from repro.core.paths import OperationGraph
    from repro.core.races import RaceAnalysis

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the fast path")

    monkeypatch.setattr(RaceAnalysis, "__init__", refuse)
    monkeypatch.setattr(OperationGraph, "__init__", refuse)
    programs = list(_corpus_programs()) + generate(61, 40)
    results = list(check_many(programs, jobs=1))
    assert len(results) == len(programs) * len(MODELS)
    assert any(not result.legal for result in results)
    program = get_litmus("mp_data").program
    enumeration = enumerate_sc_executions(_prepare(program, "drf0"))
    with pytest.raises(AssertionError, match="RaceAnalysis built"):
        classify_enumeration(enumeration, "drf0")
