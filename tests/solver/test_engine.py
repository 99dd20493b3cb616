"""Engine selection and integration: ``model.check(engine=...)`` and the
surfaces it threads through (audit, api payloads, runtime metrics).

The differential suite (:mod:`tests.solver.test_differential`) proves
the SAT engine *agrees* with the enumerator; this module pins the
plumbing — routing, fallback, and how the resolved engine is reported.
"""

import os

import pytest

from repro.api import check_program, execute_shard
from repro.core.model import MODELS, Pipeline, _prepare, check
from repro.litmus.corpus import CORPUS_DIR, load_corpus
from repro.litmus.library import get, scaled_chain
from repro.obs.export import to_jsonl
from repro.obs.metrics import RUNTIME
from repro.obs.tracer import Tracer

MP = get("mp_paired").program


class TestEngineSelection:
    def test_sat_engine_is_recorded(self):
        result = check(MP, "drf0", engine="sat")
        assert result.engine == "sat"

    def test_enum_engine_is_recorded(self):
        result = check(MP, "drf0", engine="enum")
        assert result.engine == "enum"

    def test_auto_follows_the_router_decision(self):
        """``engine="auto"`` is the static router: whatever
        :func:`repro.solver.router.decide` says is what runs."""
        from repro.solver.router import decide

        for program in (scaled_chain(2), scaled_chain(6), MP):
            for model in ("drf0", "drfrlx"):
                expected = decide(_prepare(program, model)).engine
                assert check(program, model, engine="auto").engine \
                    == expected, f"{program.name}/{model}"

    def test_auto_routes_rmw_chains_to_enum(self):
        """ref_counter's deep RMW chains are where the old static gate
        lost by 100x+: the router keeps every program with an RMW on
        the enumerator."""
        from repro.litmus.dsl import parse

        with open(os.path.join(CORPUS_DIR, "ref_counter.litmus")) as handle:
            program = parse(handle.read())
        for model in ("drf0", "drf1", "drfrlx"):
            assert check(program, model, engine="auto").engine == "enum"

    def test_auto_routes_large_scaling_programs_to_sat(self):
        program = scaled_chain(6)
        assert check(program, "drf0", engine="auto").engine == "sat"

    def test_naive_forces_the_enumerator(self):
        result = check(MP, "drf0", engine="sat", naive=True)
        assert result.engine == "enum"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            check(MP, "drf0", engine="z3")
        # The retired name is normalised only at the v1 schema boundary.
        with pytest.raises(ValueError, match="unknown engine"):
            check(MP, "drf0", engine="portfolio")

    def test_capacity_fallback_reroutes_to_enum(self):
        """ref_counter's deep RMW chains exceed the encoder's capacity
        caps under DRFrlx; ``engine="sat"`` must absorb the
        SolverCapacityError and deliver the enumerator's verdict."""
        from repro.litmus.dsl import parse

        with open(os.path.join(CORPUS_DIR, "ref_counter.litmus")) as handle:
            program = parse(handle.read())
        result = check(program, "drfrlx", engine="sat")
        assert result.engine == "enum"
        assert check(program, "drfrlx", engine="enum").legal == result.legal

    def test_engine_invariant_verdict_fields(self):
        """Counting fields may differ (classes vs interleavings); the
        verdict fields may not."""
        a = check(MP, "drfrlx", engine="enum")
        b = check(MP, "drfrlx", engine="sat")
        assert (a.legal, a.race_kinds) == (b.legal, b.race_kinds)
        assert b.executions_explored == b.execution_classes


class TestRuntimeMetric:
    def test_sat_resolution_recorded_once(self):
        check(MP, "drf0", engine="sat")
        assert RUNTIME.get("check_engine_resolved:sat") == 1.0
        # Once per process: a second sat check does not bump it again.
        check(MP, "drf1", engine="sat")
        assert RUNTIME.get("check_engine_resolved:sat") == 1.0


def _audit(names, engine):
    """The ``audit_file`` shard payloads of corpus files *names*."""
    return [
        execute_shard({
            "shard": "audit_file",
            "path": os.path.join(CORPUS_DIR, name),
            "options": {"dedup": True, "engine": engine},
            "cache_root": None,
        })
        for name in names
    ]


class TestAuditIntegration:
    def test_audit_records_engine_per_model(self):
        mp, ref = _audit(("mp_paired.litmus", "ref_counter.litmus"), "sat")
        assert mp["ok"] and ref["ok"]
        assert {v["engine"] for v in mp["verdicts"].values()} == {"sat"}
        # The fallback is visible in the audit report, per model.
        assert ref["verdicts"]["drfrlx"]["engine"] == "enum"

    def test_audit_verdicts_engine_invariant(self):
        names = ("mp_paired.litmus", "mp_unpaired.litmus")

        def verdicts(engine):
            return [
                {model: (v["expected"], v["actual"], v["race_kinds"])
                 for model, v in part["verdicts"].items()}
                for part in _audit(names, engine)
            ]

        assert verdicts("enum") == verdicts("sat")


class TestApiIntegration:
    def test_check_payload_reports_engine(self):
        response = check_program(name="mp_paired", models=["drf0"],
                                 engine="sat")
        assert response["ok"], response
        assert response["result"]["models"]["drf0"]["engine"] == "sat"

    def test_check_payload_defaults_to_enum(self):
        response = check_program(name="mp_paired", models=["drf0"])
        assert response["ok"], response
        assert response["result"]["models"]["drf0"]["engine"] == "enum"

    def test_check_payloads_engine_invariant(self):
        """The verdict surface of the payload is engine-invariant; the
        counting fields (executions = classes for sat, witness indices,
        truncated branches) legitimately differ and are excluded."""
        counting = ("engine", "executions", "execution_classes",
                    "analyses_run", "truncated_paths", "witnesses",
                    "solver_stats")
        a = check_program(name="mp_paired", engine="enum")
        b = check_program(name="mp_paired", engine="sat")
        assert a["ok"] and b["ok"]
        assert a["result"]["models"].keys() == b["result"]["models"].keys()
        for model in a["result"]["models"]:
            va = a["result"]["models"][model]
            vb = b["result"]["models"][model]
            assert {k: v for k, v in va.items() if k not in counting} == \
                {k: v for k, v in vb.items() if k not in counting}
            # Same printed races, whatever the per-member fan-out.
            assert {w["race"] for w in va["witnesses"]} == \
                {w["race"] for w in vb["witnesses"]}


#: One ``sat:flags_polling_dsl`` scope as the traced SAT engine emits
#: it: an ``order_cycle`` per rejected cyclic model, an ``execution`` per
#: class numbered by ``distinct``, then the scope's span closing at the
#: solver's conflict count.  Every solver event is stamped cycle 0.
_FLAGS_POLLING_SCOPE = "\n".join([
    '{"attrs":{"length":5},"component":"solver","cycle":0,"event":"order_cycle","scope":"sat:flags_polling_dsl"}',
    '{"attrs":{"distinct":1},"component":"solver","cycle":0,"event":"execution","scope":"sat:flags_polling_dsl"}',
    '{"attrs":{"length":5},"component":"solver","cycle":0,"event":"order_cycle","scope":"sat:flags_polling_dsl"}',
    '{"attrs":{"distinct":2},"component":"solver","cycle":0,"event":"execution","scope":"sat:flags_polling_dsl"}',
    '{"attrs":{"length":5},"component":"solver","cycle":0,"event":"order_cycle","scope":"sat:flags_polling_dsl"}',
    '{"attrs":{"distinct":3},"component":"solver","cycle":0,"event":"execution","scope":"sat:flags_polling_dsl"}',
    '{"attrs":{"distinct":4},"component":"solver","cycle":0,"event":"execution","scope":"sat:flags_polling_dsl"}',
    '{"attrs":{"distinct":5},"component":"solver","cycle":0,"event":"execution","scope":"sat:flags_polling_dsl"}',
    '{"attrs":{"distinct":6},"component":"solver","cycle":0,"event":"execution","scope":"sat:flags_polling_dsl"}',
    '{"component":"solver","cycle":0.0,"dur":10.0,"event":"sat:flags_polling_dsl"}',
]) + "\n"


class TestTracedSat:
    """A traced ``engine="sat"`` check records the solver's search: its
    event stream is pinned byte for byte."""

    def _traced(self, name):
        (program,) = [e.program for e in load_corpus() if e.name == name]
        tracer = Tracer()
        results = Pipeline(engine="sat", tracer=tracer).check_models(
            program, MODELS
        )
        return tracer, results

    def test_event_stream_is_pinned(self):
        tracer, results = self._traced("flags_polling_dsl")
        # The three models prepare three structures: one scope each.
        assert to_jsonl(tracer) == _FLAGS_POLLING_SCOPE * 3
        for result in results:
            assert result.engine == "sat"
            assert result.execution_classes == 6
            assert result.solver_stats.conflicts == 10
            assert result.solver_stats.shared is False

    def test_one_execution_event_per_class(self):
        tracer, results = self._traced("spinlock_dsl")
        scopes = [e for e in tracer.events if e.name == "sat:spinlock_dsl"]
        executions = [e for e in tracer.events if e.name == "execution"]
        cycles = [e for e in tracer.events if e.name == "order_cycle"]
        # One prepared structure: the three models share one enumeration.
        assert len(scopes) == 1
        result = results[0]
        assert scopes[0].dur == float(result.solver_stats.conflicts)
        assert [e.attrs["distinct"] for e in executions] == list(
            range(1, result.execution_classes + 1)
        )
        assert len(cycles) == 7
        assert all(e.cycle == 0 for e in executions + cycles)
        assert all(e.scope == "sat:spinlock_dsl" for e in executions + cycles)
