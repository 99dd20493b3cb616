"""Incremental (shared-core) solving must be observationally identical
to PR 8's one-shot path.

``sat_enumeration(shared=True)`` erases labels, encodes once, keeps the
CDCL instance warm across blocking iterations and across the three
models, and decodes each model's labels back onto the shared execution
classes.  Everything a caller can observe — the execution set (with
register fan-out), the class count, the truncation flag, and even the
deterministic solver counters (decisions, conflicts, propagations,
learned clauses, restarts) — must match a fresh ``shared=False`` run
exactly, at every execution cap, resumed or cold.  Random programs
(hypothesis) probe the identity; crafted CNFs pin the clause-group
machinery the warm instance is built on.  ``TestStructuralSharing``
holds the core memo to its key: every labeling and name of one
structure shares one core, and served payloads do not depend on which
request warmed it.  ``TestSpeedup`` holds the shared core to its
reason for existing: a 3-model audit at least twice as fast as one-shot
solving.  It is a timing gate, so it runs only with
``REPRO_TIMING_GATES=1`` set (CI's solver-smoke job sets it).
"""

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, Execution
from repro.core.executions import enumerate_sc_executions
from repro.core.model import MODELS, _prepare
from repro.core.races import race_signature
from repro.litmus.corpus import load_corpus
from repro.litmus.library import SCALED_KINDS, get, scaled_chain, scaled_mp
from repro.litmus.program import structure_key
from repro.litmus.render import render
from repro.obs.metrics import RUNTIME
from repro.obs.tracer import NULL_TRACER
from repro.solver import SolverCapacityError, sat_enumeration
from repro.solver import bridge
from repro.solver.bridge import (
    SharedCore,
    _LabelCollision,
    _core_for,
    _enumerate_sat,
    clear_core_memo,
)
from repro.solver.encode import MAX_TRACES_PER_THREAD, erase_labels
from repro.solver.sat import Solver

from tests.solver.test_differential import small_programs

MP = get("mp_paired").program


def _keys(enumeration):
    return {e.canonical_key() for e in enumeration.executions}


def _observables(enumeration):
    """Everything a caller can see, minus wall-clock times."""
    stats = enumeration.solver_stats
    return {
        "keys": _keys(enumeration),
        "classes": enumeration.interleavings,
        "completed": enumeration.stats.completed_paths,
        "truncated": enumeration.truncated_paths,
        "steps": enumeration.stats.steps,
        "counters": stats.counters() if stats is not None else None,
    }


def assert_incremental_identity(program, model, max_executions=None,
                                expand_registers=True, cold=True):
    """One-shot and shared-core enumerations of one cell agree; with
    ``cold=False`` the shared side may reuse a core an earlier model of
    the same program left in the memo."""
    prepared = _prepare(program, model)
    if cold:
        clear_core_memo()
    one = sat_enumeration(
        prepared, max_executions=max_executions,
        expand_registers=expand_registers, shared=False,
    )
    inc = sat_enumeration(
        prepared, max_executions=max_executions,
        expand_registers=expand_registers, shared=True,
    )
    a, b = _observables(one), _observables(inc)
    assert a["keys"] == b["keys"], f"{program.name}/{model}"
    for field in ("classes", "completed", "truncated", "steps", "counters"):
        assert a[field] == b[field], (
            f"{program.name}/{model} cap={max_executions}: "
            f"{field} {a[field]} != {b[field]}"
        )
    assert one.solver_stats.shared is False
    assert inc.solver_stats.shared is True
    return one, inc


class TestRandomIdentity:
    @given(small_programs())
    @settings(max_examples=30, deadline=None)
    def test_uncapped_identity_under_every_model(self, program):
        for model in MODELS:
            try:
                assert_incremental_identity(program, model)
            except SolverCapacityError:
                continue  # documented fallback; model.check reroutes

    @given(small_programs(), st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_capped_identity(self, program, cap):
        """At every cap — including 0 and caps past the class count —
        the shared core serves the same prefix, counts and counters the
        one-shot loop would have produced."""
        for model in MODELS:
            try:
                assert_incremental_identity(program, model,
                                            max_executions=cap)
            except SolverCapacityError:
                continue

    @given(small_programs())
    @settings(max_examples=15, deadline=None)
    def test_sat_matches_enum_execution_sets(self, program):
        """The shared path stays identical to the *enumerator* too."""
        for model in MODELS:
            prepared = _prepare(program, model)
            clear_core_memo()
            try:
                inc = sat_enumeration(
                    prepared, expand_registers=True, shared=True,
                )
            except SolverCapacityError:
                continue
            ref = enumerate_sc_executions(prepared)
            assert _keys(ref) == _keys(inc), f"{program.name}/{model}"


class TestWarmResume:
    def test_capped_then_full_serves_identical_results(self):
        """A warm core resumed past an earlier cap must land exactly
        where a cold uncapped run lands — same classes, same counters."""
        program = scaled_mp(4)
        for model in MODELS:
            prepared = _prepare(program, model)
            clear_core_memo()
            cold = sat_enumeration(
                prepared, expand_registers=True, shared=False,
            )
            total = cold.interleavings
            clear_core_memo()
            for cap in (1, max(1, total // 2), total, total + 5):
                warm = sat_enumeration(
                    prepared, max_executions=cap,
                    expand_registers=True, shared=True,
                )
                fresh = sat_enumeration(
                    prepared, max_executions=cap,
                    expand_registers=True, shared=False,
                )
                assert _observables(warm) == _observables(fresh), (
                    f"{model} cap={cap}"
                )

    def test_cross_model_reuse_hits_the_memo(self):
        """All three models of one program map to one erased core."""
        from repro.solver.bridge import _CORE_MEMO

        clear_core_memo()
        for model in MODELS:
            sat_enumeration(_prepare(MP, model), shared=True)
        erased = {structure for structure, _max_traces in _CORE_MEMO}
        assert structure_key(erase_labels(_prepare(MP, "drf0"))) in erased
        # drf0/drf1 share a preparation; drfrlx adds quantum havoc, so at
        # most two distinct erased structures back the three models.
        assert 1 <= len(erased) <= 2


def _fields(execution):
    """Every field of an execution, events by value."""
    return (
        [
            (e.eid, e.tid, e.kind, e.loc, e.value, e.label, e.po_index,
             e.is_init)
            for e in execution.events
        ],
        execution.order,
        execution._rf_map,
        execution._rmw_pairs,
        execution._dep_edges,
        execution.final_memory,
        execution.final_registers,
        execution.rmw_info,
    )


def _fresh_copy(execution):
    """The same execution over newly built events."""
    return Execution(
        events=[
            Event(e.eid, e.tid, e.kind, e.loc, e.value, e.label, e.po_index,
                  e.is_init)
            for e in execution.events
        ],
        order=execution.order,
        rf_map=execution._rf_map,
        rmw_pairs=execution._rmw_pairs,
        dep_edges=execution._dep_edges,
        final_memory=execution.final_memory,
        final_registers=execution.final_registers,
        rmw_info=execution.rmw_info,
    )


def assert_served_executions(program):
    """Served executions equal a one-shot decode of the labeled program,
    field by field, for every class and model; one core's events are
    shared across models wherever their labels agree; and shared events
    sign exactly like fresh ones."""
    clear_core_memo()
    by_core = {}  # erased structure -> [served enumeration per model]
    for model in MODELS:
        prepared = _prepare(program, model)
        try:
            served = sat_enumeration(
                prepared, expand_registers=True, shared=True,
            )
        except SolverCapacityError:
            return
        one = _enumerate_sat(
            prepared, None, True, MAX_TRACES_PER_THREAD, NULL_TRACER,
        )
        assert [_fields(e) for e in served.executions] == \
            [_fields(e) for e in one.executions], f"{program.name}/{model}"
        if served.solver_stats.shared:
            by_core.setdefault(
                structure_key(erase_labels(prepared)), []
            ).append(served)
    for enumerations in by_core.values():
        for a, b in zip(enumerations, enumerations[1:]):
            for ex_a, ex_b in zip(a.executions, b.executions):
                for ev_a, ev_b in zip(ex_a.events, ex_b.events):
                    if ev_a.label is ev_b.label:
                        assert ev_a is ev_b, (program.name, ev_a)
                    else:
                        assert ev_a is not ev_b
    intern = {}
    for enumerations in by_core.values():
        for served in enumerations:
            for execution in served.executions:
                shared_sig = race_signature(execution, intern)
                fresh_sig = race_signature(_fresh_copy(execution), intern)
                assert shared_sig == fresh_sig, program.name


class TestServedExecutions:
    def test_corpus(self):
        for entry in load_corpus():
            assert_served_executions(entry.program)

    def test_scaled_families(self):
        for build in (scaled_mp, scaled_chain):
            for n in (2, 3):
                for kind in SCALED_KINDS.values():
                    assert_served_executions(build(n, kind))

    @given(small_programs())
    @settings(max_examples=20, deadline=None)
    def test_random_programs(self, program):
        assert_served_executions(program)

    def test_classes_share_events(self):
        """Within one served enumeration, an event at the same T position
        from the same instance is one object across classes."""
        clear_core_memo()
        served = sat_enumeration(_prepare(scaled_mp(3), "drf0"), shared=True)
        first = {}
        shared = 0
        for execution in served.executions:
            for event in execution.events:
                key = (event.eid, event.tid, event.po_index, event.kind,
                       event.loc, event.value, event.label)
                seen = first.setdefault(key, event)
                shared += seen is event
        assert shared > len(first)


class TestCoreMemo:
    def _erased(self, program):
        return erase_labels(_prepare(program, "drf0"))

    def test_capacity_errors_stay_cached(self, monkeypatch):
        """A grounding failure is memoized and re-raised on every hit.
        The memo keeps a copy that is never raised, so it carries no
        traceback pinning the frames of the call that failed."""
        def fail(self, erased, max_traces):
            raise SolverCapacityError("forced by test")

        monkeypatch.setattr(SharedCore, "__init__", fail)
        clear_core_memo()
        erased = self._erased(MP)
        for _ in range(3):
            with pytest.raises(SolverCapacityError, match="forced by test"):
                _core_for(erased, MAX_TRACES_PER_THREAD)
        (memoized,) = bridge._CORE_MEMO.values()
        assert isinstance(memoized, SolverCapacityError)
        assert memoized.__traceback__ is None
        clear_core_memo()


def _labelings(build):
    """The five ``SCALED_KINDS`` labelings of *build* at n=5: one
    structure under five names."""
    return [build(5, kind) for kind in SCALED_KINDS.values()]


class TestStructuralSharing:
    """The core memo is keyed on the label-erased, name-free structure,
    so every labeling and name of one structure shares one core."""

    @pytest.mark.parametrize("build", [scaled_mp, scaled_chain])
    def test_labelings_share_one_core(self, build):
        clear_core_memo()
        built = RUNTIME.get("solver_core_built")
        for program in _labelings(build):
            for model in MODELS:
                prepared = _prepare(program, model)
                served = sat_enumeration(prepared, shared=True)
                one = sat_enumeration(prepared, shared=False)
                assert served.program is prepared
                assert _observables(served) == _observables(one), (
                    f"{program.name}/{model}"
                )
        # The erased structure every labeling shares, plus the quantum
        # labeling's drfrlx preparation (quantum-transformed: havoc).
        assert len(bridge._CORE_MEMO) == 2
        assert RUNTIME.get("solver_core_built") - built == 2

    def test_served_payloads_do_not_depend_on_the_warming_request(self):
        """A core warmed under another name and labeling serves the
        payload a cold memo would, in either request order."""
        from repro.api import check_program, encode

        programs = _labelings(scaled_mp) + _labelings(scaled_chain)

        def payload(program):
            return encode(check_program(
                source=render(program), engine="auto", cache=False, jobs=1,
            ))

        cold = {}
        for program in programs:
            clear_core_memo()
            cold[program.name] = payload(program)
        assert all('"shared":true' in p for p in cold.values())
        for order in (programs, programs[::-1]):
            clear_core_memo()
            built = RUNTIME.get("solver_core_built")
            for program in order:
                assert payload(program) == cold[program.name], program.name
            # One core per family, plus each quantum labeling's drfrlx one.
            assert RUNTIME.get("solver_core_built") - built == 4


class TestCollisionFallback:
    def test_label_collision_falls_back_to_oneshot(self, monkeypatch):
        """If decoding detects one erased shape covering two distinct
        label vectors, the shared path must yield to the one-shot
        encoder rather than serve a wrong label."""
        calls = {"n": 0}

        def raise_collision(self, *args, **kwargs):
            calls["n"] += 1
            raise _LabelCollision("forced by test")

        monkeypatch.setattr(SharedCore, "serve", raise_collision)
        clear_core_memo()
        prepared = _prepare(MP, "drfrlx")
        inc = sat_enumeration(prepared, expand_registers=True, shared=True)
        one = sat_enumeration(prepared, expand_registers=True, shared=False)
        assert calls["n"] >= 1
        assert _observables(inc) == _observables(one)
        assert inc.solver_stats.shared is False  # fell back for real

    def test_erasure_preserves_structure_and_havoc(self):
        """Label erasure must keep everything except labels — notably
        the quantum havoc domains ``Program.relabel`` drops."""
        from repro.solver.encode import label_kinds, static_memory_ops

        prepared = _prepare(MP, "drfrlx")
        erased = erase_labels(prepared)
        ops = static_memory_ops(prepared)
        erased_ops = static_memory_ops(erased)
        assert len(ops) == len(erased_ops)
        for op, erased_op in zip(ops, erased_ops):
            assert op.havoc == erased_op.havoc
            assert op.loc == erased_op.loc
        assert len(set(label_kinds(erased))) == 1  # all DATA


class TestClauseGroups:
    """Crafted-CNF soundness of the machinery the warm core rests on."""

    def test_retracted_group_stops_constraining(self):
        s = Solver()
        x = s.new_var()
        g = s.new_group()
        s.add_clause([-x], group=g)
        assert s.solve()
        assert s.value(x) is False  # group active: ~x forced
        s.retract_group(g)
        s.add_clause([x])
        assert s.solve()  # would be UNSAT had the group survived
        assert s.value(x) is True

    def test_core_lemmas_survive_group_retraction(self):
        """Learnt clauses derived from ungrouped (core) clauses alone
        must keep pruning after a group is retracted; lemmas that used a
        grouped clause carry the negated activation literal and retire
        with the group.  Soundness check: retracting the group restores
        exactly the core problem's models."""
        s = Solver()
        a, b, c = (s.new_var() for _ in range(3))
        # Core: a -> b, b -> c (implication chain).
        s.add_clause([-a, b])
        s.add_clause([-b, c])
        g = s.new_group()
        s.add_clause([a], group=g)   # group forces the chain to fire
        s.add_clause([-c], group=g)  # ...and contradicts its conclusion
        assert not s.solve()         # active group: UNSAT
        s.retract_group(g)
        assert s.solve()             # core alone is satisfiable again
        # The chain still propagates: assuming a forces c.
        assert s.solve(assumptions=[a])
        assert s.value(a) and s.value(b) and s.value(c)
        # And the core still rejects a without c.
        s.add_clause([a])
        s.add_clause([-c])
        assert not s.solve()

    def test_blocking_clauses_in_groups_are_retractable(self):
        """The AllSAT pattern the shared core uses: enumerate models,
        block each in a group, then retract to recover the original
        model count."""

        def count_models(solver, nvars, group):
            seen = 0
            while solver.solve():
                model = [solver.value(v + 1) for v in range(nvars)]
                seen += 1
                blocking = [
                    -(v + 1) if val else (v + 1)
                    for v, val in enumerate(model)
                ]
                solver.add_clause(blocking, group=group)
                if seen > 8:  # safety: 2 vars -> at most 4 models
                    break
            return seen

        s = Solver()
        s.new_var()
        s.new_var()
        g1 = s.new_group()
        assert count_models(s, 2, g1) == 4
        s.retract_group(g1)
        g2 = s.new_group()
        assert count_models(s, 2, g2) == 4  # blocks fully recovered


class TestStatsSurface:
    def test_solver_stats_counters_are_deterministic_ints(self):
        clear_core_memo()
        inc = sat_enumeration(_prepare(MP, "drf0"), shared=True)
        counters = inc.solver_stats.counters()
        assert set(counters) == {
            "decisions", "conflicts", "propagations", "restarts",
            "learned", "classes",
        }
        assert all(isinstance(v, int) for v in counters.values())
        # Deterministic: the same check replays to the same counters.
        clear_core_memo()
        again = sat_enumeration(_prepare(MP, "drf0"), shared=True)
        assert again.solver_stats.counters() == counters

    def test_encode_and_solve_times_are_recorded(self):
        clear_core_memo()
        inc = sat_enumeration(_prepare(MP, "drf0"), shared=True)
        assert inc.solver_stats.encode_s > 0.0
        assert inc.solver_stats.solve_s >= 0.0


def _audit_seconds(programs, shared):
    """Wall time of the 3-model sat audit of *programs*; the shared-core
    side starts from a cold core memo, as a fresh process would."""
    if shared:
        clear_core_memo()
    t0 = time.perf_counter()
    for program in programs:
        for model in MODELS:
            sat_enumeration(_prepare(program, model), shared=shared)
    return time.perf_counter() - t0


def _sat_eligible_corpus():
    """The corpus programs whose three models all fit the solver."""
    eligible = []
    for entry in load_corpus():
        try:
            for model in MODELS:
                sat_enumeration(_prepare(entry.program, model), shared=False)
        except SolverCapacityError:
            continue
        eligible.append(entry.program)
    return eligible


#: Both scaling families at the size the speedup target is set at.
FAMILIES = (scaled_chain(8), scaled_mp(8))


class TestAuditIdentity:
    def test_shared_core_audit_matches_one_shot_and_enum(self):
        """The inputs ``TestSpeedup`` times: the SAT-eligible corpus
        (also against the enumerator) and both scaling families at
        n=8, each program's models served in turn from one warm core."""
        for program in _sat_eligible_corpus():
            clear_core_memo()
            for model in MODELS:
                _, inc = assert_incremental_identity(program, model,
                                                     cold=False)
                ref = enumerate_sc_executions(_prepare(program, model))
                assert _keys(inc) == _keys(ref), f"{program.name}/{model}"
        for program in FAMILIES:
            clear_core_memo()
            for model in MODELS:
                assert_incremental_identity(program, model, cold=False,
                                            expand_registers=False)


class TestSpeedup:
    #: Minimum shared-core speedup over one-shot solving, per audit set.
    TARGET = 2.0
    #: Interleaved one-shot/shared rounds; each side keeps its best.
    REPEAT = 5

    @pytest.mark.bench
    @pytest.mark.skipif(
        not os.environ.get("REPRO_TIMING_GATES"),
        reason="timing gate: needs a quiet host, run by CI's solver-smoke "
               "job (set REPRO_TIMING_GATES=1)",
    )
    def test_shared_core_audit_is_twice_as_fast_as_one_shot(self):
        """The 3-model sat audit of the SAT-eligible corpus and of each
        scaling family at n=8, one-shot against one warm core per
        program."""
        speedups = {}
        for name, programs in [("corpus", _sat_eligible_corpus())] + [
            (program.name, [program]) for program in FAMILIES
        ]:
            one = inc = float("inf")
            for _ in range(self.REPEAT):
                one = min(one, _audit_seconds(programs, shared=False))
                inc = min(inc, _audit_seconds(programs, shared=True))
            speedups[name] = one / inc
        assert min(speedups.values()) >= self.TARGET, speedups
