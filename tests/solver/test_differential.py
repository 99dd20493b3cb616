"""Differential validation: solver-backed checking vs the enumerator.

The SAT engine must be observationally identical to the explicit
enumerator: same execution sets (with ``expand_registers=True``), same
legality verdicts, same race kinds, and — on the litmus corpus — the
byte-identical printed witnesses the audit reports.  Random small
programs (hypothesis) probe the encoding's corners — havoc loads, RMW
chains, speculative stores — and a full-corpus sweep pins every litmus
test under every model, treating the encoder's documented capacity
fallback as a skip, not a failure.

Witness identity is compared with an uncapped witness budget: the
checker's default ``max_witnesses=32`` truncates in enumeration order,
which legitimately differs between engines, so comparing capped lists
would turn a pure ordering difference into a spurious mismatch.  What
the engines must (and do) agree on, byte-for-byte, is the full set of
printed race witnesses — :func:`repro.core.races.race_signature`
guarantees every member of an execution class analyzes identically, so
representative choice cannot leak into the printed races (it can leak
into the witnessing *trace*, which is why traces are validated for
well-formedness rather than compared across engines).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executions import enumerate_sc_executions
from repro.core.labels import AtomicKind
from repro.core.model import MODELS, _prepare, check, classify_enumeration
from repro.litmus.ast import load, rmw, store
from repro.litmus.corpus import load_corpus
from repro.litmus.library import all_tests, scaled_chain, scaled_mp
from repro.litmus.program import Program
from repro.solver import SolverCapacityError, sat_enumeration

LOCS = ("x", "y")
KINDS = (
    AtomicKind.DATA,
    AtomicKind.PAIRED,
    AtomicKind.UNPAIRED,
    AtomicKind.COMMUTATIVE,
    AtomicKind.NON_ORDERING,
    AtomicKind.SPECULATIVE,
    AtomicKind.QUANTUM,
)


@st.composite
def small_programs(draw):
    n_threads = draw(st.integers(2, 3))
    threads = []
    for tid in range(n_threads):
        body = []
        for k in range(draw(st.integers(1, 3))):
            loc = draw(st.sampled_from(LOCS))
            kind = draw(st.sampled_from(KINDS))
            shape = draw(st.integers(0, 2))
            if shape == 0:
                body.append(store(loc, draw(st.integers(1, 2)), kind))
            elif shape == 1:
                body.append(load(f"r{tid}_{k}", loc, kind))
            else:
                body.append(rmw(f"r{tid}_{k}", loc, "add", 1, kind))
        threads.append(body)
    return Program("random_diff", threads)


def _race_identity(witness):
    """Orientation-insensitive identity of one witnessed race."""
    race = witness.race
    return (race.kind, frozenset((repr(race.first), repr(race.second))))


def assert_engines_agree(program, model):
    """The identity contract for one (program, model) pair."""
    prepared = _prepare(program, model)
    enum = enumerate_sc_executions(prepared)
    sat = sat_enumeration(prepared, expand_registers=True)

    enum_keys = {e.canonical_key() for e in enum.executions}
    sat_keys = {e.canonical_key() for e in sat.executions}
    assert enum_keys == sat_keys, (
        f"{program.name}/{model}: execution sets differ "
        f"(enum={len(enum_keys)}, sat={len(sat_keys)})"
    )

    # Uncapped witness budget: the default ``max_witnesses=32`` truncates
    # in enumeration order, which differs between engines and would turn
    # a pure ordering difference into a spurious witness mismatch.
    e_wit, e_classes, _ = classify_enumeration(
        enum, model, max_witnesses=1_000_000
    )
    s_wit, s_classes, _ = classify_enumeration(
        sat, model, max_witnesses=1_000_000
    )
    assert e_classes == s_classes
    assert bool(e_wit) == bool(s_wit)
    assert sorted(w.race.kind for w in e_wit) == \
        sorted(w.race.kind for w in s_wit)
    # The racy operation pairs must agree regardless of which class
    # member either engine happened to analyze (localizes a failure
    # better than the full byte compare below).
    assert {_race_identity(w) for w in e_wit} == \
        {_race_identity(w) for w in s_wit}, f"{program.name}/{model}"
    # Witnesses byte-identical, not merely equivalent: the printed
    # races (kind, both operations, their T orientation) match
    # exactly — this is what the corpus audit reports.
    assert sorted(repr(w.race) for w in e_wit) == \
        sorted(repr(w.race) for w in s_wit), f"{program.name}/{model}"
    # Every witness indexes a real execution of its own enumeration.
    for wit, enumeration in ((e_wit, enum), (s_wit, sat)):
        for w in wit:
            assert 0 <= w.execution_index < len(enumeration.executions)


@given(small_programs())
@settings(max_examples=40, deadline=None)
def test_random_programs_agree_under_every_model(program):
    for model in MODELS:
        try:
            assert_engines_agree(program, model)
        except SolverCapacityError:
            continue  # documented fallback: model.check reroutes to enum


@given(small_programs())
@settings(max_examples=15, deadline=None)
def test_check_verdicts_identical_on_random_programs(program):
    """End-to-end through ``model.check``: the public verdict surface
    (legal, race kinds) is engine-invariant, and every witness either
    engine produces is structurally valid.  ``engine="sat"`` absorbs
    capacity fallbacks itself, so no skip is needed here."""
    for model in MODELS:
        a = check(program, model, engine="enum")
        b = check(program, model, engine="sat")
        assert (a.legal, a.race_kinds) == (b.legal, b.race_kinds)
        assert bool(a.witnesses) == bool(b.witnesses)
        for result in (a, b):
            for w in result.witnesses:
                assert w.race.kind in result.race_kinds


def test_full_corpus_differential():
    """Every litmus test, library and on-disk corpus, under every model,
    byte-identical witnesses; capacity fallbacks (deep RMW chains,
    seqlock loops) are counted and skipped by design."""
    mismatches = []
    skipped = 0
    checked = 0
    programs = [(t.name, t.program) for t in all_tests()]
    programs += [(e.name, e.program) for e in load_corpus()]
    for name, program in programs:
        for model in MODELS:
            try:
                assert_engines_agree(program, model)
                checked += 1
            except SolverCapacityError:
                skipped += 1
            except AssertionError as exc:
                mismatches.append(f"{name}/{model}: {exc}")
    assert not mismatches, mismatches
    # The caps must not swallow the corpus: the overwhelming majority of
    # tests go through the solver.
    assert checked > 3 * skipped, (checked, skipped)


def test_scaling_families_agree():
    """The scaling families at every size the enumerator finishes in a
    second or two, all models."""
    for n in (2, 3, 4, 5, 6):
        for program in (scaled_mp(n), scaled_chain(n)):
            for model in MODELS:
                assert_engines_agree(program, model)
