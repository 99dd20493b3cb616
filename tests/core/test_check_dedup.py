"""Corpus-wide identity of the checker's fast paths against the oracle.

The deduplicating checker (the race kernel over one representative per
race-signature class) and the early-exit witness mode must be
observationally identical to the per-execution oracle, ``dedup=False``,
which classifies every execution with
:class:`repro.core.races.RaceAnalysis`: same verdicts on every
(program, model) pair, and — for the exhaustive modes — the same
``(execution index, race)`` witness sequence.
"""

import pytest

from repro.core.model import MODELS, check
from repro.core.races import race_signature
from repro.litmus.corpus import load_corpus

CORPUS = load_corpus()


def _witness_trace(result):
    return [(w.execution_index, repr(w.race)) for w in result.witnesses]


@pytest.mark.parametrize("model", MODELS)
def test_dedup_dense_matches_pairs_oracle(model):
    for entry in CORPUS:
        oracle = check(entry.program, model, dedup=False)
        fast = check(entry.program, model, dedup=True)
        assert fast.legal == oracle.legal, entry.name
        assert _witness_trace(fast) == _witness_trace(oracle), entry.name
        assert fast.executions_explored == oracle.executions_explored
        # Dedup never analyzes more executions than exist, and the class
        # count is what the analysis count is capped by.
        assert fast.analyses_run <= fast.executions_explored
        assert fast.analyses_run <= fast.execution_classes


@pytest.mark.parametrize("model", MODELS)
def test_early_exit_matches_verdict(model):
    for entry in CORPUS:
        oracle = check(entry.program, model, dedup=False)
        early = check(entry.program, model, dedup=True, exhaustive=False)
        assert early.legal == oracle.legal, entry.name
        assert len(early.witnesses) <= 1
        if not oracle.legal:
            # The early witness is the oracle's first witness.
            assert _witness_trace(early)[0] == _witness_trace(oracle)[0]


def test_dedup_collapses_quantum_fanout():
    """The signature ignores final registers, so the havoc fan-out of a
    quantum-equivalent program collapses into far fewer classes."""
    entry = next(e for e in CORPUS if e.name == "ref_counter_dsl")
    result = check(entry.program, "drfrlx", dedup=True)
    assert result.execution_classes < result.executions_explored


def test_signature_equality_is_interleaving_independent():
    """Executions differing only in the order of non-conflicting events
    share a signature; the shared intern dict keeps ids stable."""
    from repro.core.executions import enumerate_sc_executions
    from repro.core.model import _prepare

    entry = CORPUS[0]
    enum = enumerate_sc_executions(_prepare(entry.program, "drf1"))
    intern = {}
    sigs = [race_signature(ex, intern) for ex in enum.executions]
    # Recomputing under a fresh shared dict gives the same partition.
    intern2 = {}
    sigs2 = [race_signature(ex, intern2) for ex in enum.executions]
    part = {}
    for i, s in enumerate(sigs):
        part.setdefault(s, []).append(i)
    part2 = {}
    for i, s in enumerate(sigs2):
        part2.setdefault(s, []).append(i)
    assert sorted(part.values()) == sorted(part2.values())
