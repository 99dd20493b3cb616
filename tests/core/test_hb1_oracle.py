"""happens-before-1 on bitmask rows against the pair-set algebra.

:attr:`repro.core.races.RaceAnalysis.hb1` closes ``(po | so1)+``
(Section 2.3.2) in one reverse pass over dense rows.  Here the same
relation is built from the paper's definitions on frozen pair sets —
po from thread and program-text position, so1 from the
synchronization labels and the SC total order T — and closed by the
:class:`repro.core.relations.Relation` oracle, on every execution of
the corpus and of a fuzz campaign under each model.
"""

import pytest

from repro.core.executions import enumerate_sc_executions
from repro.core.labels import SYNC_READ_KINDS, SYNC_WRITE_KINDS
from repro.core.model import MODELS, _prepare
from repro.core.races import RaceAnalysis
from repro.core.relations import Relation
from repro.litmus.corpus import load_corpus
from repro.litmus.fuzz import generate_program

PROGRAMS = [entry.program for entry in load_corpus()] + [
    generate_program(17, i) for i in range(60)
]


def _po_pairs(ex):
    events = ex.program_events
    return {
        (a, b) for a in events for b in events
        if a.tid == b.tid and a.po_index < b.po_index
    }


def _so1_pairs(ex):
    events = ex.program_events
    return {
        (w, r) for w in events for r in events
        if w.is_write and w.label in SYNC_WRITE_KINDS
        and r.is_read and r.label in SYNC_READ_KINDS
        and w.loc == r.loc and ex.t_before(w, r)
    }


@pytest.mark.parametrize("model", MODELS)
def test_hb1_matches_pair_set_closure(model):
    checked = 0
    for program in PROGRAMS:
        enumeration = enumerate_sc_executions(_prepare(program, model))
        for ex in enumeration.executions:
            po, so1 = _po_pairs(ex), _so1_pairs(ex)
            analysis = RaceAnalysis(ex)
            assert ex.po.pairs == po, program.name
            assert analysis.so1.pairs == so1, program.name
            expected = (Relation(po) | Relation(so1)).transitive_closure()
            assert analysis.hb1.pairs == expected.pairs, program.name
            checked += 1
    assert checked > len(PROGRAMS)
