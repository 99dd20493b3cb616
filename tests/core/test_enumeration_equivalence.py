"""The POR enumeration engine against the naive oracle.

The default engine (sleep-set partial-order reduction + copy-on-write
path prefixes) must produce exactly the same execution set as the
original full-clone interleaver on every program we have: the litmus
library, the on-disk corpus, a few stress programs and a slice of a fuzz
campaign.  Every program takes the reduction, however small, so the
tiny fuzz programs meet the oracle here execution by execution, not
only verdict by verdict as in the fuzz campaign.  ``naive=True`` is the
escape hatch that selects the oracle.
"""

import pytest

from repro.core.executions import enumerate_sc_executions
from repro.core.model import check
from repro.litmus import load, store
from repro.litmus.corpus import load_corpus
from repro.litmus.fuzz import generate_program
from repro.litmus.library import all_tests
from repro.litmus.program import Program

LIBRARY = [(t.name, t.program) for t in all_tests()]
CORPUS = [(e.name, e.program) for e in load_corpus()]

#: Programs that scale the interleaving space the way the reduction
#: targets: several threads of mostly independent operations, where the
#: naive engine pays the full multinomial interleaving count — disjoint
#: writers ((N*M)!/(M!^N) interleavings, one canonical execution) and
#: message passing beside an independent bystander thread.
STRESS = [
    (f"stress-disjoint-{n}x{m}", Program("stress", [
        [store(f"x{t}", k + 1) for k in range(m)] for t in range(n)
    ]))
    for n, m in ((3, 3), (4, 2))
] + [
    ("stress-mp-bystander", Program("stress", [
        [store("data", 1), store("flag", 1)],
        [load("r0", "flag"), load("r1", "data")],
        [store("z0", 1), store("z1", 1), store("z2", 1)],
    ])),
]
#: A slice of fuzz campaign 17: small random programs over threads,
#: locations, the five relaxed-atomic classes, branches and RMWs.
FUZZ = [(p.name, p) for p in (generate_program(17, i) for i in range(60))]
ALL_PROGRAMS = LIBRARY + CORPUS + STRESS + FUZZ

#: Library programs whose threads commute through *dependent* operations
#: (quantum RMW increment/decrement pairs on one location).
RECONVERGING = ("ref_counter", "ref_counter_data_mark")


def _summary(enum):
    return {e.canonical_key() for e in enum.executions}


@pytest.mark.parametrize(
    "name,program", ALL_PROGRAMS, ids=[n for n, _ in ALL_PROGRAMS]
)
def test_default_engine_matches_naive_oracle(name, program):
    naive = enumerate_sc_executions(program, naive=True)
    opt = enumerate_sc_executions(program)
    assert _summary(opt) == _summary(naive)
    assert opt.final_results() == naive.final_results()
    # The reduction prunes redundant truncating paths too, so only the
    # "some path hit a loop bound" flag must agree, not the count.
    assert (opt.truncated_paths > 0) == (naive.truncated_paths > 0)
    assert opt.stats.completed_paths <= naive.stats.completed_paths


def test_reduction_actually_prunes():
    """On the whole library the reduction must explore strictly fewer
    paths than the naive engine (otherwise it is dead code), and take
    fewer steps even on programs whose schedules re-converge through
    dependent operations."""
    naive_paths = opt_paths = pruned = 0
    for _, program in ALL_PROGRAMS:
        naive_paths += enumerate_sc_executions(program, naive=True).stats.completed_paths
        opt = enumerate_sc_executions(program)
        opt_paths += opt.stats.completed_paths
        pruned += opt.stats.por_pruned
    assert opt_paths < naive_paths
    assert pruned > 0
    for name in RECONVERGING:
        program = dict(LIBRARY)[name]
        opt = enumerate_sc_executions(program)
        assert opt.stats.steps < enumerate_sc_executions(program, naive=True).stats.steps


def test_stats_engine_labels():
    for _, program in ALL_PROGRAMS:
        assert enumerate_sc_executions(program).stats.engine == "por"
    _, program = ALL_PROGRAMS[0]
    assert enumerate_sc_executions(program, naive=True).stats.engine == "naive"


def test_max_executions_still_bounds():
    for _, program in LIBRARY[:5]:
        bounded = enumerate_sc_executions(program, max_executions=1)
        assert len(bounded.executions) == 1


@pytest.mark.parametrize("model", ["drf0", "drf1", "drfrlx"])
def test_check_naive_escape_hatch_agrees(model):
    """`check(..., naive=True)` runs the whole model checker on the oracle
    engine and must reach the same verdicts."""
    for entry in load_corpus()[:6]:
        fast = check(entry.program, model)
        slow = check(entry.program, model, naive=True)
        assert fast.legal == slow.legal, entry.name
        assert fast.race_kinds == slow.race_kinds, entry.name
