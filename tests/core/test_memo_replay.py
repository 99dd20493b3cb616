"""The state re-convergence memo must actually fire (regression).

``BENCH_20260806.json`` (PR 1) recorded ``memo_hits: 0`` across the
whole corpus: the old memo key included an execution signature precise
enough to distinguish every schedule the sleep sets had not already
pruned, so the memo could never hit.  The replay memo keys on canonical
``(thread states, memory)`` alone, and programs whose threads commute
through *dependent* operations (e.g. a reference counter's balanced
increment/decrement pairs) must now collapse their re-converging
subtrees — with the execution set unchanged.
"""

import pytest

from repro.core.executions import enumerate_sc_executions
from repro.litmus.corpus import load_corpus
from repro.litmus.library import get as get_litmus

#: Library programs with commuting dependent operations (quantum RMW
#: increment/decrement pairs on one location) that re-converge.
RECONVERGING = ("ref_counter", "ref_counter_data_mark")


def _keys(enum):
    return {e.canonical_key() for e in enum.executions}


@pytest.mark.parametrize("name", RECONVERGING)
def test_memo_hits_on_reconverging_program(name):
    program = get_litmus(name).program
    enum = enumerate_sc_executions(program)
    assert enum.stats.engine == "por+memo"
    assert enum.stats.memo_hits > 0, (
        f"{name} has re-converging schedules; a dead memo is a regression"
    )


def test_memo_hits_on_corpus():
    """The memo earns its place: memo_hits > 0 over the corpus."""
    total = sum(
        enumerate_sc_executions(entry.program).stats.memo_hits
        for entry in load_corpus()
    )
    assert total > 0


@pytest.mark.parametrize("name", RECONVERGING)
def test_replay_preserves_execution_set(name):
    """Memo hits replay recorded schedules; the resulting executions must
    equal both the memo-off reduction and the naive oracle."""
    program = get_litmus(name).program
    with_memo = enumerate_sc_executions(program, memo=True)
    without = enumerate_sc_executions(program, memo=False)
    oracle = enumerate_sc_executions(program, naive=True)
    assert with_memo.stats.memo_hits > 0
    assert without.stats.memo_hits == 0
    assert _keys(with_memo) == _keys(without) == _keys(oracle)
    assert (
        with_memo.final_results()
        == without.final_results()
        == oracle.final_results()
    )


def test_memo_off_never_counts_hits():
    for entry in load_corpus():
        enum = enumerate_sc_executions(entry.program, memo=False)
        assert enum.stats.memo_hits == 0
        assert enum.stats.engine == "por"


@pytest.mark.parametrize("name", RECONVERGING)
def test_replay_stays_under_naive_work(name):
    """Replay linearizes re-converging subtrees; together with the POR it
    must still do less raw work than the unreduced oracle (the memo may
    replay a few surplus sleep-covered schedules, but never enough to
    regress past naive)."""
    program = get_litmus(name).program
    with_memo = enumerate_sc_executions(program, memo=True)
    oracle = enumerate_sc_executions(program, naive=True)
    assert with_memo.stats.steps < oracle.stats.steps
    assert with_memo.stats.completed_paths <= oracle.stats.completed_paths
