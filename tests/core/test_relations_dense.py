"""Property-based equivalence of the dense bitset backend against the
pair-set oracle.

Every operator of the relational algebra is driven through identical
random operand sequences in the per-row Python-int dense bitsets and
the frozenset oracle; the results must agree pair-for-pair.  Element
universes go up to 64 events in the operator sweep and past 64 in the
word-boundary sweep, so multi-word Python-int rows are covered.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relations import DenseRelation, EventIndex, Relation

#: A universe of up to 64 interned elements; pairs index into it.
universe_st = st.integers(min_value=2, max_value=64)

#: Universes crossing the 64-bit word boundary (two or three words,
#: with a partially-filled last word in almost every draw).
wide_universe_st = st.integers(min_value=65, max_value=160)

#: The indexed backends under test.
INDEXED = ("dense",)


@st.composite
def indexed_pairs(draw, n_relations=1, universe=universe_st):
    """A universe size plus *n_relations* random pair sets over it."""
    n = draw(universe)
    pair_st = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rels = tuple(
        draw(st.frozensets(pair_st, max_size=3 * n)) for _ in range(n_relations)
    )
    return n, rels


def both(n, pairs, backend):
    """The same relation in *backend* and the pair-set oracle."""
    index = EventIndex(range(n))
    return index.relation(pairs), Relation(pairs)


def agree(fast, oracle, backend):
    assert isinstance(fast, DenseRelation)
    assert fast.pairs == oracle.pairs
    assert fast == oracle  # cross-backend __eq__
    assert len(fast) == len(oracle)
    assert bool(fast) == bool(oracle)


@pytest.mark.parametrize("backend", INDEXED)
class TestOperatorEquivalence:
    @given(case=indexed_pairs(2))
    @settings(max_examples=80, deadline=None)
    def test_union_intersection_difference(self, backend, case):
        n, (p, q) = case
        da, oa = both(n, p, backend)
        db, ob = both(n, q, backend)
        agree(da | db, oa | ob, backend)
        agree(da & db, oa & ob, backend)
        agree(da - db, oa - ob, backend)

    @given(case=indexed_pairs(2))
    @settings(max_examples=80, deadline=None)
    def test_compose(self, backend, case):
        n, (p, q) = case
        da, oa = both(n, p, backend)
        db, ob = both(n, q, backend)
        assert da.compose(db).pairs == oa.compose(ob).pairs

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, backend, case):
        n, (p,) = case
        fast, oracle = both(n, p, backend)
        agree(fast.inverse(), oracle.inverse(), backend)

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_transitive_closure(self, backend, case):
        n, (p,) = case
        fast, oracle = both(n, p, backend)
        agree(fast.transitive_closure(), oracle.transitive_closure(), backend)

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_closure_of_forward_dag(self, backend, case):
        # The DAG fast path: all edges point id-forward.
        n, (p,) = case
        forward = frozenset((a, b) for a, b in p if a < b)
        fast, oracle = both(n, forward, backend)
        agree(fast.transitive_closure(), oracle.transitive_closure(), backend)

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_is_acyclic(self, backend, case):
        n, (p,) = case
        fast, oracle = both(n, p, backend)
        assert fast.is_acyclic() == oracle.is_acyclic()

    @given(case=indexed_pairs(), first=st.sets(st.integers(0, 63), max_size=16),
           second=st.sets(st.integers(0, 63), max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_restrict(self, backend, case, first, second):
        n, (p,) = case
        fast, oracle = both(n, p, backend)
        agree(
            fast.restrict(first, second),
            oracle.restrict(first, second),
            backend,
        )

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_domain_codomain_elements_successors(self, backend, case):
        n, (p,) = case
        fast, oracle = both(n, p, backend)
        assert fast.domain() == oracle.domain()
        assert fast.codomain() == oracle.codomain()
        assert fast.elements() == oracle.elements()
        for node in range(n):
            assert fast.successors(node) == oracle.successors(node)

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_filter(self, backend, case):
        n, (p,) = case
        fast, oracle = both(n, p, backend)
        pred = lambda a, b: (a + b) % 2 == 0
        agree(fast.filter(pred), oracle.filter(pred), backend)

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_reflexive_closure_over(self, backend, case):
        n, (p,) = case
        fast, oracle = both(n, p, backend)
        domain = range(n)
        assert (
            fast.reflexive_closure_over(domain).pairs
            == oracle.reflexive_closure_over(domain).pairs
        )

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_membership_and_iteration(self, backend, case):
        n, (p,) = case
        fast, oracle = both(n, p, backend)
        assert sorted(fast) == sorted(oracle)
        for pair in p:
            assert pair in fast
        assert (n, n) not in fast  # element outside the universe


@pytest.mark.parametrize("backend", INDEXED)
class TestTileBoundary:
    """Universes past 64 elements: multi-word rows with a ragged tail."""

    @given(case=indexed_pairs(2, universe=wide_universe_st))
    @settings(max_examples=30, deadline=None)
    def test_algebra_past_one_tile(self, backend, case):
        n, (p, q) = case
        da, oa = both(n, p, backend)
        db, ob = both(n, q, backend)
        agree(da | db, oa | ob, backend)
        agree(da & db, oa & ob, backend)
        agree(da - db, oa - ob, backend)
        assert da.compose(db).pairs == oa.compose(ob).pairs
        agree(da.inverse(), oa.inverse(), backend)

    @given(case=indexed_pairs(universe=wide_universe_st))
    @settings(max_examples=20, deadline=None)
    def test_closure_and_acyclicity_past_one_tile(self, backend, case):
        n, (p,) = case
        fast, oracle = both(n, p, backend)
        agree(fast.transitive_closure(), oracle.transitive_closure(), backend)
        assert fast.is_acyclic() == oracle.is_acyclic()

    @pytest.mark.parametrize("n", (65, 128, 129))
    def test_empty_relation(self, backend, n):
        fast, oracle = both(n, frozenset(), backend)
        agree(fast, oracle, backend)
        agree(fast.transitive_closure(), oracle, backend)
        assert fast.is_acyclic()
        assert not fast.domain()

    @pytest.mark.parametrize("n", (65, 130))
    def test_full_relation(self, backend, n):
        full = frozenset((a, b) for a in range(n) for b in range(n))
        fast, oracle = both(n, full, backend)
        agree(fast, oracle, backend)
        agree(fast.transitive_closure(), oracle, backend)
        assert not fast.is_acyclic()
        agree(fast.inverse(), oracle, backend)
        assert fast.compose(fast).pairs == full


class TestOperatorSequences:
    """Identical multi-step operator pipelines in every backend."""

    @pytest.mark.parametrize("backend", INDEXED)
    @given(case=indexed_pairs(3))
    @settings(max_examples=60, deadline=None)
    def test_closure_of_union_minus_compose(self, backend, case):
        n, (p, q, r) = case
        dp, op_ = both(n, p, backend)
        dq, oq = both(n, q, backend)
        dr, or_ = both(n, r, backend)
        fast = ((dp | dq).transitive_closure() - dr.compose(dp)).inverse()
        oracle = ((op_ | oq).transitive_closure() - or_.compose(op_)).inverse()
        assert fast.pairs == oracle.pairs

    @pytest.mark.parametrize("backend", INDEXED)
    @given(case=indexed_pairs(2))
    @settings(max_examples=60, deadline=None)
    def test_acyclicity_of_combined(self, backend, case):
        n, (p, q) = case
        dp, op_ = both(n, p, backend)
        dq, oq = both(n, q, backend)
        assert (dp | dq).is_acyclic() == (op_ | oq).is_acyclic()


class TestEventIndex:
    def test_duplicate_elements_are_interned_once(self):
        index = EventIndex([1, 1, 2, 2, 3])
        assert len(index) == 3
        assert index.id_of(3) == 2

    def test_unknown_pair_element_raises(self):
        index = EventIndex([1, 2])
        with pytest.raises(KeyError):
            index.relation([(1, 99)])
