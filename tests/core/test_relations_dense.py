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

@st.composite
def indexed_pairs(draw, n_relations=1, universe=universe_st):
    """A universe size plus *n_relations* random pair sets over it."""
    n = draw(universe)
    pair_st = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rels = tuple(
        draw(st.frozensets(pair_st, max_size=3 * n)) for _ in range(n_relations)
    )
    return n, rels


def both(n, pairs):
    """The same relation as a DenseRelation and as the pair-set oracle."""
    index = EventIndex(range(n))
    return index.relation(pairs), Relation(pairs)


def agree(fast, oracle):
    assert isinstance(fast, DenseRelation)
    assert fast.pairs == oracle.pairs
    assert fast == oracle  # cross-backend __eq__
    assert len(fast) == len(oracle)
    assert bool(fast) == bool(oracle)


class TestOperatorEquivalence:
    @given(case=indexed_pairs(2))
    @settings(max_examples=80, deadline=None)
    def test_union_intersection_difference(self, case):
        n, (p, q) = case
        da, oa = both(n, p)
        db, ob = both(n, q)
        agree(da | db, oa | ob)
        agree(da & db, oa & ob)
        agree(da - db, oa - ob)

    @given(case=indexed_pairs(2))
    @settings(max_examples=80, deadline=None)
    def test_compose(self, case):
        n, (p, q) = case
        da, oa = both(n, p)
        db, ob = both(n, q)
        assert da.compose(db).pairs == oa.compose(ob).pairs

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, case):
        n, (p,) = case
        fast, oracle = both(n, p)
        agree(fast.inverse(), oracle.inverse())

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_transitive_closure(self, case):
        n, (p,) = case
        fast, oracle = both(n, p)
        agree(fast.transitive_closure(), oracle.transitive_closure())

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_closure_of_forward_dag(self, case):
        # The DAG fast path: all edges point id-forward.
        n, (p,) = case
        forward = frozenset((a, b) for a, b in p if a < b)
        fast, oracle = both(n, forward)
        agree(fast.transitive_closure(), oracle.transitive_closure())

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_is_acyclic(self, case):
        n, (p,) = case
        fast, oracle = both(n, p)
        assert fast.is_acyclic() == oracle.is_acyclic()

    @given(case=indexed_pairs(), first=st.sets(st.integers(0, 63), max_size=16),
           second=st.sets(st.integers(0, 63), max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_restrict(self, case, first, second):
        n, (p,) = case
        fast, oracle = both(n, p)
        agree(
            fast.restrict(first, second),
            oracle.restrict(first, second),
        )

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_domain_codomain_elements_successors(self, case):
        n, (p,) = case
        fast, oracle = both(n, p)
        assert fast.domain() == oracle.domain()
        assert fast.codomain() == oracle.codomain()
        assert fast.elements() == oracle.elements()
        for node in range(n):
            assert fast.successors(node) == oracle.successors(node)

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_filter(self, case):
        n, (p,) = case
        fast, oracle = both(n, p)
        pred = lambda a, b: (a + b) % 2 == 0
        agree(fast.filter(pred), oracle.filter(pred))

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_reflexive_closure_over(self, case):
        n, (p,) = case
        fast, oracle = both(n, p)
        domain = range(n)
        assert (
            fast.reflexive_closure_over(domain).pairs
            == oracle.reflexive_closure_over(domain).pairs
        )

    @given(case=indexed_pairs())
    @settings(max_examples=80, deadline=None)
    def test_membership_and_iteration(self, case):
        n, (p,) = case
        fast, oracle = both(n, p)
        assert sorted(fast) == sorted(oracle)
        for pair in p:
            assert pair in fast
        assert (n, n) not in fast  # element outside the universe


class TestTileBoundary:
    """Universes past 64 elements: multi-word rows with a ragged tail."""

    @given(case=indexed_pairs(2, universe=wide_universe_st))
    @settings(max_examples=30, deadline=None)
    def test_algebra_past_one_tile(self, case):
        n, (p, q) = case
        da, oa = both(n, p)
        db, ob = both(n, q)
        agree(da | db, oa | ob)
        agree(da & db, oa & ob)
        agree(da - db, oa - ob)
        assert da.compose(db).pairs == oa.compose(ob).pairs
        agree(da.inverse(), oa.inverse())

    @given(case=indexed_pairs(universe=wide_universe_st))
    @settings(max_examples=20, deadline=None)
    def test_closure_and_acyclicity_past_one_tile(self, case):
        n, (p,) = case
        fast, oracle = both(n, p)
        agree(fast.transitive_closure(), oracle.transitive_closure())
        assert fast.is_acyclic() == oracle.is_acyclic()

    @pytest.mark.parametrize("n", (65, 128, 129))
    def test_empty_relation(self, n):
        fast, oracle = both(n, frozenset())
        agree(fast, oracle)
        agree(fast.transitive_closure(), oracle)
        assert fast.is_acyclic()
        assert not fast.domain()

    @pytest.mark.parametrize("n", (65, 130))
    def test_full_relation(self, n):
        full = frozenset((a, b) for a in range(n) for b in range(n))
        fast, oracle = both(n, full)
        agree(fast, oracle)
        agree(fast.transitive_closure(), oracle)
        assert not fast.is_acyclic()
        agree(fast.inverse(), oracle)
        assert fast.compose(fast).pairs == full


class TestOperatorSequences:
    """Identical multi-step operator pipelines in both representations."""

    @given(case=indexed_pairs(3))
    @settings(max_examples=60, deadline=None)
    def test_closure_of_union_minus_compose(self, case):
        n, (p, q, r) = case
        dp, op_ = both(n, p)
        dq, oq = both(n, q)
        dr, or_ = both(n, r)
        fast = ((dp | dq).transitive_closure() - dr.compose(dp)).inverse()
        oracle = ((op_ | oq).transitive_closure() - or_.compose(op_)).inverse()
        assert fast.pairs == oracle.pairs

    @given(case=indexed_pairs(2))
    @settings(max_examples=60, deadline=None)
    def test_acyclicity_of_combined(self, case):
        n, (p, q) = case
        dp, op_ = both(n, p)
        dq, oq = both(n, q)
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
