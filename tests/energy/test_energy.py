"""Energy model: component decomposition and arithmetic properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.model import COMPONENTS, DEFAULT_ENERGY_MODEL, EnergyModel, normalized_breakdown
from repro.obs import metrics as S
from repro.obs.metrics import MetricSet


def stats_with(**counters):
    s = MetricSet()
    for k, v in counters.items():
        s.bump(k, v)
    return s


class TestBreakdown:
    def test_components_present(self):
        b = DEFAULT_ENERGY_MODEL.breakdown(MetricSet())
        assert set(b) == set(COMPONENTS)
        assert all(v == 0.0 for v in b.values())

    def test_l1_component_includes_invalidations(self):
        base = DEFAULT_ENERGY_MODEL.breakdown(stats_with(l1_access=10))["l1"]
        with_inval = DEFAULT_ENERGY_MODEL.breakdown(
            stats_with(l1_access=10, l1_invalidate=5)
        )["l1"]
        assert with_inval > base

    def test_network_scales_with_flit_hops(self):
        m = DEFAULT_ENERGY_MODEL
        one = m.breakdown(stats_with(noc_flit_hops=1))["network"]
        ten = m.breakdown(stats_with(noc_flit_hops=10))["network"]
        assert ten == pytest.approx(10 * one)

    def test_total_is_sum(self):
        s = stats_with(core_op=100, l1_access=50, l2_access=20, noc_flit_hops=200)
        m = DEFAULT_ENERGY_MODEL
        assert m.total(s) == pytest.approx(sum(m.breakdown(s).values()))

    def test_l2_atomics_cost_more_than_reads(self):
        m = DEFAULT_ENERGY_MODEL
        read = m.breakdown(stats_with(l2_access=10))["l2"]
        atomics = m.breakdown(stats_with(l2_atomic=10))["l2"]
        assert atomics > read


class TestNormalization:
    def test_normalized_breakdown(self):
        s = stats_with(core_op=100)
        m = DEFAULT_ENERGY_MODEL
        norm = normalized_breakdown(s, baseline_total=m.total(s))
        assert sum(norm.values()) == pytest.approx(1.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalized_breakdown(MetricSet(), baseline_total=0.0)


@given(
    st.dictionaries(
        st.sampled_from([S.CORE_OP, S.L1_ACCESS, S.L2_ACCESS, S.NOC_FLIT_HOPS,
                         S.SCRATCH_ACCESS, S.L1_ATOMIC, S.L2_ATOMIC, S.L1_INVALIDATE]),
        st.floats(0, 1e6),
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_energy_nonnegative_and_monotone(counters):
    s = MetricSet()
    for k, v in counters.items():
        s.bump(k, v)
    m = DEFAULT_ENERGY_MODEL
    total = m.total(s)
    assert total >= 0
    s.bump(S.CORE_OP, 1)
    assert m.total(s) >= total


def test_stats_merge_and_repr():
    a = stats_with(core_op=1)
    b = stats_with(core_op=2, l1_access=3)
    a.merge(b)
    assert a.get("core_op") == 3
    assert "core_op" in repr(a)
    assert a.as_dict()["l1_access"] == 3
