"""The typed metrics registry."""

import pathlib
import re

import pytest

import repro
from repro.obs import metrics as M
from repro.obs.metrics import Metric, MetricSet, all_metrics, describe, lookup, metric


class TestMetric:
    def test_is_a_string(self):
        assert M.L1_ACCESS == "l1_access"
        assert isinstance(M.L1_ACCESS, str)
        assert {M.L1_ACCESS: 1}["l1_access"] == 1  # plain-string keying

    def test_carries_metadata(self):
        assert M.L1_ACCESS.component == "l1"
        assert M.NOC_FLIT_HOPS.unit == "flit-hops"
        assert M.DRAM_ACCESS.doc

    def test_registration_is_idempotent(self):
        again = metric("l1_access", component="bogus")
        assert again is M.L1_ACCESS
        assert again.component == "l1"  # first registration wins

    def test_lookup_unregistered_gives_other_component(self):
        m = lookup("no_such_counter")
        assert isinstance(m, Metric) and m.component == "other"
        assert "no_such_counter" not in {str(x) for x in all_metrics()}

    def test_describe_mentions_component_and_doc(self):
        text = describe([M.L2_ACCESS, "mystery"])
        assert "l2_access [l2, events]" in text
        assert "mystery [other, events]" in text


class TestMetricSetFloatCoercion:
    """Regression for the historical int/float inconsistency: ``get``
    returned 0.0 for absent names but int for counters bumped with
    integer amounts.  Values are now floats from ``bump`` onward."""

    @pytest.mark.parametrize("cls", [MetricSet])
    def test_int_bumps_coerce_to_float(self, cls):
        stats = cls()
        stats.bump(M.L1_ACCESS)           # default amount (1)
        stats.bump(M.L1_ACCESS, 2)        # int amount
        assert stats.get(M.L1_ACCESS) == 3.0
        assert isinstance(stats.get(M.L1_ACCESS), float)
        assert isinstance(stats.counters[M.L1_ACCESS], float)

    @pytest.mark.parametrize("cls", [MetricSet])
    def test_absent_and_present_same_type(self, cls):
        stats = cls()
        stats.bump("x", 5)
        assert type(stats.get("x")) is type(stats.get("absent"))

    def test_as_dict_values_are_float(self):
        stats = MetricSet()
        stats.bump("a", 1)
        stats.bump("b", 2.5)
        assert all(isinstance(v, float) for v in stats.as_dict().values())


class TestMetricSet:
    def test_merge_accumulates(self):
        a, b = MetricSet(), MetricSet()
        a.bump("x", 1)
        b.bump("x", 2)
        b.bump("y", 3)
        a.merge(b)
        assert a.get("x") == 3.0 and a.get("y") == 3.0

    def test_by_component_groups_registered_names(self):
        stats = MetricSet()
        stats.bump(M.L1_HIT, 4)
        stats.bump(M.L2_ACCESS, 2)
        stats.bump("custom_counter", 1)
        grouped = stats.by_component()
        assert grouped["l1"] == {"l1_hit": 4.0}
        assert grouped["l2"] == {"l2_access": 2.0}
        assert grouped["other"] == {"custom_counter": 1.0}

    def test_repr_names_the_concrete_class(self):
        assert repr(MetricSet()).startswith("MetricSet(")


class TestSimulatorCounters:
    def test_every_simulator_counter_is_registered(self):
        """Every ``S.NAME`` counter the simulator and the energy model
        bump resolves to a registered metric."""
        registered = {str(m) for m in all_metrics()}
        root = pathlib.Path(repro.__file__).parent
        names = set()
        for package in ("sim", "energy"):
            for path in (root / package).rglob("*.py"):
                names.update(re.findall(r"\bS\.([A-Z][A-Z0-9_]+)\b", path.read_text()))
        assert names
        for name in sorted(names):
            value = getattr(M, name)
            assert isinstance(value, Metric), name
            assert str(value) in registered, name
