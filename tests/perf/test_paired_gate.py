"""The CI paired benchmark gate (``.github/scripts/paired_gate.py``).

Its decision rule: a metric fails only when the head median is worse
than the base median by more than the metric's ``BENCHMARK.json``
bound *and* outside the base runs' interquartile range; runs alternate
which tree goes first.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, ".github", "scripts", "paired_gate.py")

spec = importlib.util.spec_from_file_location("paired_gate", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

BASE = [100.0, 98.0, 102.0, 101.0, 99.0]
LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.25}


class TestRegressed:
    def test_slower_head_fails(self):
        assert gate.regressed(LOWER, BASE, [x * 1.3 for x in BASE])

    def test_faster_head_passes(self):
        assert not gate.regressed(LOWER, BASE, [x * 0.5 for x in BASE])

    def test_within_bound_passes(self):
        assert not gate.regressed(LOWER, BASE, [x * 1.2 for x in BASE])

    def test_bound_comes_from_the_metric(self):
        tight = dict(LOWER, bound=0.1)
        assert gate.regressed(tight, BASE, [x * 1.2 for x in BASE])

    def test_inside_a_wide_base_iqr_passes(self):
        """40% worse than the base median, but the base runs themselves
        spread that far: not a regression the runs can show."""
        noisy = [60.0, 100.0, 100.0, 150.0, 160.0]
        assert not gate.regressed(LOWER, noisy, [140.0] * 5)

    def test_higher_is_better_direction(self):
        assert gate.regressed(HIGHER, BASE, [x * 0.7 for x in BASE])
        assert not gate.regressed(HIGHER, BASE, [x * 1.7 for x in BASE])


def _run(value, failed=0):
    return {
        "attempted": 10, "failed": failed,
        "metrics": {"bulk_ms": {"value": value, "unit": "ms"}},
    }


class TestGateWorkload:
    SPEC = {
        "command": ["python3", "e2ebench/run.py"], "run_seconds": 10,
        "end_to_end": [{"name": "bulk_ms", "better": "lower", "bound": 0.25}],
    }

    def _gate(self, monkeypatch, head_value, head_failed=0):
        order = []

        def fake_run(tree, command, workload, seconds):
            order.append(tree)
            if tree == "head":
                return _run(head_value, head_failed)
            return _run(100.0)

        monkeypatch.setattr(gate, "run_once", fake_run)
        monkeypatch.setattr(gate, "PAIRS", 4)
        ok = gate.gate_workload(self.SPEC, "base", "head", "w")
        return ok, order

    def test_pairs_alternate_which_side_runs_first(self, monkeypatch):
        ok, order = self._gate(monkeypatch, head_value=100.0)
        assert ok
        assert order == ["base", "head", "head", "base"] * 2

    def test_slow_head_fails_the_workload(self, monkeypatch, capsys):
        ok, _ = self._gate(monkeypatch, head_value=150.0)
        assert not ok
        assert "w bulk_ms" in capsys.readouterr().out

    def test_more_failed_operations_fail_the_workload(self, monkeypatch):
        ok, _ = self._gate(monkeypatch, head_value=100.0, head_failed=1)
        assert not ok
