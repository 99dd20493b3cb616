"""Smoke tests for the perf harness: corpus audit and the bench CLI.

The full benchmark is run by hand (``python -m repro bench``); here
we only assert the harness runs end-to-end at tiny scale and emits a
well-formed ``BENCH_<date>.json``.  Marked ``bench`` so it can be
selected (or deselected) with ``pytest -m bench``.
"""

import json

import pytest

from repro.litmus.corpus import load_corpus
from repro.perf.audit import audit_corpus
from repro.perf.bench import bench_enumeration, run_bench, stress_programs


def test_audit_corpus_all_ok():
    results = audit_corpus(jobs=1)
    assert len(results) >= 10
    failures = [r.name for r in results if not r.ok]
    assert failures == []
    # Deterministic sorted-filename order.
    assert [r.path for r in results] == sorted(r.path for r in results)


def test_bench_enumeration_cross_checks():
    """The enumeration bench is also a correctness check: it raises if the
    engines disagree, and reports the work accounting."""
    programs = [(e.name, e.program) for e in load_corpus()[:4]]
    record = bench_enumeration(programs=programs, repeat=1)
    assert record["programs"] == 4
    assert record["paths_default"] <= record["paths_naive"]
    assert len(record["per_program"]) == 4
    for row in record["per_program"]:
        assert row["wall_s_naive"] > 0 and row["wall_s_default"] > 0


def test_stress_programs_build():
    for name, program in stress_programs():
        assert program.threads, name


@pytest.mark.bench
def test_bench_harness_emits_valid_json(tmp_path):
    programs = [(e.name, e.program) for e in load_corpus()[:3]]
    path = run_bench(
        out_dir=str(tmp_path),
        scale=0.05,
        jobs=1,
        repeat=1,
        sweep_names=("SC",),
        enum_programs=programs,
        stress=False,
        quick=True,  # shrinks the solver scaling sweep, nothing else
    )
    with open(path) as handle:
        record = json.load(handle)
    assert set(record) == {
        "date", "host", "enumeration", "relcheck", "solver", "sweep",
        "simgen", "tracing", "cache", "serve", "batch",
    }
    assert record["host"]["cpu_count"] >= 1
    relcheck = record["relcheck"]
    assert relcheck["verdicts_identical"] is True
    assert relcheck["witnesses_identical"] is True
    assert relcheck["early_exit_identical"] is True
    assert relcheck["execution_classes"] <= relcheck["executions"]
    assert set(relcheck["per_model"]) == {"drf0", "drf1", "drfrlx"}
    enum = record["enumeration"]
    assert enum["programs"] == 3
    assert enum["wall_s_naive"] > 0 and enum["wall_s_default"] > 0
    sweep = record["sweep"]
    assert sweep["csv_identical"] is True
    assert sweep["simulations"] == 6  # one workload x six configurations
    simgen = record["simgen"]
    assert simgen["csv_identical"] is True
    assert simgen["wall_s_reference"] > 0 and simgen["wall_s_compiled"] > 0
    tracing = record["tracing"]
    assert tracing["events"] > 0
    assert tracing["wall_s_untraced"] > 0
    cache = record["cache"]
    assert cache["csv_identical"] is True
    assert cache["cache_hits_warm"] == cache["cache_misses_cold"] > 0
    assert cache["speedup"] > 1.0
    assert not any("enum" in key for key in cache)
    serve = record["serve"]
    assert serve["identical"] is True
    assert serve["requests"] == serve["checks"] + serve["sweeps"]
    assert serve["speedup"] > 1.0
    assert serve["p50_ms_warm"] <= serve["p99_ms_warm"]
    solver = record["solver"]
    assert solver["corpus_verdicts_identical"] is True
    assert solver["corpus_checks"] == \
        solver["corpus_sat"] + solver["corpus_capacity_fallbacks"]
    assert solver["corpus_sat"] > 3 * solver["corpus_capacity_fallbacks"]
    assert set(solver["families"]) == {"scaled_chain", "scaled_mp"}
    for row in solver["per_program"]:
        assert row["wall_s_sat"] > 0
    assert solver["wall_s_scaling_sat"] > 0
    assert solver["wall_s_scaling_enum"] > 0
    batch = record["batch"]
    assert batch["identical"] is True
    assert batch["checks"] == batch["programs"] * batch["models"]
    assert batch["cpu_s_naive"] > 0 and batch["cpu_s_batched"] > 0


@pytest.mark.bench
def test_bench_cli_quick(tmp_path, capsys):
    """``python -m repro bench --quick`` prints every section's summary."""
    from repro.cli import main

    argv = ["bench", "--quick", "--out", str(tmp_path), "--jobs", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "enumeration:" in out and "sweep:" in out and "tracing:" in out
    assert "cache:" in out and "simgen:" in out and "relcheck:" in out
    assert "serve:" in out and "solver:" in out and "batch:" in out


class TestCompareBaseline:
    """``--baseline``: diff a bench record against an earlier one and
    warn on wall-time regressions past the threshold."""

    def _record(self, enum_default, serve_cold=0.5):
        return {
            "enumeration": {"wall_s_default": enum_default, "programs": 3},
            "serve": {"wall_s_cold": serve_cold},
        }

    def test_improvement_and_regression_lines(self):
        from repro.perf.bench import REGRESSION_THRESHOLD, compare_baseline

        lines = compare_baseline(
            self._record(enum_default=0.5, serve_cold=0.4),
            self._record(enum_default=1.0, serve_cold=0.1),
        )
        joined = "\n".join(lines)
        assert "enumeration.default: 1000.0ms -> 500.0ms (-50.0%)" in joined
        assert "serve.cold: 100.0ms -> 400.0ms (+300.0%)" in joined
        regressions = [l for l in lines if "WARNING" in l]
        assert len(regressions) == 1 and "serve.cold" in regressions[0]
        assert lines[-1] == \
            f"1 regression warning(s) past {REGRESSION_THRESHOLD:.0%}"

    def test_within_threshold_is_not_flagged(self):
        from repro.perf.bench import compare_baseline

        lines = compare_baseline(
            self._record(enum_default=1.1), self._record(enum_default=1.0)
        )
        assert not any("WARNING" in l for l in lines)
        assert "no regressions" in lines[-1]

    def test_small_absolute_jitter_is_not_flagged(self):
        # +50% relative but only +30ms absolute: below REGRESSION_FLOOR_S,
        # which keeps 1-CPU-runner timing noise out of --baseline-fail.
        from repro.perf.bench import compare_baseline

        lines = compare_baseline(
            self._record(enum_default=1.0, serve_cold=0.09),
            self._record(enum_default=1.0, serve_cold=0.06),
        )
        assert "serve.cold: 60.0ms -> 90.0ms (+50.0%)" in "\n".join(lines)
        assert not any("WARNING" in l for l in lines)

    def test_disjoint_records_degrade_gracefully(self):
        from repro.perf.bench import compare_baseline

        lines = compare_baseline({"solver": {"speedup": 9.0}}, {})
        assert lines == ["no comparable wall_s_* metrics between the records"]

    def test_keys_missing_now_are_not_regressions(self):
        """The committed baselines still time cold/warm cached
        enumerations in the ``cache`` section; that tier is gone, so
        its keys are absent from new records and must not gate."""
        import os

        from repro.perf.bench import baseline_regressions, compare_baseline

        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        with open(os.path.join(root, "BENCH_QUICK_20260808.json")) as handle:
            baseline = {"cache": json.load(handle)["cache"]}
        assert "wall_s_enum_cold" in baseline["cache"]
        record = {"cache": {
            key: value for key, value in baseline["cache"].items()
            if "enum" not in key
        }}
        lines = compare_baseline(record, baseline)
        assert not any("enum" in line for line in lines)
        assert any(line.startswith("cache.cold:") for line in lines)
        assert baseline_regressions(record, baseline) == 0

    @staticmethod
    def _solver(enum_sizes, sat_sizes, enum_s=1.0, sat_s=1.0):
        rows = [
            {"program": f"scaled_mp_unpaired_{n}", "threads": n,
             **({"wall_s_enum": enum_s} if n in enum_sizes else {}),
             **({"wall_s_sat": sat_s} if n in sat_sizes else {})}
            for n in sorted(set(enum_sizes) | set(sat_sizes))
        ]
        return {"solver": {
            "wall_s_scaling_enum": enum_s * len(enum_sizes),
            "wall_s_scaling_sat": sat_s * len(sat_sizes),
            "per_program": rows,
        }}

    def test_truncated_scaling_totals_are_uncomparable(self):
        """The enumerator reached n=8 in the baseline but only n=6 now:
        its scaling total sums fewer rows, so it is reported, not
        diffed — and never gates ``--baseline-fail``."""
        from repro.perf.bench import baseline_regressions, compare_baseline

        record = self._solver(enum_sizes=(4, 5, 6), sat_sizes=(4, 5, 6, 7, 8),
                              sat_s=3.0)
        baseline = self._solver(enum_sizes=(4, 5, 6, 7, 8),
                                sat_sizes=(4, 5, 6, 7, 8))
        lines = compare_baseline(record, baseline)
        enum_line = [l for l in lines if l.startswith("solver.scaling_enum")]
        assert enum_line == [
            "solver.scaling_enum: UNCOMPARABLE (summed over 5 baseline rows "
            "vs 3 now; the budget cut a different set of sizes)"
        ]
        # The same row set on both sides is a real timing and still gates.
        sat_line = [l for l in lines if l.startswith("solver.scaling_sat")]
        assert len(sat_line) == 1 and "WARNING" in sat_line[0]
        assert baseline_regressions(record, baseline) == 1

    def test_scaling_totals_over_equal_rows_are_diffed(self):
        from repro.perf.bench import compare_baseline

        sizes = (4, 5, 6)
        lines = compare_baseline(
            self._solver(sizes, sizes, enum_s=0.5),
            self._solver(sizes, sizes, enum_s=1.0),
        )
        assert "solver.scaling_enum: 3000.0ms -> 1500.0ms (-50.0%)" in lines
        assert not any("UNCOMPARABLE" in l for l in lines)

    def test_non_numeric_baseline_values_skipped(self):
        from repro.perf.bench import compare_baseline

        lines = compare_baseline(
            self._record(enum_default=1.0),
            {"enumeration": {"wall_s_default": "corrupt"}},
        )
        assert lines == ["no comparable wall_s_* metrics between the records"]
