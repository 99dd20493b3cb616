"""Parallel sweep execution: identical results, worker plumbing, registries."""

import dataclasses

import pytest

from repro.eval.export import energy_csv, time_csv
from repro.eval.harness import (
    CONFIG_ORDER,
    SweepResult,
    bench_names,
    micro_names,
    run_sweep,
)
from repro.perf.pool import JOBS_ENV, parallel_map, resolve_jobs
from repro.workloads.base import (
    BENCH_NAMES,
    FIGURE1_NAMES,
    MICRO_NAMES,
    all_workloads,
)

SCALE = 0.1
NAMES = ("SC", "SEQ")


@pytest.fixture(scope="module")
def serial():
    return run_sweep(NAMES, scale=SCALE)


@pytest.fixture(scope="module")
def parallel(serial):
    return run_sweep(NAMES, scale=SCALE, jobs=2)


class TestParallelEqualsSerial:
    def test_same_observation_sets(self, serial, parallel):
        assert set(serial.observations) == set(parallel.observations)
        for key, obs in serial.observations.items():
            assert dataclasses.asdict(obs) == dataclasses.asdict(
                parallel.observations[key]
            ), key

    def test_same_insertion_order(self, serial, parallel):
        """Deterministic result ordering, not just the same set."""
        assert list(serial.observations) == list(parallel.observations)

    def test_csv_artifacts_byte_identical(self, serial, parallel):
        assert time_csv(serial) == time_csv(parallel)
        assert energy_csv(serial) == energy_csv(parallel)

    def test_warm_pool_sweep_runs_no_cell_in_the_caller(self, serial):
        from repro.eval import harness
        from repro.perf import pool

        harness._CELL_MEMO.clear()
        pool.shutdown_executor()
        try:
            pool.ensure_executor(jobs=2)
            warm = run_sweep(NAMES, scale=SCALE, jobs=2)
            assert harness._CELL_MEMO == {}
        finally:
            pool.shutdown_executor()
        assert time_csv(warm) == time_csv(serial)
        assert energy_csv(warm) == energy_csv(serial)

    def test_jobs_one_serial_path(self, serial):
        one = run_sweep(NAMES, scale=SCALE, jobs=1)
        assert set(one.observations) == set(serial.observations)
        for key, obs in serial.observations.items():
            assert obs.cycles == one.observations[key].cycles


class TestJobResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs() == 5

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_unpicklable_tasks_fall_back_to_serial(self):
        tasks = [lambda: 1, lambda: 2]  # lambdas cannot cross the pool
        out = parallel_map(lambda f: f(), tasks, jobs=2)
        assert out == [1, 2]


class TestPartialSweepErrors:
    def test_missing_pair_named_in_keyerror(self, serial):
        with pytest.raises(KeyError, match=r"'UTS'.*'GD0'"):
            serial.get("UTS", "GD0")

    def test_average_reduction_names_missing_pair(self, serial):
        partial = SweepResult()
        partial.add(serial.get("SC", "GD0"))  # GD1 missing for SC
        with pytest.raises(KeyError, match=r"'SC'.*'GD1'"):
            partial.average_reduction("GD1")
        with pytest.raises(KeyError, match=r"'SC'.*'GD1'"):
            partial.average_energy_reduction("GD1")


class TestWorkloadRegistry:
    """Workload-name lists come from one registry, not scattered literals."""

    def test_harness_names_are_the_registry_constants(self):
        assert micro_names() == MICRO_NAMES
        assert bench_names() == BENCH_NAMES

    def test_registry_names_all_registered(self):
        registered = {w.name for w in all_workloads()}
        for name in MICRO_NAMES + BENCH_NAMES:
            assert name in registered, name

    def test_figure1_names_drawn_from_registry(self):
        assert set(FIGURE1_NAMES) <= set(MICRO_NAMES) | set(BENCH_NAMES)

    def test_no_duplicates(self):
        for names in (MICRO_NAMES, BENCH_NAMES, FIGURE1_NAMES):
            assert len(set(names)) == len(names)


def test_config_order_matches_abbreviations():
    from repro.sim.system import CONFIG_ABBREV

    assert set(CONFIG_ORDER) == set(CONFIG_ABBREV.values())
