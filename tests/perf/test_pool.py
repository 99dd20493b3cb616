"""Pool scheduling: auto-sizing, strided dispatch, cold-pool probe fallback."""

import os

import pytest

from repro.perf import pool
from repro.perf.pool import (
    JOBS_ENV,
    parallel_map,
    resolve_jobs,
    shutdown_executor,
    warm_worker_count,
)


def _double(x):
    return x * 2


def _pid(_task):
    return os.getpid()


@pytest.fixture(autouse=True)
def no_jobs_env(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)


class TestAutoSizing:
    """Satellite: jobs=None on a 1-CPU host (or a grid smaller than the
    worker count) must resolve to serial."""

    def test_single_cpu_resolves_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_jobs() == 1
        assert resolve_jobs(n_tasks=100) == 1

    def test_grid_smaller_than_workers_resolves_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(n_tasks=4) == 1

    def test_grid_at_least_workers_uses_them(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(n_tasks=8) == 8
        assert resolve_jobs(n_tasks=None) == 8

    def test_explicit_jobs_not_clamped(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_jobs(4, n_tasks=2) == 4

    def test_env_override_not_clamped(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(n_tasks=2) == 3

    def test_cpu_count_unavailable(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs() == 1


class TestChunking:
    """One strided chunk per worker (``tasks[k::workers]``), results back
    in input order; serial shapes ship nothing."""

    @pytest.mark.parametrize(
        "n_tasks,jobs,expected",
        [(12, 4, 3), (13, 4, 4), (10, 3, 4), (7, 3, 3), (1, 8, 1), (8, 1, 8), (0, 4, 1)],
    )
    def test_one_chunk_per_worker(self, monkeypatch, n_tasks, jobs, expected):
        shipped = []

        class RecordingPool:
            def map(self, fn, chunks):
                shipped.extend(chunks)
                return [fn(chunk) for chunk in chunks]

        monkeypatch.setattr(pool, "_acquire_executor", lambda workers: RecordingPool())
        tasks = list(range(n_tasks))
        out = parallel_map(_double, tasks, jobs=jobs, probe=False)
        assert out == [x * 2 for x in tasks]
        if jobs <= 1 or n_tasks <= 1:
            assert shipped == []
        else:
            assert shipped == [tasks[k::jobs] for k in range(jobs)]
            assert max(map(len, shipped)) == expected

    def test_real_pool_returns_input_order(self):
        shutdown_executor()
        try:
            out = parallel_map(_double, list(range(7)), jobs=3, probe=False)
            assert out == [x * 2 for x in range(7)]
        finally:
            shutdown_executor()


class TestProbeFallback:
    def test_cheap_tasks_never_touch_the_pool(self, monkeypatch):
        def boom(workers):
            raise AssertionError("pool dispatched for un-amortizable work")

        monkeypatch.setattr(pool, "_get_executor", boom)
        out = parallel_map(_double, list(range(50)), jobs=4, probe=True)
        assert out == [x * 2 for x in range(50)]

    def test_probe_preserves_order_and_results(self):
        out = parallel_map(_double, [3, 1, 2], jobs=2, probe=True)
        assert out == [6, 2, 4]

    def test_jobs_one_serial(self):
        assert parallel_map(_double, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_single_task_serial(self, monkeypatch):
        def boom(workers):
            raise AssertionError("pool dispatched for one task")

        monkeypatch.setattr(pool, "_get_executor", boom)
        assert parallel_map(_double, [21], jobs=8) == [42]

    def test_cold_pool_probes_in_the_caller(self):
        shutdown_executor()
        try:
            out = parallel_map(_pid, list(range(4)), jobs=2)
            assert out[0] == os.getpid()
        finally:
            shutdown_executor()

    def test_warm_pool_runs_no_task_in_the_caller(self):
        shutdown_executor()
        try:
            pool.ensure_executor(jobs=2)
            out = parallel_map(_pid, list(range(4)), jobs=2)
            assert os.getpid() not in out
        finally:
            shutdown_executor()


class TestWarmExecutor:
    def test_dispatch_reuses_warm_executor(self):
        shutdown_executor()
        try:
            assert warm_worker_count() == 0
            first = parallel_map(_double, [1, 2, 3, 4], jobs=2, probe=False)
            assert first == [2, 4, 6, 8]
            assert warm_worker_count() == 2
            second = parallel_map(_double, [5, 6, 7, 8], jobs=2, probe=False)
            assert second == [10, 12, 14, 16]
            assert warm_worker_count() == 2
        finally:
            shutdown_executor()
        assert warm_worker_count() == 0


class TestServiceExecutor:
    """Satellite: the long-lived-service pool path — lazy start, warm
    reuse without downsizing, and warm-aware auto resolution."""

    def test_ensure_executor_serial_is_none(self):
        shutdown_executor()
        assert pool.ensure_executor(jobs=1) is None
        assert pool.warm_worker_count() == 0

    def test_ensure_executor_lazily_starts_and_reuses(self):
        shutdown_executor()
        try:
            first = pool.ensure_executor(jobs=2)
            assert first is not None
            assert pool.warm_worker_count() == 2
            assert pool.ensure_executor(jobs=2) is first
        finally:
            shutdown_executor()

    def test_ensure_executor_resizes_on_new_count(self):
        shutdown_executor()
        try:
            pool.ensure_executor(jobs=2)
            pool.ensure_executor(jobs=3)
            assert pool.warm_worker_count() == 3
        finally:
            shutdown_executor()

    def test_acquire_does_not_downsize_a_warm_pool(self):
        shutdown_executor()
        try:
            big = pool.ensure_executor(jobs=3)
            assert pool._acquire_executor(2) is big
            assert pool.warm_worker_count() == 3
        finally:
            shutdown_executor()

    def test_acquire_grows_a_small_pool(self):
        shutdown_executor()
        try:
            pool.ensure_executor(jobs=2)
            pool._acquire_executor(3)
            assert pool.warm_worker_count() == 3
        finally:
            shutdown_executor()

    def test_resolve_jobs_prefer_warm_skips_small_grid_clamp(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        shutdown_executor()
        try:
            pool.ensure_executor(jobs=2)
            # A service request with fewer shards than workers still
            # dispatches to the warm pool...
            assert resolve_jobs(prefer_warm=True, n_tasks=1) == 2
            # ...while one-shot auto resolution keeps the clamp.
            assert resolve_jobs(n_tasks=4) == 1
        finally:
            shutdown_executor()

    def test_prefer_warm_without_a_pool_falls_through(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        shutdown_executor()
        assert resolve_jobs(prefer_warm=True) == 8

    def test_explicit_jobs_beats_prefer_warm(self, monkeypatch):
        shutdown_executor()
        try:
            pool.ensure_executor(jobs=2)
            assert resolve_jobs(4, prefer_warm=True) == 4
        finally:
            shutdown_executor()

    def test_warm_dispatch_runs_shards(self):
        shutdown_executor()
        try:
            executor = pool.ensure_executor(jobs=2)
            assert list(executor.map(_double, [1, 2, 3])) == [2, 4, 6]
        finally:
            shutdown_executor()
