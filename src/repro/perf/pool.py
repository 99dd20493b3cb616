"""Process-pool fan-out with deterministic ordering and serial fallback.

The evaluation sweeps are embarrassingly parallel: every (workload,
configuration) simulation is independent.  :func:`parallel_map` runs a
top-level worker function over a task list with a
:class:`~concurrent.futures.ProcessPoolExecutor`, preserving input order
so downstream artifacts (figure CSVs, tables) are byte-identical to a
serial run.

Dispatch granularity and fallback (what makes small grids *not* slower
than serial):

- Tasks are shipped in **one strided chunk per worker**: chunk ``k`` is
  ``tasks[k::workers]``, so per-task pickle/IPC overhead is paid once
  per worker instead of once per task, and a workload-major grid gives
  every worker an even share of each workload's configurations.
- The executor is **created once and reused** across calls, so only the
  first parallel dispatch in a process pays worker startup.
- Only when a call would have to start or grow the pool does
  :func:`parallel_map` first run one task serially as a **probe**; if
  the measured per-task cost says the remaining work cannot amortize
  pool startup, the whole map runs serially.  ~30 ms simulations on a
  2-worker pool used to come out 0.86x *slower* than serial; now they
  fall back.  A warm pool dispatches at once, so no worker idles while
  the caller runs a task.

Worker count resolution (:func:`resolve_jobs`):

1. an explicit ``jobs`` argument wins;
2. else the ``REPRO_JOBS`` environment variable;
3. else ``os.cpu_count()`` — clamped to serial when the host has a
   single CPU or the task grid is smaller than the worker count (a
   pool cannot win either case; pass ``jobs=N`` explicitly to force
   one).

``jobs=1`` (or a single task) runs serially in-process.  Tasks that
cannot be shipped to a worker process — unpicklable payloads, or
workloads registered only in the parent process — fall back to the serial
path instead of failing, so custom user workloads keep working.
"""

from __future__ import annotations

import atexit
import functools
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable overriding the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Estimated wall-clock cost of bringing up a fresh worker pool
#: (process spawn + interpreter warmup).  The probe compares the
#: projected serial remainder against ``COLD_START_COST_S * jobs /
#: (jobs - 1)`` — the break-even point of a perfectly parallel run.
COLD_START_COST_S = 0.25

_executor: Optional[ProcessPoolExecutor] = None
_executor_workers: int = 0


def resolve_jobs(
    jobs: Optional[int] = None,
    n_tasks: Optional[int] = None,
    prefer_warm: bool = False,
) -> int:
    """Resolve the worker count: argument > ``REPRO_JOBS`` > cpu count.

    In the auto-resolved case (no argument, no environment override) the
    cpu-count default is clamped to ``1`` (serial) when the host has a
    single CPU or when *n_tasks* is given and the grid is smaller than
    the worker count — with fewer than one task per worker, per-worker
    startup cost exceeds what parallelism can recover for the short
    tasks these sweeps run.  Explicit ``jobs=N`` and ``REPRO_JOBS`` are
    always honored.

    ``prefer_warm=True`` is the long-lived-service mode: when the shared
    executor is already warm, the auto case resolves to its worker count
    and skips the small-grid clamp — dispatching to a pool that is
    already up costs ~nothing, so the startup-amortization argument
    behind the clamp does not apply (see :func:`ensure_executor`).
    """
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer, got {env!r}"
            ) from None
    if prefer_warm and _executor is not None and _executor_workers > 1:
        return _executor_workers
    auto = os.cpu_count() or 1
    if auto <= 1:
        return 1
    if n_tasks is not None and n_tasks < auto:
        return 1
    return auto


def _picklable(tasks: Sequence) -> bool:
    try:
        pickle.dumps(tasks)
        return True
    except Exception:
        return False


def _get_executor(workers: int) -> ProcessPoolExecutor:
    """The shared warm executor, (re)created when the size changes."""
    global _executor, _executor_workers
    if _executor is None or _executor_workers != workers:
        shutdown_executor()
        _executor = ProcessPoolExecutor(max_workers=workers)
        _executor_workers = workers
    return _executor


def _acquire_executor(workers: int) -> ProcessPoolExecutor:
    """A warm executor with **at least** *workers* workers.

    Unlike :func:`_get_executor`, an already-warm larger pool is reused
    as-is instead of being torn down and rebuilt smaller: a long-lived
    service sized for peak traffic must not cycle its pool every time a
    small grid comes through (``pool.map`` with fewer chunks than
    workers simply leaves the extra workers idle).
    """
    if _executor is not None and _executor_workers >= workers:
        return _executor
    return _get_executor(workers)


def ensure_executor(jobs: Optional[int] = None) -> Optional[ProcessPoolExecutor]:
    """Lazily start (or resize) the shared warm executor; service entry.

    Resolves a worker count (argument > ``REPRO_JOBS`` > cpu count,
    without the small-grid clamp — a service sizes for traffic, not for
    one request) and returns the warm executor, creating or resizing it
    only when the resolved count differs from the current pool.  Returns
    ``None`` when the count resolves to serial (single-CPU host or
    ``jobs=1``): callers should then run work inline instead of paying
    pool overhead that cannot amortize.

    A long-lived process calls this once at startup (and again to
    resize); afterwards every dispatch — :func:`parallel_map` or direct
    ``run_in_executor``/``submit`` — reuses the warm pool without
    re-probing the serial fallback.
    """
    workers = resolve_jobs(jobs, prefer_warm=True)
    if workers <= 1:
        return None
    return _get_executor(workers)


def warm_worker_count() -> int:
    """The shared executor's worker count (0 when no pool is up)."""
    return _executor_workers if _executor is not None else 0


def shutdown_executor() -> None:
    """Tear down the shared executor (tests; interpreter exit)."""
    global _executor, _executor_workers
    if _executor is not None:
        _executor.shutdown(wait=False, cancel_futures=True)
        _executor = None
        _executor_workers = 0


atexit.register(shutdown_executor)


def _apply_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> List[R]:
    """One worker's share of a :func:`parallel_map` call."""
    return [fn(task) for task in chunk]


def parallel_map(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    jobs: Optional[int] = None,
    probe: bool = True,
) -> List[R]:
    """Apply *fn* to every task, in parallel when it pays off.

    Results come back in task order regardless of completion order.  *fn*
    must be a module-level function (picklable by reference).  Falls back
    to a serial map for ``jobs=1``, one task, unpicklable tasks, when a
    call that would start or grow the pool finds, by running the first
    task in-process, that the grid is too cheap to amortize that startup
    (``probe=False`` disables the cost check and always dispatches), or
    when the worker pool fails in a way a serial run can report better
    (e.g. a workload registered only in the parent process).
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs, n_tasks=len(tasks))
    if jobs <= 1 or len(tasks) <= 1 or not _picklable(tasks):
        return [fn(task) for task in tasks]

    head: List[R] = []
    if probe and warm_worker_count() < min(jobs, len(tasks)):
        t0 = time.perf_counter()
        head.append(fn(tasks[0]))
        per_task = time.perf_counter() - t0
        tasks = tasks[1:]
        workers = min(jobs, len(tasks))
        # Parallel wall ~= startup + serial/jobs; it wins only when the
        # remaining serial work exceeds startup * j / (j - 1).
        if workers <= 1 or per_task * len(tasks) <= (
            COLD_START_COST_S * workers / (workers - 1)
        ):
            return head + [fn(task) for task in tasks]

    workers = min(jobs, len(tasks))
    try:
        pool = _acquire_executor(workers)
        chunks = [tasks[k::workers] for k in range(workers)]
        results: List = [None] * len(tasks)
        for k, chunk in enumerate(
            pool.map(functools.partial(_apply_chunk, fn), chunks)
        ):
            results[k::workers] = chunk
        return head + results
    except (BrokenProcessPool, pickle.PicklingError, KeyError, AttributeError, OSError):
        # Reproduce (or succeed) serially; genuine errors re-raise here
        # with a clean single-process traceback.  A broken pool is torn
        # down so the next call starts fresh.
        shutdown_executor()
        return head + [fn(task) for task in tasks]
