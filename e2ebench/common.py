"""Shared helpers of the benchmark: paths, process isolation, statistics,
resident-set sampling and the span recorder of the traced runs.

This module never imports ``repro``: the orchestrator (``run.py``) uses it
too, and it must stay outside the system under test.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Where runs keep their scratch state (removed at exit) and their span
#: files (kept).  Both sit inside the checkout and are git-ignored.
RUN_ROOT = os.path.join(ROOT, ".bench_run")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

#: The seed used when ``--seed`` is not given.
DEFAULT_SEED = 17

#: Environment knobs of the program that would change what a run
#: measures; every process of the system under test starts without them.
ISOLATED_ENV = (
    "REPRO_TRACE",
    "REPRO_CALIBRATION",
    "REPRO_RELATION_BACKEND",
    "REPRO_CACHE",
    "REPRO_JOBS",
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def child_env(run_dir: str) -> Dict[str, str]:
    """The environment of every process of the system under test: the
    checkout's sources first on the path, the program's tuning knobs
    unset, and a cache and temporary directory owned by this run."""
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_ENV}
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    env["PYTHONHASHSEED"] = "0"
    return env


def make_run_dir(workload: str) -> str:
    path = os.path.join(RUN_ROOT, f"{workload}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_run_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(RUN_ROOT)  # only when no other run is using it
    except OSError:
        pass


# -- workers -------------------------------------------------------------------

#: Prefix of the line a worker prints once its imports and inputs are
#: ready; the orchestrator times set-up up to that line.
READY = "#ready"


def ready() -> None:
    """Signal, from a worker, that set-up is done."""
    print(READY, flush=True)


def kill_tree(pid: int) -> None:
    """SIGKILL *pid* and every live process below it."""
    for member in reversed(descendants(pid)):
        try:
            os.kill(member, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_worker(
    module: str, args: Sequence[str], env: Dict[str, str], timeout: float,
) -> dict:
    """Run ``python3 -m <module> <args>`` as a fresh interpreter and return
    its result (the JSON object on its last stdout line), with
    ``setup_s`` set to the wall time from spawn to its ready line.  A
    worker still running after *timeout* seconds is killed with its
    children, and the run fails."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", module, *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(timeout, kill_tree, (proc.pid,))
    timer.start()
    try:
        # stderr goes to a thread so neither pipe can fill and block.
        err: List[str] = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        setup_s = None
        lines: List[str] = []
        for line in proc.stdout:
            if setup_s is None and line.startswith(READY):
                setup_s = time.perf_counter() - t0
            lines.append(line)
        proc.wait()
        drain.join()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill_tree(proc.pid)
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker {module} {' '.join(args)} exited {proc.returncode}:\n"
            + "".join(err)[-4000:]
        )
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def worker_output(result: dict) -> None:
    """Print a worker's result as its last stdout line."""
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    sys.stdout.flush()


# -- statistics ----------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def best_times(samples: Iterable[Tuple[Hashable, float]]) -> Dict[Hashable, float]:
    """Each unit's best (smallest) time from ``(unit, time)`` samples.

    The host's speed drifts by a fifth or more over a few seconds, so a
    median over every sample measures the host as much as the program.
    A unit timed several times, spread over the run, has its best time
    at a quiet moment; medians and percentiles are taken over those.
    """
    best: Dict[Hashable, float] = {}
    for unit, value in samples:
        if unit not in best or value < best[unit]:
            best[unit] = value
    return best


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(round(fraction * len(ordered), 9)))
    return ordered[rank - 1]


# -- resident set --------------------------------------------------------------

def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """*pid* and every live process below it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(children.get(current, ()))
    return out


def peak_rss_mb(pid: int) -> float:
    """The largest peak resident set (VmHWM) of *pid* and its live
    descendants, in MiB."""
    return max(_status_kb(p, "VmHWM") for p in descendants(pid)) / 1024.0


# -- spans ---------------------------------------------------------------------

class Spans:
    """Spans kept in memory: (name, start, end, parent, request).

    A layer's self time is its spans' durations minus the part their
    child spans cover.  Counts recorded with :meth:`count` sit beside the
    spans, so ratios are computed where the work happens.
    """

    def __init__(self) -> None:
        self.records: List[list] = []  # [name, start_ns, end_ns, parent, request]
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self.request: Optional[str] = None

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.request]
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """*fn* with every call recorded as a span called *name*."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_ms(self) -> Dict[str, float]:
        child_ns = [0] * len(self.records)
        for name, start, end, parent, _req in self.records:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, float] = {}
        for index, (name, start, end, _parent, _req) in enumerate(self.records):
            out[name] = out.get(name, 0.0) + (end - start - child_ns[index]) / 1e6
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, req in self.records:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "request": req}
                ) + "\n")


def environment() -> Dict[str, object]:
    try:
        import importlib.util

        numpy = importlib.util.find_spec("numpy") is not None
    except (ImportError, ValueError):  # pragma: no cover
        numpy = False
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy,
    }
