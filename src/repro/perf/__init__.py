"""Performance layer: parallel execution and result caching.

- :mod:`repro.perf.pool` — process-pool fan-out with chunked dispatch,
  a reused warm executor, probe-based serial fallback and deterministic
  ordering (``REPRO_JOBS`` env override).
- :mod:`repro.perf.cache` — persistent content-addressed JSON cache of
  API responses and sweep cells (``REPRO_CACHE_DIR`` env override;
  entries self-invalidate when the sources that compute them change).

Speed is measured by the repository benchmark, ``e2ebench/run.py``
(``BENCHMARK.json``).  See ``docs/performance.md`` for usage, how to
measure, the partial-order-reduction soundness argument, and the cache
key composition.
"""

from repro.perf.cache import ResultCache, code_fingerprint, resolve_cache
from repro.perf.pool import parallel_map, resolve_jobs

__all__ = [
    "ResultCache",
    "code_fingerprint",
    "parallel_map",
    "resolve_cache",
    "resolve_jobs",
]
