"""Shared fixtures for the figure/table regeneration benchmarks.

Every benchmark regenerates one paper artifact end-to-end at a reduced
scale (the full-scale regeneration is ``python -m repro figures``).
``benchmark.pedantic(..., rounds=1)`` is used for the multi-second sweeps
so pytest-benchmark does not multiply them.
"""

import pytest

#: Input scale for benchmark runs (full evaluation uses 1.0).
BENCH_SCALE = 0.25


@pytest.fixture
def bench_scale():
    return BENCH_SCALE
