"""Evaluation harness: regenerates every table and figure of the paper."""

from repro.eval.harness import (
    CONFIG_ORDER,
    Observation,
    SweepResult,
    bench_names,
    micro_names,
    run_figure1,
    run_figure3,
    run_figure4,
    run_sweep,
)
from repro.eval.reporting import generate_all, headline_averages

__all__ = [
    "CONFIG_ORDER",
    "Observation",
    "SweepResult",
    "bench_names",
    "generate_all",
    "headline_averages",
    "micro_names",
    "run_figure1",
    "run_figure3",
    "run_figure4",
    "run_sweep",
]
