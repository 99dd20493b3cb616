"""Evaluation harness: regenerates every table and figure of the paper."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.eval.harness": (
        "CONFIG_ORDER", "Observation", "SweepResult", "bench_names", "micro_names",
        "run_figure1", "run_figure3", "run_figure4", "run_sweep",
    ),
    "repro.eval.reporting": ("generate_all", "headline_averages"),
})
