"""CSV export of figure data, for plotting outside the library.

Each figure's series becomes one CSV with an explicit header; the files
load directly into pandas/gnuplot/spreadsheets.
"""

from __future__ import annotations

import csv
import io
from typing import Mapping, Sequence

from repro.energy.model import COMPONENTS
from repro.eval.harness import CONFIG_ORDER, SweepResult


def time_csv(sweep: SweepResult) -> str:
    """Figure 3a/4a: normalized execution time, one row per workload."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["workload", *CONFIG_ORDER])
    for wl in sweep.workloads():
        norm = sweep.normalized_time(wl)
        writer.writerow([wl] + [f"{norm[c]:.4f}" for c in CONFIG_ORDER])
    return out.getvalue()


def energy_csv(sweep: SweepResult) -> str:
    """Figure 3b/4b: normalized energy per component (stacked bars)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["workload", "config", *COMPONENTS, "total"])
    for wl in sweep.workloads():
        energy = sweep.normalized_energy(wl)
        for cfg in CONFIG_ORDER:
            parts = energy[cfg]
            writer.writerow(
                [wl, cfg]
                + [f"{parts[comp]:.4f}" for comp in COMPONENTS]
                + [f"{sum(parts.values()):.4f}"]
            )
    return out.getvalue()


def speedup_csv(speedups: Mapping[str, float]) -> str:
    """Figure 1: relaxed-over-SC speedups."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["workload", "speedup"])
    for name, value in speedups.items():
        writer.writerow([name, f"{value:.4f}"])
    return out.getvalue()


def series_csv(series: Mapping[str, Sequence], x_name: str) -> str:
    """Sensitivity sweeps: config -> [(x, cycles), ...]."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["config", x_name, "cycles"])
    for cfg, values in sorted(series.items()):
        for x, cycles in values:
            writer.writerow([cfg, x, f"{cycles:.1f}"])
    return out.getvalue()
