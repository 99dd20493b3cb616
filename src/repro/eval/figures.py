"""Regenerate the paper's figures as data series + ASCII bar charts.

The paper's figures are bar charts; we emit the same series as numbers
(CSV-able rows) and render quick ASCII bars for eyeballing.  Figure 2 is
a semantics artifact (two litmus executions), regenerated from the
checker rather than the simulator.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.model import check
from repro.eval.harness import (
    CONFIG_ORDER,
    SweepResult,
    run_figure1,
    run_figure3,
    run_figure4,
)
from repro.litmus.library import get as get_litmus
from repro.perf.cache import CacheSpec


def _bar(value: float, scale: float = 40.0, full: float = 1.0) -> str:
    n = max(0, int(round(value / full * scale / 2)))
    return "#" * n


def render_time_figure(sweep: SweepResult, title: str) -> str:
    """Part (a): execution time normalized to GD0."""
    lines = [f"{title} — execution time (normalized to GD0)"]
    for wl in sweep.workloads():
        lines.append(f"  {wl}:")
        for cfg, value in sweep.normalized_time(wl).items():
            lines.append(f"    {cfg}  {value:5.2f}  {_bar(value)}")
    return "\n".join(lines)


def render_energy_figure(sweep: SweepResult, title: str) -> str:
    """Part (b): energy normalized to GD0, stacked by component."""
    lines = [f"{title} — energy (normalized to GD0; core/scratch/L1/L2/NoC)"]
    for wl in sweep.workloads():
        lines.append(f"  {wl}:")
        for cfg, parts in sweep.normalized_energy(wl).items():
            total = sum(parts.values())
            stack = " ".join(f"{k}={v:.2f}" for k, v in parts.items())
            lines.append(f"    {cfg}  {total:5.2f}  [{stack}]")
    return "\n".join(lines)


def figure1(
    scale: float = 1.0,
    jobs: Optional[int] = None,
    cache: CacheSpec = None,
) -> Tuple[Dict[str, float], str]:
    """Figure 1: relaxed vs SC atomic speedup on the discrete GPU."""
    speedups = run_figure1(scale, jobs=jobs, cache=cache)
    lines = ["Figure 1 — relaxed-atomics speedup over SC atomics (discrete GPU)"]
    for name, s in speedups.items():
        lines.append(f"  {name:8s} {s:6.2f}x  {_bar(s, full=2.0)}")
    return speedups, "\n".join(lines)


def figure2() -> str:
    """Figure 2: the two example executions with/without a non-ordering
    race, regenerated from the programmer-centric checker."""
    lines = ["Figure 2 — non-ordering race example"]
    for name, expectation in (("figure2a", "non-ordering race"), ("figure2b", "race absolved by valid path")):
        result = check(get_litmus(name).program, "drfrlx")
        verdict = "ILLEGAL" if not result.legal else "legal"
        kinds = ",".join(result.race_kinds) or "none"
        lines.append(
            f"  ({name[-1]}) {name}: {verdict} under DRFrlx; races: {kinds}"
            f"  [expected: {expectation}]"
        )
        for witness in result.witnesses[:2]:
            lines.append(f"      witness: {witness.race!r}")
    return "\n".join(lines)


def figure3(
    scale: float = 1.0,
    jobs: Optional[int] = None,
    trace_dir: Optional[str] = None,
    cache: CacheSpec = None,
    engine: str = "auto",
) -> Tuple[SweepResult, str]:
    sweep = run_figure3(
        scale, jobs=jobs, trace_dir=trace_dir, cache=cache, engine=engine
    )
    text = (
        render_time_figure(sweep, "Figure 3(a): microbenchmarks")
        + "\n\n"
        + render_energy_figure(sweep, "Figure 3(b): microbenchmarks")
    )
    return sweep, text


def figure4(
    scale: float = 1.0,
    jobs: Optional[int] = None,
    trace_dir: Optional[str] = None,
    cache: CacheSpec = None,
    engine: str = "auto",
) -> Tuple[SweepResult, str]:
    sweep = run_figure4(
        scale, jobs=jobs, trace_dir=trace_dir, cache=cache, engine=engine
    )
    text = (
        render_time_figure(sweep, "Figure 4(a): benchmarks")
        + "\n\n"
        + render_energy_figure(sweep, "Figure 4(b): benchmarks")
    )
    return sweep, text
