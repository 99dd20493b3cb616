"""Top-level reporting: regenerate every table and figure in one call.

``python -m repro figures`` writes all artifacts to ``results/``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.eval import figures, tables
from repro.eval.harness import CONFIG_ORDER, SweepResult


def headline_averages(sweep: SweepResult) -> str:
    """The Section 6 summary numbers for a sweep."""
    lines = ["Average execution-time / energy reduction vs GD0:"]
    for cfg in CONFIG_ORDER[1:]:
        t = sweep.average_reduction(cfg) * 100
        e = sweep.average_energy_reduction(cfg) * 100
        lines.append(f"  {cfg}: time -{t:5.1f}%   energy -{e:5.1f}%")
    # DeNovo vs GPU at matched consistency model.
    for gpu_cfg, dn_cfg, model in (
        ("GD0", "DD0", "DRF0"),
        ("GD1", "DD1", "DRF1"),
        ("GDR", "DDR", "DRFrlx"),
    ):
        t = sweep.average_reduction(dn_cfg, baseline=gpu_cfg) * 100
        e = sweep.average_energy_reduction(dn_cfg, baseline=gpu_cfg) * 100
        lines.append(
            f"  DeNovo vs GPU under {model}: time -{t:5.1f}%   energy -{e:5.1f}%"
        )
    return "\n".join(lines)


def generate_all(
    out_dir: str = "results",
    scale: float = 1.0,
    jobs: Optional[int] = None,
    trace_dir: Optional[str] = None,
    cache=None,
    engine: str = "auto",
) -> Dict[str, str]:
    """Regenerate every table and figure; returns artifact name -> text.

    ``jobs`` sets the sweep worker count (``None`` auto-resolves);
    ``trace_dir`` additionally records a per-(workload, configuration)
    trace for the Figure 3/4 sweeps (see :mod:`repro.obs`) without
    changing any artifact byte.  ``cache`` (a
    :data:`repro.perf.cache.CacheSpec`) serves already-simulated sweep
    cells from the on-disk result cache; cached and cold runs write
    byte-identical artifacts.  ``engine`` picks the simulator engine
    for the sweeps (see :data:`repro.sim.ENGINES`); both engines
    write byte-identical artifacts.
    """
    artifacts: Dict[str, str] = {}
    artifacts["table1.txt"] = tables.table1()
    artifacts["table2.txt"] = tables.table2()
    artifacts["table3.txt"] = tables.table3()
    artifacts["table4.txt"] = tables.table4()
    artifacts["litmus_table.txt"] = tables.litmus_table()
    from repro.core.cat_export import listing7_cat

    artifacts["listing7.cat"] = listing7_cat()
    speedups, artifacts["figure1.txt"] = figures.figure1(
        scale, jobs=jobs, cache=cache
    )
    artifacts["figure2.txt"] = figures.figure2()
    sweep3, text3 = figures.figure3(
        scale, jobs=jobs, trace_dir=trace_dir, cache=cache, engine=engine
    )
    artifacts["figure3.txt"] = text3 + "\n\n" + headline_averages(sweep3)
    sweep4, text4 = figures.figure4(
        scale, jobs=jobs, trace_dir=trace_dir, cache=cache, engine=engine
    )
    artifacts["figure4.txt"] = text4 + "\n\n" + headline_averages(sweep4)

    os.makedirs(out_dir, exist_ok=True)
    for name, text in artifacts.items():
        with open(os.path.join(out_dir, name), "w") as handle:
            handle.write(text + "\n")

    # Plot-ready CSVs alongside the ASCII artifacts.
    from repro.eval.export import energy_csv, speedup_csv, time_csv

    csvs = {"figure1_speedups.csv": speedup_csv(speedups)}
    for stem, sweep in (("figure3", sweep3), ("figure4", sweep4)):
        csvs[f"{stem}a_time.csv"] = time_csv(sweep)
        csvs[f"{stem}b_energy.csv"] = energy_csv(sweep)
    csv_dir = os.path.join(out_dir, "csv")
    os.makedirs(csv_dir, exist_ok=True)
    for name, text in csvs.items():
        with open(os.path.join(csv_dir, name), "w") as handle:
            handle.write(text)
    return artifacts
