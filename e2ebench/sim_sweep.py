"""Workload ``sim_sweep``: the paper's evaluation half, Figures 3 and 4.

``repro.eval.harness.run_figure3`` and ``run_figure4`` at scale 1.0 with
the default simulator engine, the cache off and ``jobs = nproc``, so
``perf.pool`` dispatch is on the measured path.  This is the only
workload that runs ``workloads`` → ``sim`` → ``energy`` → ``eval``.  Its
inputs are the paper's fixed kernels, so it takes no seed.

The timed operation is one workload's six-configuration sweep,
``run_sweep([name], ...)``, the call both figures make for every
workload, with the same settings.  A round sweeps every workload of both
figures once, and each workload's time is its best of the rounds.

Every sweep's ``time_csv``/``energy_csv`` must equal the committed
``results/csv/figure3*.csv``/``figure4*.csv`` after newline
normalisation, for both figure calls and for the per-workload sweeps of
every round put together.  The simulator has not been validated against
hardware, so this identity is a regression check, not an accuracy
figure.

Worker modes (``python3 -m sim_sweep setup | sweep <seconds> | replay
<spans>``): ``setup`` imports and exits, ``sweep`` runs both figures
once, then rounds of per-workload sweeps until the time is up (at least
``MIN_ROUNDS``), ``replay`` runs one timed sweep pair, then every cell
stage by stage with spans, then an untraced serial sweep.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

from common import (
    HERE,
    ROOT,
    best_times,
    Spans,
    median,
    nproc,
    peak_rss_mb,
    percentile,
    ready,
    run_worker,
    worker_output,
)

CSV_DIR = os.path.join(ROOT, "results", "csv")
FIGURES = {
    "figure3": ("figure3a_time.csv", "figure3b_energy.csv"),
    "figure4": ("figure4a_time.csv", "figure4b_energy.csv"),
}
#: Rounds of per-workload sweeps a run makes at the least, so that the
#: sample count does not depend on how many fit in the run's time.  Each
#: workload's time is its best of the rounds.  A round keeps each
#: workload's kernel memo cold: the other workloads' cells evict it.
MIN_ROUNDS = 4
#: Simulated event counts per figure (core ops, L1 hits and accesses,
#: NoC flit-hops), written by ``make_reference.py``.  They are
#: deterministic, so a traced run must reproduce them exactly.
COUNTS = os.path.join(HERE, "sim_reference.json")


def _normalise(text: str) -> str:
    return text.replace("\r\n", "\n")


def reference_csvs() -> Dict[str, tuple]:
    out = {}
    for figure, names in FIGURES.items():
        texts = []
        for name in names:
            with open(os.path.join(CSV_DIR, name), newline="") as handle:
                texts.append(_normalise(handle.read()))
        out[figure] = tuple(texts)
    return out


def _csvs(sweep) -> tuple:
    from repro.eval.export import energy_csv, time_csv

    return _normalise(time_csv(sweep)), _normalise(energy_csv(sweep))


def _figure_names() -> Dict[str, tuple]:
    from repro.eval.harness import bench_names, micro_names

    return {"figure3": micro_names(), "figure4": bench_names()}


def _sweep(figure: str, jobs: int):
    from repro.eval.harness import run_figure3, run_figure4

    run = run_figure3 if figure == "figure3" else run_figure4
    return run(1.0, jobs=jobs, cache=False, engine="auto")


def replay_cells(spans: Spans):
    """Every Figure 3/4 cell the way the harness's sweep task runs it, one
    public call per span.  Returns per-figure (CSVs, counts, cell ms)."""
    from repro.energy.model import DEFAULT_ENERGY_MODEL
    from repro.eval.export import energy_csv, time_csv
    from repro.eval.harness import Observation, SweepResult
    from repro.obs.metrics import CORE_OP, L1_ACCESS, L1_HIT, NOC_FLIT_HOPS
    from repro.sim.compile import compile_kernel
    from repro.sim.config import INTEGRATED
    from repro.sim.system import CONFIG_ABBREV, all_configurations, run_workload
    from repro.sim.vectorize import available, vectorize_kernel
    from repro.workloads.base import get

    out = {}
    for figure, names in _figure_names().items():
        sweep = SweepResult()
        counts = {"core_ops": 0.0, "l1_hit": 0.0, "l1_access": 0.0, "noc_flit_hops": 0.0}
        cell_ns = 0
        for name in names:
            t0 = time.perf_counter_ns()
            with spans.span("workloads.build"):
                kernel = get(name).build(INTEGRATED, 1.0)
            with spans.span("sim.compile"):
                fast = compile_kernel(kernel, INTEGRATED)
            if available():
                with spans.span("sim.vectorize"):
                    fast = vectorize_kernel(fast)
            for protocol, model in all_configurations():
                with spans.span("sim.run"):
                    result = run_workload(
                        kernel, protocol, model, INTEGRATED, engine="auto",
                        compiled=fast,
                    )
                with spans.span("energy.breakdown"):
                    energy = DEFAULT_ENERGY_MODEL.breakdown(result.stats)
                sweep.add(Observation(
                    workload=name, config=CONFIG_ABBREV[(protocol, model)],
                    cycles=result.cycles, energy_nj=energy,
                ))
                stats = result.stats
                counts["core_ops"] += stats.get(CORE_OP)
                counts["l1_hit"] += stats.get(L1_HIT)
                counts["l1_access"] += stats.get(L1_ACCESS)
                counts["noc_flit_hops"] += stats.get(NOC_FLIT_HOPS)
            cell_ns += time.perf_counter_ns() - t0
        with spans.span("eval.export"):
            csvs = (_normalise(time_csv(sweep)), _normalise(energy_csv(sweep)))
        out[figure] = (csvs, counts, cell_ns / 1e6)
    return out


# -- workers -------------------------------------------------------------------

def _worker_sweep(seconds: float, jobs: int) -> dict:
    from repro.eval.harness import SweepResult, run_sweep

    reference = reference_csvs()
    ready()
    # Both figures once, as the paper's reproduction runs them.  These
    # calls also start the pool and its workers' imports.
    figure_calls = []
    for figure in FIGURES:
        start = time.perf_counter()
        sweep = _sweep(figure, jobs)
        figure_calls.append({"figure": figure, "latency_s": time.perf_counter() - start,
                             "ok": _csvs(sweep) == reference[figure]})

    # Then every workload's six-configuration sweep on its own, round
    # after round; each round's sweeps make up both figures again.
    cells, rounds = [], []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        ok = True
        for figure, names in _figure_names().items():
            merged = SweepResult()
            for name in names:
                start = time.perf_counter()
                sweep = run_sweep([name], scale=1.0, jobs=jobs, cache=False, engine="auto")
                cells.append({"workload": name, "latency_s": time.perf_counter() - start})
                for observation in sweep.observations.values():
                    merged.add(observation)
            ok = ok and _csvs(merged) == reference[figure]
        rounds.append(ok)
    return {"figure_calls": figure_calls, "cells": cells, "rounds": rounds,
            "peak_rss_mb": peak_rss_mb(os.getpid())}


def _worker_replay(jobs: int, spans_path: str) -> dict:
    import repro.eval.harness as harness

    reference = reference_csvs()
    ready()
    ok = True
    parallel_ms = {}
    for figure in FIGURES:
        start = time.perf_counter()
        sweep = _sweep(figure, jobs)
        parallel_ms[figure] = (time.perf_counter() - start) * 1e3
        ok = ok and _csvs(sweep) == reference[figure]

    spans = Spans()
    start = time.perf_counter()
    replayed = replay_cells(spans)
    traced_s = time.perf_counter() - start
    spans.write(spans_path)

    # The same cells untraced and serial, from a cold kernel memo.
    harness._CELL_MEMO.clear()
    start = time.perf_counter()
    for figure in FIGURES:
        ok = ok and _csvs(_sweep(figure, 1)) == reference[figure]
    untraced_s = time.perf_counter() - start

    self_ms = spans.self_ms()
    counts = {key: 0.0 for key in ("core_ops", "l1_hit", "l1_access", "noc_flit_hops")}
    per_figure = {}
    for figure, (csvs, figure_counts, _cell_ms) in replayed.items():
        ok = ok and csvs == reference[figure]
        per_figure[figure] = figure_counts
        for key, value in figure_counts.items():
            counts[key] += value
    layers = {
        f"{name}_ms": self_ms.get(name, 0.0)
        for name in ("workloads.build", "sim.compile", "sim.vectorize",
                     "sim.run", "energy.breakdown", "eval.export")
    }
    layers["sim.core_ops"] = counts["core_ops"]
    layers["sim.host_ns_per_op"] = self_ms.get("sim.run", 0.0) * 1e6 / counts["core_ops"]
    layers["sim.l1_hit_ratio"] = counts["l1_hit"] / counts["l1_access"]
    layers["sim.noc_flit_hops"] = counts["noc_flit_hops"]
    # Pool dispatch and imbalance: the parallel sweep's wall time minus
    # its cells' summed time spread over the workers.
    layers["eval.sweep_overhead_ms"] = sum(
        parallel_ms[figure] - replayed[figure][2] / jobs for figure in FIGURES
    )
    layers["trace.overhead"] = traced_s / untraced_s
    return {"ok": ok, "layers": layers, "counts": per_figure}


def main(argv: List[str]) -> int:
    mode = argv[0]
    import repro.eval.export  # noqa: F401 - part of set-up
    import repro.eval.harness  # noqa: F401

    jobs = nproc()
    if mode == "setup":
        reference_csvs()
        ready()
        result = {}
    elif mode == "sweep":
        result = _worker_sweep(float(argv[1]), jobs)
    elif mode == "replay":
        result = _worker_replay(jobs, argv[1])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    worker_output(result)
    return 0


# -- orchestration -------------------------------------------------------------

SETUP_PROBES = 8


def orchestrate(ctx) -> dict:
    with open(COUNTS) as handle:
        reference_counts = json.load(handle)
    env = ctx.env
    setups = [
        run_worker("sim_sweep", ["setup"], env, 120)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    run = run_worker("sim_sweep", ["sweep", str(ctx.seconds)], env, 170)
    setups.append(run["setup_s"])
    failures = [
        f"{call['figure']} sweep: CSVs differ from results/csv"
        for call in run["figure_calls"] if not call["ok"]
    ] + [
        f"round {i} of per-workload sweeps: CSVs differ from results/csv"
        for i, ok in enumerate(run["rounds"]) if not ok
    ]
    failed = len(failures)
    best = best_times((c["workload"], c["latency_s"] * 1e3) for c in run["cells"])
    latencies = list(best.values())
    sweep_ms = sum(latencies)
    ops = sum(counts["core_ops"] for counts in reference_counts.values())
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "op_p50_ms": median(latencies),
        "op_p90_ms": percentile(latencies, 0.9),
        "bulk_ms": sweep_ms,
        "work_per_s": ops / (sweep_ms / 1e3),
    }
    samples = {
        "setup_s": len(setups), "op_ms": len(latencies),
        "timings_per_workload": len(run["rounds"]),
        "figure_calls_ms": {c["figure"]: round(c["latency_s"] * 1e3, 1)
                            for c in run["figure_calls"]},
    }
    layers = {}
    attempted = len(run["figure_calls"]) + len(run["rounds"])
    if ctx.trace:
        replay = run_worker("sim_sweep", ["replay", ctx.spans_path], env, 170)
        attempted += 1
        if not replay["ok"]:
            failed += 1
            failures.append("traced run: replayed or serial CSVs differ from results/csv")
        if replay["counts"] != reference_counts:
            failed += 1
            failures.append(
                f"traced run: simulated counts {replay['counts']} differ from "
                f"{reference_counts}"
            )
        layers = replay["layers"]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "samples": samples,
        "layers": layers,
        "notes": {},
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
