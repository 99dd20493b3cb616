"""Benchmark/regression harness for the hot paths.

Measures (1) SC-execution enumeration over the litmus corpus — default
engine (POR + memo + copy-on-write prefixes) vs the naive full-clone
oracle — (2) full-corpus race classification under all three models —
bitset relations + execution-class dedup vs the pair-set per-execution
oracle (the ``relcheck`` section) — (3) a scaled Figure-3 sweep —
serial vs process-pool parallel — (4) the trace-compiled and
numpy-vectorized simulator engines vs the reference interpreter on a
cold sweep — (5) the result cache — cold (populating) vs fully warm
sweep, in a throwaway cache directory — and (6)
the observability layer's overhead — untraced vs no-op tracer vs fully
enabled tracer on one simulation — and writes a ``BENCH_<date>.json``
record so future PRs have a perf trajectory to compare against.

The measurements double as correctness checks: the enumeration bench
asserts the two engines produce the same execution sets, the relcheck
bench asserts verdicts and race witnesses are identical between all
relation backends (and that early-exit reproduces every verdict), and
the sweep and simgen benches assert their CSV artifacts are
byte-identical (parallel vs serial; compiled and vectorized vs
reference).

Run ``python -m repro bench [--scale S] [--jobs N] [--repeat R]
[--out DIR] [--quick] [--section S[,S...]] [--baseline B.json]``.  ``--section``
restricts the run to a comma-separated subset of ``enumeration``,
``relcheck``, ``solver``, ``sweep``, ``simgen``, ``cache``, ``tracing``,
``serve``, ``batch``.  The ``solver`` section races SAT-backed checking
against
the explicit enumerator on the scaling litmus families and records the
crossover; the ``serve`` section load-tests the checker service
end-to-end — a mixed litmus+sweep batch through
:func:`repro.serve.generate_load`, cold vs warm response cache,
asserting byte-identity with direct :mod:`repro.api` calls.
``--baseline`` diffs the fresh record against an older
``BENCH_<date>.json`` (see :func:`compare_baseline`), flagging >20%
wall-time regressions.
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import date
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.executions import enumerate_sc_executions
from repro.eval.export import energy_csv, time_csv
from repro.eval.harness import run_sweep
from repro.litmus.corpus import load_corpus
from repro.litmus.program import Program
from repro.obs.tracer import Tracer
from repro.perf.pool import resolve_jobs
from repro.sim.config import INTEGRATED
from repro.sim.system import run_workload
from repro.workloads.base import MICRO_NAMES, get as get_workload


def _corpus_programs() -> List[Tuple[str, Program]]:
    return [(entry.name, entry.program) for entry in load_corpus()]


def stress_programs() -> List[Tuple[str, Program]]:
    """Synthetic programs that scale the interleaving space.

    The corpus programs are tiny (litmus tests race on one or two
    locations); these push the enumerator into the regime the reduction
    targets: several threads with mostly-independent operations, where
    the naive engine pays the full factorial interleaving count.
    """
    from repro.litmus import load, store

    programs: List[Tuple[str, Program]] = []
    # Disjoint writers: N threads, M ops each, per-thread locations.
    # One canonical interleaving suffices; naive explores (N*M)!/(M!^N).
    for n_threads, n_ops in ((3, 3), (4, 2)):
        threads = [
            [store(f"x{t}", k + 1) for k in range(n_ops)]
            for t in range(n_threads)
        ]
        programs.append(
            (f"stress-disjoint-{n_threads}x{n_ops}", Program("stress", threads))
        )
    # Message passing with an independent bystander thread.
    programs.append(
        (
            "stress-mp-bystander",
            Program(
                "stress",
                [
                    [store("data", 1), store("flag", 1)],
                    [load("r0", "flag"), load("r1", "data")],
                    [store("z0", 1), store("z1", 1), store("z2", 1)],
                ],
            ),
        )
    )
    return programs


def bench_enumeration(
    programs: Optional[Sequence[Tuple[str, Program]]] = None,
    repeat: int = 3,
    stress: bool = True,
) -> Dict:
    """Time the default enumeration engine against the naive oracle.

    Also cross-checks that both engines produce identical execution sets
    on every program — a benchmark that silently diverged from the
    oracle would be measuring the wrong thing.

    Repeats are interleaved (naive, default, naive, default, ...) rather
    than run as one block per engine: block timing let transient load
    land entirely on one engine and produced phantom per-program
    "regressions" on sub-millisecond programs (the 0.8x outliers in
    earlier bench records, where both columns ran the *same* code path).
    """
    if programs is None:
        programs = _corpus_programs()
        if stress:
            programs = list(programs) + stress_programs()

    per_program: List[Dict] = []
    wall = {"naive": 0.0, "default": 0.0}
    totals = {
        "paths_naive": 0,
        "paths_default": 0,
        "steps_naive": 0,
        "steps_default": 0,
        "por_pruned": 0,
        "memo_hits": 0,
        "executions": 0,
    }
    for name, program in programs:
        keys = {}
        times: Dict[str, float] = {}
        enums = {}
        for _ in range(max(1, repeat)):
            for engine, naive in (("naive", True), ("default", False)):
                t0 = time.perf_counter()
                enum = enumerate_sc_executions(program, naive=naive)
                elapsed = time.perf_counter() - t0
                if engine not in times or elapsed < times[engine]:
                    times[engine] = elapsed
                enums[engine] = enum
        for engine, enum in enums.items():
            keys[engine] = {e.canonical_key() for e in enum.executions}
            wall[engine] += times[engine]
            if engine == "naive":
                totals["paths_naive"] += enum.stats.completed_paths
                totals["steps_naive"] += enum.stats.steps
            else:
                totals["paths_default"] += enum.stats.completed_paths
                totals["steps_default"] += enum.stats.steps
                totals["por_pruned"] += enum.stats.por_pruned
                totals["memo_hits"] += enum.stats.memo_hits
                totals["executions"] += len(enum.executions)
        if keys["naive"] != keys["default"]:
            raise AssertionError(
                f"engines disagree on {name}: naive found "
                f"{len(keys['naive'])} executions, default {len(keys['default'])}"
            )
        per_program.append(
            {
                "program": name,
                "wall_s_naive": times["naive"],
                "wall_s_default": times["default"],
                "speedup": times["naive"] / times["default"]
                if times["default"] > 0
                else float("inf"),
            }
        )

    return {
        "programs": len(per_program),
        "repeat": repeat,
        "wall_s_naive": wall["naive"],
        "wall_s_default": wall["default"],
        "speedup": wall["naive"] / wall["default"] if wall["default"] > 0 else float("inf"),
        **totals,
        "per_program": per_program,
    }


def bench_sweep(
    scale: float = 0.25,
    jobs: Optional[int] = None,
    names: Sequence[str] = MICRO_NAMES,
    engine: str = "auto",
) -> Dict:
    """Time the serial sweep against the process-pool sweep and verify the
    figure CSV artifacts are byte-identical.

    When the auto-resolved worker count lands on serial (single-CPU
    host, or a grid smaller than the pool), the "parallel" run *is* the
    serial run: the section reports ``speedup: 1.0`` with
    ``serial_fallback: true`` instead of timing pool overhead the
    library would never pay.
    """
    jobs = resolve_jobs(jobs, n_tasks=len(names) * 6)
    t0 = time.perf_counter()
    serial = run_sweep(names, scale=scale, engine=engine)
    wall_serial = time.perf_counter() - t0

    serial_fallback = jobs <= 1
    if serial_fallback:
        parallel = serial
        wall_parallel = wall_serial
    else:
        t0 = time.perf_counter()
        parallel = run_sweep(names, scale=scale, jobs=jobs, engine=engine)
        wall_parallel = time.perf_counter() - t0

    identical = (
        time_csv(serial) == time_csv(parallel)
        and energy_csv(serial) == energy_csv(parallel)
    )
    if not identical:
        raise AssertionError("parallel sweep CSVs differ from serial")
    return {
        "workloads": list(names),
        "scale": scale,
        "jobs": jobs,
        "engine": engine,
        "serial_fallback": serial_fallback,
        "simulations": len(serial.observations),
        "wall_s_serial": wall_serial,
        "wall_s_parallel": wall_parallel,
        "speedup": wall_serial / wall_parallel if wall_parallel > 0 else float("inf"),
        "csv_identical": identical,
    }


def bench_cache(
    scale: float = 0.25,
    names: Sequence[str] = MICRO_NAMES,
) -> Dict:
    """Time a cold (cache-populating) sweep against a fully warm one.

    Runs in a throwaway cache directory so the numbers measure this
    process's work, not whatever ``~/.cache/repro`` happens to hold, and
    verifies the cached CSVs are byte-identical to an uncached run.
    Target: the warm sweep is >=10x faster than cold.
    """
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        t0 = time.perf_counter()
        cold = run_sweep(names, scale=scale, cache=root)
        wall_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_sweep(names, scale=scale, cache=root)
        wall_warm = time.perf_counter() - t0
        uncached = run_sweep(names, scale=scale)
        identical = (
            time_csv(cold) == time_csv(warm) == time_csv(uncached)
            and energy_csv(cold) == energy_csv(warm) == energy_csv(uncached)
        )
        if not identical:
            raise AssertionError("cached sweep CSVs differ from uncached")

    return {
        "workloads": list(names),
        "scale": scale,
        "simulations": len(cold.observations),
        "cache_misses_cold": cold.cache_misses,
        "cache_hits_warm": warm.cache_hits,
        "wall_s_cold": wall_cold,
        "wall_s_warm": wall_warm,
        "speedup": wall_cold / wall_warm if wall_warm > 0 else float("inf"),
        "target_speedup": 10.0,
        "csv_identical": identical,
    }


def bench_simgen(
    scale: float = 0.25,
    names: Sequence[str] = MICRO_NAMES,
    repeat: int = 3,
) -> Dict:
    """Time the fast simulator engines against the reference interpreter
    on a cold sweep, tracer off.

    Two (with numpy, three) sides: the reference interpreter, the
    trace-compiled engine, and — when numpy is importable — the
    numpy-vectorized engine.  Engines are interleaved per workload and
    the best of *repeat* rounds is kept on each side, so host noise hits
    all equally.  The fast-engine rounds include ahead-of-time lowering
    (the per-process kernel memo is smaller than the workload set, so
    every round re-compiles) — this is the cold cost a figure
    regeneration actually pays.  Also asserts every engine's figure CSVs
    are byte-identical to the reference; a fast path that drifted from
    the reference semantics would be measuring the wrong simulator.

    The vectorized engine's headroom over compiled is structurally
    modest (~1.1x): bit-identity pins the scalar event order, so numpy
    only accelerates the ahead-of-time lowering and the per-op operand
    fetch, not the event loop itself (see ``docs/performance.md``).
    Its headline target is vs the reference interpreter.
    """
    from repro.sim.vectorize import available as vectorize_available

    engines = ["reference", "compiled"]
    if vectorize_available():
        engines.append("vectorized")
    best: Dict[str, Dict[str, float]] = {e: {} for e in engines}
    for _ in range(max(1, repeat)):
        for name in names:
            for engine in engines:
                t0 = time.perf_counter()
                run_sweep([name], scale=scale, engine=engine)
                elapsed = time.perf_counter() - t0
                if name not in best[engine] or elapsed < best[engine][name]:
                    best[engine][name] = elapsed

    sweeps = {e: run_sweep(names, scale=scale, engine=e) for e in engines}
    reference = sweeps["reference"]
    identical = all(
        time_csv(reference) == time_csv(sweeps[e])
        and energy_csv(reference) == energy_csv(sweeps[e])
        for e in engines[1:]
    )
    if not identical:
        raise AssertionError("fast-engine sweep CSVs differ from reference")

    walls = {e: sum(best[e].values()) for e in engines}
    wall_ref = walls["reference"]
    wall_comp = walls["compiled"]
    record = {
        "workloads": list(names),
        "scale": scale,
        "repeat": repeat,
        "engines": engines,
        "simulations": len(names) * 6,
        "wall_s_reference": wall_ref,
        "wall_s_compiled": wall_comp,
        "speedup": wall_ref / wall_comp if wall_comp > 0 else float("inf"),
        "target_speedup": 2.5,
        "csv_identical": identical,
        "per_workload": [
            {
                "workload": name,
                **{f"wall_s_{e}": best[e][name] for e in engines},
                "speedup": best["reference"][name] / best["compiled"][name]
                if best["compiled"][name] > 0
                else float("inf"),
            }
            for name in names
        ],
    }
    if "vectorized" in engines:
        wall_vec = walls["vectorized"]
        record["wall_s_vectorized"] = wall_vec
        record["speedup_vectorized"] = (
            wall_ref / wall_vec if wall_vec > 0 else float("inf")
        )
        record["speedup_vectorized_vs_compiled"] = (
            wall_comp / wall_vec if wall_vec > 0 else float("inf")
        )
        record["target_speedup_vectorized"] = 2.5
    return record


def bench_tracing(
    scale: float = 0.2,
    workload: str = "SC",
    repeat: int = 3,
) -> Dict:
    """Measure the observability layer's cost on one simulation.

    Three variants of the same run, best-of-*repeat* each:

    - **untraced** — the ``NULL_TRACER`` default every caller gets;
    - **noop** — an explicitly disabled :class:`Tracer` (the identical
      ``if tracer.enabled`` guard path), whose ratio to *untraced* is
      the no-op overhead the <5% budget in ``docs/observability.md``
      is about;
    - **traced** — a fully enabled tracer recording every event.
    """
    kernel = get_workload(workload).build(INTEGRATED, scale)
    variants = (
        ("untraced", lambda: None),
        ("noop", lambda: Tracer(enabled=False)),
        ("traced", Tracer),
    )

    def timed(make_tracer) -> Tuple[float, int]:
        tracer = make_tracer()
        t0 = time.perf_counter()
        run_workload(kernel, "gpu", "drf0", INTEGRATED, tracer=tracer)
        elapsed = time.perf_counter() - t0
        return elapsed, len(tracer) if tracer is not None else 0

    # Warm up caches/allocator, then interleave the variants so drift
    # (frequency scaling, GC) hits all three equally; keep the best of
    # `repeat` rounds per variant.
    for _, make_tracer in variants:
        timed(make_tracer)
    best: Dict[str, float] = {}
    events = 0
    for _ in range(max(3, repeat)):
        for name, make_tracer in variants:
            elapsed, n = timed(make_tracer)
            if name not in best or elapsed < best[name]:
                best[name] = elapsed
            if n:
                events = n
    wall_untraced = best["untraced"]
    wall_noop = best["noop"]
    wall_traced = best["traced"]
    return {
        "workload": workload,
        "scale": scale,
        "repeat": repeat,
        "wall_s_untraced": wall_untraced,
        "wall_s_noop": wall_noop,
        "wall_s_traced": wall_traced,
        "noop_overhead": (
            wall_noop / wall_untraced - 1.0 if wall_untraced > 0 else 0.0
        ),
        "traced_overhead": (
            wall_traced / wall_untraced - 1.0 if wall_untraced > 0 else 0.0
        ),
        "events": events,
    }


def bench_relcheck(
    models: Sequence[str] = ("drf0", "drf1", "drfrlx"),
    repeat: int = 3,
) -> Dict:
    """Time race classification over the full corpus: bitset relations +
    execution-class dedup vs the pair-set per-execution oracle.

    This isolates the phase the relational kernel optimizes — the
    analysis half of :func:`repro.core.model.check` — against shared
    pre-built enumerations (enumeration itself is the ``enumeration``
    section's subject).  Every corpus program is classified under all
    three models.  The variants are interleaved and the best of
    *repeat* rounds kept per check, so host noise hits all equally.

    Doubles as the backend-equivalence oracle check: verdicts and the
    full ``(execution index, race)`` witness sequences must be identical
    between both variants, and the early-exit mode must reproduce every
    verdict.  Target: >=3x overall for dense vs pairs.
    """
    from repro.core.model import _prepare, classify_enumeration

    tasks = []
    for name, program in _corpus_programs():
        for model in models:
            prepared = _prepare(program, model)
            enum = enumerate_sc_executions(prepared)
            tasks.append((name, model, enum))

    variants = [
        ("pairs", {"backend": "pairs", "dedup": False}),
        ("dense", {"backend": "dense", "dedup": True}),
    ]
    best: Dict[Tuple[str, str], float] = {}
    outputs: Dict[Tuple[str, str], Tuple] = {}
    stats: Dict[str, Tuple[int, int, int]] = {}
    for _ in range(max(1, repeat)):
        for name, model, enum in tasks:
            for variant, kwargs in variants:
                t0 = time.perf_counter()
                witnesses, n_classes, analyses = classify_enumeration(
                    enum, model, **kwargs
                )
                elapsed = time.perf_counter() - t0
                key = (f"{name}:{model}", variant)
                if key not in best or elapsed < best[key]:
                    best[key] = elapsed
                outputs[key] = tuple(
                    (w.execution_index, repr(w.race)) for w in witnesses
                )
                if variant == "dense":
                    stats[f"{name}:{model}"] = (
                        len(enum.executions), n_classes, analyses
                    )

    verdicts_ok = True
    witnesses_ok = True
    early_ok = True
    for name, model, enum in tasks:
        check_id = f"{name}:{model}"
        oracle = outputs[(check_id, "pairs")]
        for variant, _ in variants[1:]:
            candidate = outputs[(check_id, variant)]
            if bool(oracle) != bool(candidate):
                verdicts_ok = False
            if oracle != candidate:
                witnesses_ok = False
        early, _, _ = classify_enumeration(
            enum, model, backend="dense", dedup=True, exhaustive=False
        )
        if bool(early) != bool(oracle):
            early_ok = False
    if not (verdicts_ok and witnesses_ok and early_ok):
        raise AssertionError(
            "relation backends disagree: "
            f"verdicts_identical={verdicts_ok}, "
            f"witnesses_identical={witnesses_ok}, "
            f"early_exit_identical={early_ok}"
        )

    per_model: Dict[str, Dict[str, float]] = {}
    for model in models:
        walls = {
            name: sum(
                t for (check_id, variant), t in best.items()
                if variant == name and check_id.endswith(f":{model}")
            )
            for name, _ in variants
        }
        per_model[model] = {
            **{f"wall_s_{name}": wall for name, wall in walls.items()},
            "speedup": walls["pairs"] / walls["dense"]
            if walls["dense"] > 0
            else float("inf"),
        }
    wall_pairs = sum(m["wall_s_pairs"] for m in per_model.values())
    wall_dense = sum(m["wall_s_dense"] for m in per_model.values())
    return {
        "programs": len({check_id.rsplit(":", 1)[0] for check_id, _ in best}),
        "models": list(models),
        "checks": len(tasks),
        "repeat": repeat,
        "backends": [name for name, _ in variants],
        "executions": sum(n for n, _, _ in stats.values()),
        "execution_classes": sum(c for _, c, _ in stats.values()),
        "analyses_run": sum(a for _, _, a in stats.values()),
        "wall_s_pairs": wall_pairs,
        "wall_s_dense": wall_dense,
        "speedup": wall_pairs / wall_dense if wall_dense > 0 else float("inf"),
        "target_speedup": 3.0,
        "verdicts_identical": verdicts_ok,
        "witnesses_identical": witnesses_ok,
        "early_exit_identical": early_ok,
        "per_model": per_model,
    }


def bench_solver(repeat: int = 3, quick: bool = False) -> Dict:
    """Time SAT-backed checking against the explicit enumerator on the
    scaling litmus families, and record where the solver starts winning.

    Two parameterized families from :mod:`repro.litmus.library` —
    ``scaled_chain(n)`` (an n-thread load-buffering ring) and
    ``scaled_mp(n)`` (one writer, n-1 racing readers) — grow the
    interleaving count factorially in *n* while the per-thread grounding
    stays constant, which is exactly the regime solver-backed checking
    targets.  For each family, *n* sweeps upward from 4 until the
    enumerator's last check exceeds the time budget; the SAT engine
    keeps going to the sweep ceiling.  Timing is best-of-*repeat* via
    :func:`repro.core.model.check` (uncached, ``drfrlx``; the shared
    core memo is cleared per round so every sat figure is a cold check).

    Doubles as a correctness gate: at every *n* both engines ran, the
    full three-model verdicts (legal + race kinds) must be identical,
    and the SAT engine must genuinely have run (a capacity fallback on
    these families would time the wrong engine).  A full-corpus pass
    compares ``check(engine="sat")`` against ``check(engine="enum")``
    for every program and model — programs past the encoder's capacity
    caps fall back to the enumerator by design and are counted, not
    failed.  Target: >=5x at the largest *n* both engines finish.

    Two subsections added by the incremental-solver PR:

    - ``solver_incremental`` times the 3-model audit one-shot
      (``shared=False``: each model encodes and solves from scratch, PR
      8's behavior) against the shared-core path (encode once, keep the
      CDCL instance warm, decode per model) on the sat-eligible corpus
      and on both families at n>=8, interleaved best-of-*repeat*, with
      execution-set/class-count/counter identity asserted between the
      two and against the explicit enumerator.  Target: >=2x everywhere.
    - ``router`` refits the engine-routing cost model
      (:mod:`repro.solver.router`) from check-level enum vs cold-shared
      sat timings measured here, records each program's feature vector,
      decision and achieved speedup, and asserts no program is routed to
      the slower engine.  The fitted calibration is returned under
      ``calibration`` and persisted beside the bench JSON by
      :func:`run_bench`.
    """
    from repro.core.model import MODELS, check
    from repro.litmus.library import scaled_chain, scaled_mp
    from repro.solver.bridge import clear_core_memo

    budget_s = 2.0 if quick else 10.0
    max_n = 6 if quick else 10
    families = (("scaled_chain", scaled_chain), ("scaled_mp", scaled_mp))
    per_program: List[Dict] = []
    crossover: Dict[str, Optional[int]] = {}
    speedup_at_largest: Dict[str, float] = {}

    for fam, make in families:
        crossover[fam] = None
        last_enum = 0.0
        for n in range(4, max_n + 1):
            program = make(n)
            run_enum = last_enum <= budget_s
            rounds = max(1, repeat) if last_enum < 1.0 else 1
            times: Dict[str, float] = {}
            verdicts: Dict[str, Tuple] = {}
            for engine in ("enum", "sat") if run_enum else ("sat",):
                best = None
                for _ in range(rounds):
                    clear_core_memo()
                    t0 = time.perf_counter()
                    result = check(program, "drfrlx", engine=engine)
                    elapsed = time.perf_counter() - t0
                    best = elapsed if best is None else min(best, elapsed)
                if result.engine != engine:
                    raise AssertionError(
                        f"{program.name}: requested {engine} but "
                        f"{result.engine} ran"
                    )
                times[engine] = best
                verdicts[engine] = (result.legal, result.race_kinds)
            entry: Dict = {"program": program.name, "threads": n}
            entry.update({f"wall_s_{e}": t for e, t in times.items()})
            if run_enum:
                if verdicts["enum"] != verdicts["sat"]:
                    raise AssertionError(
                        f"engines disagree on {program.name}: "
                        f"enum={verdicts['enum']} sat={verdicts['sat']}"
                    )
                for model in MODELS:
                    if model == "drfrlx":
                        continue
                    a = check(program, model, engine="enum")
                    b = check(program, model, engine="sat")
                    if (a.legal, a.race_kinds) != (b.legal, b.race_kinds):
                        raise AssertionError(
                            f"engines disagree on {program.name}/{model}"
                        )
                speedup = (
                    times["enum"] / times["sat"]
                    if times["sat"] > 0 else float("inf")
                )
                entry["speedup"] = speedup
                speedup_at_largest[fam] = speedup
                if crossover[fam] is None and times["sat"] < times["enum"]:
                    crossover[fam] = n
                last_enum = times["enum"]
            per_program.append(entry)

    # Full-corpus engine-identity pass (capacity fallbacks count as ok).
    sat_ran = 0
    fallbacks = 0
    corpus_checks = 0
    for name, program in _corpus_programs():
        for model in MODELS:
            corpus_checks += 1
            a = check(program, model, engine="enum")
            b = check(program, model, engine="sat")
            if (a.legal, a.race_kinds, a.execution_classes) != \
                    (b.legal, b.race_kinds, b.execution_classes):
                raise AssertionError(
                    f"corpus verdict differs on {name}/{model}: "
                    f"enum={(a.legal, a.race_kinds, a.execution_classes)} "
                    f"sat={(b.legal, b.race_kinds, b.execution_classes)}"
                )
            if b.engine == "sat":
                sat_ran += 1
            else:
                fallbacks += 1

    incremental = _bench_solver_incremental(
        families, repeat=repeat, quick=quick,
    )
    router, calibration = _bench_solver_router(
        families, repeat=repeat, quick=quick,
    )

    headline = max(speedup_at_largest.values()) if speedup_at_largest else 0.0
    return {
        "families": [fam for fam, _ in families],
        "budget_s": budget_s,
        "max_threads": max_n,
        "repeat": repeat,
        # Top-level aggregates so ``--baseline`` diffs can track the
        # solver section (compare_baseline only reads top-level wall_s_*).
        "wall_s_scaling_sat": sum(
            row.get("wall_s_sat", 0.0) for row in per_program
        ),
        "wall_s_scaling_enum": sum(
            row.get("wall_s_enum", 0.0) for row in per_program
        ),
        "wall_s_corpus_oneshot": incremental["corpus"]["wall_s_oneshot"],
        "wall_s_corpus_incremental": incremental["corpus"][
            "wall_s_incremental"
        ],
        "crossover_threads": crossover,
        "speedup_at_largest_common": speedup_at_largest,
        "speedup": headline,
        "target_speedup": 5.0,
        "corpus_checks": corpus_checks,
        "corpus_sat": sat_ran,
        "corpus_capacity_fallbacks": fallbacks,
        "corpus_verdicts_identical": True,
        "per_program": per_program,
        "solver_incremental": incremental,
        "router": router,
        "calibration": calibration,
    }


def _canonical_keys(enumeration) -> set:
    return {e.canonical_key() for e in enumeration.executions}


def _bench_solver_incremental(families, repeat: int, quick: bool) -> Dict:
    """Shared-core (incremental) vs one-shot sat: timings + identity.

    One unit of work is the full 3-model audit of a program: the
    one-shot column encodes and solves each model from scratch, the
    incremental column serves all three models from one cold
    label-erased core.  Repeats interleave the two columns.
    """
    from repro.core.executions import enumerate_sc_executions
    from repro.core.model import MODELS, _prepare
    from repro.solver.bridge import clear_core_memo, sat_enumeration
    from repro.solver.encode import SolverCapacityError

    reps = max(1, repeat)

    def audit_oneshot(programs) -> float:
        t0 = time.perf_counter()
        for program in programs:
            for model in MODELS:
                sat_enumeration(_prepare(program, model), shared=False)
        return time.perf_counter() - t0

    def audit_incremental(programs) -> float:
        clear_core_memo()
        t0 = time.perf_counter()
        for program in programs:
            for model in MODELS:
                sat_enumeration(_prepare(program, model), shared=True)
        return time.perf_counter() - t0

    def assert_identity(program, expand: bool) -> None:
        clear_core_memo()
        for model in MODELS:
            prepared = _prepare(program, model)
            one = sat_enumeration(
                prepared, expand_registers=expand, shared=False,
            )
            inc = sat_enumeration(
                prepared, expand_registers=expand, shared=True,
            )
            if _canonical_keys(one) != _canonical_keys(inc):
                raise AssertionError(
                    f"incremental execution set differs on "
                    f"{program.name}/{model}"
                )
            if (one.interleavings, one.truncated_paths, one.stats.steps) != \
                    (inc.interleavings, inc.truncated_paths, inc.stats.steps):
                raise AssertionError(
                    f"incremental class accounting differs on "
                    f"{program.name}/{model}"
                )
            if one.solver_stats.counters() != inc.solver_stats.counters():
                raise AssertionError(
                    f"incremental solver counters differ on "
                    f"{program.name}/{model}"
                )
            if expand:
                ref = enumerate_sc_executions(prepared)
                if _canonical_keys(ref) != _canonical_keys(inc):
                    raise AssertionError(
                        f"sat execution set differs from enum on "
                        f"{program.name}/{model}"
                    )

    # -- sat-eligible corpus ------------------------------------------------
    eligible: List[Program] = []
    capacity_fallbacks = 0
    for _name, program in _corpus_programs():
        try:
            for model in MODELS:
                sat_enumeration(_prepare(program, model), shared=False)
            eligible.append(program)
        except SolverCapacityError:
            capacity_fallbacks += 1
    for program in eligible:
        assert_identity(program, expand=True)
    t_one = t_inc = None
    for _ in range(reps):
        elapsed = audit_oneshot(eligible)
        t_one = elapsed if t_one is None else min(t_one, elapsed)
        elapsed = audit_incremental(eligible)
        t_inc = elapsed if t_inc is None else min(t_inc, elapsed)
    corpus = {
        "programs": len(eligible),
        "checks": len(eligible) * len(MODELS),
        "capacity_fallbacks": capacity_fallbacks,
        "wall_s_oneshot": t_one,
        "wall_s_incremental": t_inc,
        "speedup": t_one / t_inc if t_inc and t_inc > 0 else float("inf"),
        "identity": True,
    }

    # -- scaling families at n >= 8 ----------------------------------------
    fam_rows: List[Dict] = []
    fam_reps = max(1, reps if quick else min(reps, 3))
    for fam, make in families:
        n = 8
        program = make(n)
        assert_identity(program, expand=False)
        f_one = f_inc = None
        for _ in range(fam_reps):
            elapsed = audit_oneshot([program])
            f_one = elapsed if f_one is None else min(f_one, elapsed)
            elapsed = audit_incremental([program])
            f_inc = elapsed if f_inc is None else min(f_inc, elapsed)
        fam_rows.append({
            "family": fam,
            "threads": n,
            "wall_s_oneshot": f_one,
            "wall_s_incremental": f_inc,
            "speedup": f_one / f_inc if f_inc and f_inc > 0 else float("inf"),
            "identity": True,
        })

    speedups = [corpus["speedup"]] + [row["speedup"] for row in fam_rows]
    return {
        "corpus": corpus,
        "families": fam_rows,
        "repeat": reps,
        "speedup": min(speedups),
        "target_speedup": 2.0,
    }


def _bench_solver_router(families, repeat: int, quick: bool) -> Tuple[Dict, Dict]:
    """Measure per-program enum vs sat check times, refit the router
    calibration, and verify it routes every measured program to the
    faster engine.

    Rows are grouped by feature vector (drf0/drf1 preparations of a
    program usually share one, drfrlx's quantum transformation gets its
    own), because that is the granularity the router decides at; a
    group's sat time is its share of the cold 3-model shared-core audit,
    so the amortized encode cost lands where it is actually paid.
    """
    from repro.core.model import MODELS, _prepare, check
    from repro.solver.bridge import clear_core_memo
    from repro.solver.router import decide, feature_key, fit_calibration
    from repro.solver.router import program_features

    reps = max(1, repeat)
    max_train_n = 5 if quick else 6
    train: List[Tuple[str, Program]] = list(_corpus_programs())
    for fam, make in families:
        for n in range(2, max_train_n + 1):
            program = make(n)
            train.append((program.name, program))

    rows: List[Dict] = []
    per_program: List[Dict] = []
    for name, program in train:
        groups: Dict[str, Dict] = {}
        order: List[str] = []
        for model in MODELS:
            prepared = _prepare(program, model)
            feats = program_features(prepared)
            key = feature_key(feats)
            if key not in groups:
                groups[key] = {
                    "features": feats, "models": [], "prepared": prepared,
                    "enum_s": None, "sat_s": None, "sat_ok": True,
                }
                order.append(key)
            groups[key]["models"].append(model)
        for _ in range(reps):
            enum_acc = {key: 0.0 for key in order}
            for model in MODELS:
                prepared = _prepare(program, model)
                key = feature_key(program_features(prepared))
                t0 = time.perf_counter()
                check(program, model, engine="enum")
                enum_acc[key] += time.perf_counter() - t0
            sat_acc = {key: 0.0 for key in order}
            clear_core_memo()
            for model in MODELS:
                prepared = _prepare(program, model)
                key = feature_key(program_features(prepared))
                t0 = time.perf_counter()
                result = check(program, model, engine="sat")
                sat_acc[key] += time.perf_counter() - t0
                if result.engine != "sat":
                    groups[key]["sat_ok"] = False
            for key in order:
                group = groups[key]
                if group["enum_s"] is None or enum_acc[key] < group["enum_s"]:
                    group["enum_s"] = enum_acc[key]
                if group["sat_ok"] and (
                    group["sat_s"] is None or sat_acc[key] < group["sat_s"]
                ):
                    group["sat_s"] = sat_acc[key]
        for key in order:
            group = groups[key]
            if not group["sat_ok"]:
                group["sat_s"] = None
            rows.append({
                "program": name,
                "models": group["models"],
                "key": key,
                "features": group["features"],
                "prepared": group["prepared"],
                "enum_s": group["enum_s"],
                "sat_s": group["sat_s"],
            })

    # The router is a pure function of the feature vector, so that is
    # the granularity it can be held to: distinct programs sharing one
    # vector (labels are erased from features on purpose) are merged
    # before fitting, else sub-millisecond timing noise between them
    # could demand contradictory pins for a single key.
    merged: Dict[str, Dict] = {}
    merged_order: List[str] = []
    for row in rows:
        key = row["key"]
        if key not in merged:
            merged[key] = {
                "programs": [], "models": 0, "features": row["features"],
                "prepared": row["prepared"], "enum_s": 0.0, "sat_s": 0.0,
                "sat_ok": True,
            }
            merged_order.append(key)
        group = merged[key]
        group["programs"].append(row["program"])
        group["models"] += len(row["models"])
        group["enum_s"] += row["enum_s"]
        if row["sat_s"] is None:
            group["sat_ok"] = False
        else:
            group["sat_s"] += row["sat_s"]

    calibration = fit_calibration(
        [
            {
                "features": merged[key]["features"],
                "enum_s": merged[key]["enum_s"],
                "sat_s": merged[key]["sat_s"] if merged[key]["sat_ok"]
                else None,
            }
            for key in merged_order
        ],
        fitted=date.today().isoformat(),
    )

    misroutes: List[str] = []
    for key in merged_order:
        group = merged[key]
        decision = decide(group["prepared"], calibration=calibration)
        enum_s = group["enum_s"]
        sat_s = group["sat_s"] if group["sat_ok"] else None
        chosen_s = sat_s if decision.engine == "sat" else enum_s
        best_s = enum_s if sat_s is None else min(enum_s, sat_s)
        speedup = best_s / chosen_s if chosen_s and chosen_s > 0 else 1.0
        if speedup < 1.0:
            misroutes.append(",".join(group["programs"]))
        per_program.append({
            "programs": group["programs"],
            "checks": group["models"],
            "decision": decision.payload(),
            "wall_s_enum": enum_s,
            "wall_s_sat": sat_s,
            "wall_s_chosen": chosen_s,
            "speedup": speedup,
        })
    if misroutes:
        raise AssertionError(
            f"router picked the slower engine for {misroutes} "
            "even after refitting — pins should have prevented this"
        )
    router = {
        "repeat": reps,
        "trained_programs": len(train),
        "trained_rows": len(merged_order),
        "pins": len(calibration["pins"]),
        "misroutes": 0,
        "min_speedup": min(
            (row["speedup"] for row in per_program), default=1.0
        ),
        "per_program": per_program,
    }
    return router, calibration


#: Litmus checks in the service bench's request mix — a spread of
#: verdicts and execution counts from the library.
_SERVE_CHECK_NAMES = (
    "mp_paired", "mp_data", "sb_data", "sb_paired", "lb_non_ordering",
    "flags", "split_counter", "ref_counter",
)


def bench_serve(
    scale: float = 0.05,
    jobs: Optional[int] = None,
    check_names: Sequence[str] = _SERVE_CHECK_NAMES,
    sweep_names: Sequence[str] = ("SC", "SEQ"),
) -> Dict:
    """Load-test the checker service: a mixed litmus+sweep batch, cold
    (empty response cache) then warm (same cache directory), through
    :func:`repro.serve.generate_load`.

    Also the service's end-to-end equivalence check: the cold responses,
    the warm (cache-hit) responses, and direct
    :func:`repro.api.handle_request` calls must all be byte-identical
    under the canonical codec.  Target: warm cache-hit requests >=10x
    faster than cold.
    """
    import tempfile

    from repro.api import encode, handle_request
    from repro.serve import generate_load

    requests = [
        {
            "schema_version": 1,
            "kind": "check",
            "id": f"check-{name}",
            "program": {"name": name},
        }
        for name in check_names
    ] + [
        {
            "schema_version": 1,
            "kind": "sweep",
            "id": f"sweep-{name}",
            "workloads": [name],
            "scale": scale,
        }
        for name in sweep_names
    ]

    with tempfile.TemporaryDirectory() as root:
        cold = generate_load(list(requests), jobs=jobs, cache=root)
        warm = generate_load(list(requests), jobs=jobs, cache=root)
        direct = [encode(handle_request(dict(r))) for r in requests]

    cold_encoded = [encode(r) for r in cold.responses]
    warm_encoded = [encode(r) for r in warm.responses]
    identical = cold_encoded == warm_encoded == direct
    if not identical:
        raise AssertionError(
            "service responses are not byte-identical across "
            "cold / warm / direct-api runs"
        )
    if any(not r.get("ok") for r in cold.responses):
        raise AssertionError("service bench request failed")
    return {
        "requests": len(requests),
        "checks": len(check_names),
        "sweeps": len(sweep_names),
        "scale": scale,
        "workers": cold.workers,
        "wall_s_cold": cold.wall_s,
        "wall_s_warm": warm.wall_s,
        "speedup": (
            cold.wall_s / warm.wall_s if warm.wall_s > 0 else float("inf")
        ),
        "target_speedup": 10.0,
        "requests_per_s_cold": cold.requests_per_s,
        "requests_per_s_warm": warm.requests_per_s,
        "p50_ms_cold": cold.percentile(0.50) * 1000,
        "p99_ms_cold": cold.percentile(0.99) * 1000,
        "p50_ms_warm": warm.percentile(0.50) * 1000,
        "p99_ms_warm": warm.percentile(0.99) * 1000,
        "identical": identical,
    }


def bench_batch(
    count: int = 500,
    seed: int = 0,
    repeat: int = 3,
    chunk: int = 25,
) -> Dict:
    """Batched checking vs the naive per-program loop, byte-identical.

    Checks *count* fuzz-generated programs (seed *seed*) against all
    three models two ways: a naive ``model.check`` loop (one fresh call
    per (program, model) cell) and one :func:`repro.batch.check_many`
    call per *chunk*-program slice with ``jobs=1``, so the measured gap
    is amortization alone — shared enumerations relabeled per model,
    shared race classification, memoized engine routing — not
    parallelism.  Both arms run the same pipeline; ``check`` is its
    one-cell case, and every memo lives for one call.

    The 1-CPU bench host's clock drifts tens of percent between
    measurement windows, so the arms are interleaved ABBA over *chunk*-
    program slices (naive-first on even chunks, batch-first on odd) and
    timed with ``time.process_time``; linear drift then cancels instead
    of landing on whichever arm ran second.  The recorded ``speedup``
    compares each arm's best-of-*repeat* CPU time — the harness's usual
    noise filter (noise only ever adds time) — with the raw
    per-repetition ratios alongside.

    Also the pipeline's end-to-end equivalence check: every repetition
    asserts the 3 * count batched payloads are byte-identical to the
    naive ones under the canonical v1 encoding.  Target: >=2x checks/sec
    on one CPU.
    """
    from repro.api.core import _check_payload
    from repro.batch import check_many
    from repro.core.model import MODELS, check
    from repro.litmus.fuzz import generate

    programs = generate(seed, count)
    models = list(MODELS)

    def run_naive(slice_):
        start = time.process_time()
        out = [check(p, m) for p in slice_ for m in models]
        return out, time.process_time() - start

    def run_batch(slice_):
        start = time.process_time()
        out = list(check_many(slice_, models=models, jobs=1))
        return out, time.process_time() - start

    # Warm both code paths (imports, calibration tables) off the clock.
    warm = programs[: min(chunk, count)]
    run_naive(warm)
    run_batch(warm)

    encode_payload = lambda r: json.dumps(  # noqa: E731 - local shorthand
        _check_payload(r), sort_keys=True, default=repr
    )
    ratios: List[float] = []
    cpu_naive = cpu_batched = float("inf")
    wall_naive = wall_batched = float("inf")
    for _ in range(max(1, repeat)):
        t_naive = t_batched = 0.0
        w_naive = w_batched = 0.0
        naive: List = []
        batched: List = []
        for index, offset in enumerate(range(0, len(programs), chunk)):
            slice_ = programs[offset:offset + chunk]
            order = (
                (run_naive, run_batch) if index % 2 == 0
                else (run_batch, run_naive)
            )
            for arm in order:
                wall = time.perf_counter()
                out, cpu = arm(slice_)
                wall = time.perf_counter() - wall
                if arm is run_naive:
                    naive += out
                    t_naive += cpu
                    w_naive += wall
                else:
                    batched += out
                    t_batched += cpu
                    w_batched += wall
        if [encode_payload(r) for r in naive] != \
                [encode_payload(r) for r in batched]:
            raise AssertionError(
                "check_many payloads are not byte-identical to the naive "
                "per-program model.check loop"
            )
        ratios.append(t_naive / t_batched if t_batched > 0 else float("inf"))
        cpu_naive = min(cpu_naive, t_naive)
        cpu_batched = min(cpu_batched, t_batched)
        wall_naive = min(wall_naive, w_naive)
        wall_batched = min(wall_batched, w_batched)

    cells = len(programs) * len(models)
    speedup = cpu_naive / cpu_batched if cpu_batched > 0 else float("inf")
    return {
        "programs": len(programs),
        "models": len(models),
        "checks": cells,
        "seed": seed,
        "chunk": chunk,
        "repeat": max(1, repeat),
        "wall_s_naive": wall_naive,
        "wall_s_batched": wall_batched,
        "cpu_s_naive": cpu_naive,
        "cpu_s_batched": cpu_batched,
        "ratios": ratios,
        "speedup": speedup,
        "target_speedup": 2.0,
        "checks_per_s_naive": cells / cpu_naive if cpu_naive > 0 else 0.0,
        "checks_per_s_batched": (
            cells / cpu_batched if cpu_batched > 0 else 0.0
        ),
        "identical": True,
    }


#: The sections ``run_bench`` knows, in run order.
SECTIONS = (
    "enumeration", "relcheck", "solver", "sweep", "simgen", "cache",
    "tracing", "serve", "batch",
)

#: Fractional wall-time increase over the baseline that
#: :func:`compare_baseline` flags as a regression.
REGRESSION_THRESHOLD = 0.20

#: Absolute wall-time increase (seconds) a metric must also exceed
#: before it is flagged.  Sub-100ms timings on a shared 1-CPU runner
#: jitter well past 20% run to run; without a floor the
#: ``--baseline-fail`` gate fires on noise, not drift.
REGRESSION_FLOOR_S = 0.1

#: Prefix of the budget-truncated scaling totals: ``wall_s_scaling_<e>``
#: sums the ``wall_s_<e>`` column of the section's ``per_program`` rows,
#: which hold only the sizes engine ``<e>`` reached within its budget.
_SCALING_PREFIX = "wall_s_scaling_"


def _scaling_rows(section: Dict, key: str) -> Optional[frozenset]:
    """The programs a scaling total *key* sums over (``None`` for any
    other metric, which is a fixed timing)."""
    if not key.startswith(_SCALING_PREFIX):
        return None
    column = "wall_s_" + key[len(_SCALING_PREFIX):]
    return frozenset(
        row.get("program") for row in section.get("per_program", ())
        if isinstance(row, dict) and column in row
    )


def compare_baseline(record: Dict, baseline: Dict) -> List[str]:
    """Diff two ``BENCH_<date>.json`` records section by section.

    Compares every top-level ``wall_s_*`` timing of each section present
    in both records and returns one line per metric; increases past
    :data:`REGRESSION_THRESHOLD` that also grow by more than
    :data:`REGRESSION_FLOOR_S` absolute are suffixed with a
    ``WARNING``.  A budget-truncated scaling total
    (``wall_s_scaling_*``) is compared only when both records summed it
    over the same per-program rows; otherwise its line reads
    ``UNCOMPARABLE`` and never counts as a regression.  Used by
    ``python -m repro bench --baseline OLD.json`` to turn the perf
    trajectory the JSON records accumulate into an actionable diff.
    """
    lines: List[str] = []
    warnings = 0
    for section in SECTIONS:
        current, base = record.get(section), baseline.get(section)
        if not isinstance(current, dict) or not isinstance(base, dict):
            continue
        for key in sorted(current):
            if not key.startswith("wall_s_"):
                continue
            after, before = current[key], base.get(key)
            if not isinstance(before, (int, float)) or before <= 0 or \
                    not isinstance(after, (int, float)):
                continue
            rows_after = _scaling_rows(current, key)
            rows_before = _scaling_rows(base, key)
            if rows_after != rows_before:
                lines.append(
                    f"{section}.{key[len('wall_s_'):]}: UNCOMPARABLE "
                    f"(summed over {len(rows_before)} baseline rows vs "
                    f"{len(rows_after)} now; the budget cut a different "
                    f"set of sizes)"
                )
                continue
            delta = after / before - 1.0
            tag = ""
            if delta > REGRESSION_THRESHOLD and \
                    after - before > REGRESSION_FLOOR_S:
                tag = f"  WARNING: >{REGRESSION_THRESHOLD:.0%} regression"
                warnings += 1
            lines.append(
                f"{section}.{key[len('wall_s_'):]}: "
                f"{before * 1000:.1f}ms -> {after * 1000:.1f}ms "
                f"({delta:+.1%}){tag}"
            )
    if not lines:
        lines.append("no comparable wall_s_* metrics between the records")
    else:
        lines.append(
            f"{warnings} regression warning(s) past "
            f"{REGRESSION_THRESHOLD:.0%}" if warnings else
            f"no regressions past {REGRESSION_THRESHOLD:.0%}"
        )
    return lines


def baseline_regressions(record: Dict, baseline: Dict) -> int:
    """Number of wall-time regressions past :data:`REGRESSION_THRESHOLD`.

    The machine-readable companion to :func:`compare_baseline`, used by
    ``python -m repro bench --baseline OLD.json --baseline-fail`` to turn
    a perf drift into a non-zero exit (CI's perf-smoke gate).
    """
    return sum(
        1 for line in compare_baseline(record, baseline) if "WARNING" in line
    )


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def run_bench(
    out_dir: str = ".",
    scale: float = 0.25,
    jobs: Optional[int] = None,
    repeat: int = 3,
    sweep_names: Sequence[str] = MICRO_NAMES,
    enum_programs: Optional[Sequence[Tuple[str, Program]]] = None,
    stress: bool = True,
    engine: str = "auto",
    sections: Optional[Sequence[str]] = None,
    quick: bool = False,
) -> str:
    """Run the benchmarks and write ``BENCH_<date>.json``; returns the path.

    ``engine`` selects the simulator engine for the sweep section
    (serial vs parallel); the simgen section always compares every
    engine regardless.  ``sections`` restricts the run to a subset of
    :data:`SECTIONS` (the CLI's ``--section relcheck,simgen``); unknown
    names raise with the allowed set.  ``quick`` shrinks the solver
    section's scaling sweep (the CLI's ``--quick`` also shrinks scale,
    repeat and the workload set through the other parameters).
    """
    if sections is None:
        sections = SECTIONS
    else:
        unknown = [s for s in sections if s not in SECTIONS]
        if unknown:
            raise ValueError(
                f"unknown bench section(s) {unknown!r}; "
                f"expected a subset of {SECTIONS}"
            )
    runners = {
        "enumeration": lambda: bench_enumeration(
            programs=enum_programs, repeat=repeat, stress=stress
        ),
        "relcheck": lambda: bench_relcheck(repeat=repeat),
        "solver": lambda: bench_solver(repeat=repeat, quick=quick),
        "sweep": lambda: bench_sweep(
            scale=scale, jobs=jobs, names=sweep_names, engine=engine
        ),
        "simgen": lambda: bench_simgen(
            scale=scale, names=sweep_names, repeat=repeat
        ),
        "cache": lambda: bench_cache(scale=scale, names=sweep_names),
        "tracing": lambda: bench_tracing(
            scale=min(scale, 0.2), workload=sweep_names[0], repeat=repeat
        ),
        "serve": lambda: bench_serve(scale=min(scale, 0.05), jobs=jobs),
        "batch": lambda: bench_batch(
            count=120 if quick else 500, repeat=min(repeat, 2) if quick
            else repeat,
        ),
    }
    record = {
        "date": date.today().isoformat(),
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "platform": platform.platform(),
        },
    }
    for section in SECTIONS:
        if section in sections:
            record[section] = runners[section]()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"BENCH_{date.today().strftime('%Y%m%d')}.json"
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    calibration = record.get("solver", {}).get("calibration")
    if calibration:
        cal_path = os.path.join(out_dir, "calibration.json")
        with open(cal_path, "w") as handle:
            json.dump(calibration, handle, indent=2)
            handle.write("\n")
    return path


def summarize(record: Dict) -> str:
    """One line per benchmark section of a ``BENCH_<date>.json`` record."""
    lines: List[str] = []
    enum = record.get("enumeration")
    if enum:
        lines.append(
            f"enumeration: {enum['programs']} programs, "
            f"{enum['wall_s_naive']*1000:.1f}ms naive -> "
            f"{enum['wall_s_default']*1000:.1f}ms default "
            f"({enum['speedup']:.2f}x; paths {enum['paths_naive']} -> "
            f"{enum['paths_default']}, por_pruned={enum['por_pruned']}, "
            f"memo_hits={enum['memo_hits']})"
        )
    relcheck = record.get("relcheck")
    if relcheck:
        lines.append(
            f"relcheck: {relcheck['checks']} checks "
            f"({relcheck['executions']} executions -> "
            f"{relcheck['execution_classes']} classes), "
            f"{relcheck['wall_s_pairs']*1000:.1f}ms pairs -> "
            f"{relcheck['wall_s_dense']*1000:.1f}ms dense+dedup "
            f"({relcheck['speedup']:.2f}x, "
            f"target >={relcheck['target_speedup']:.1f}x; "
            f"witnesses identical: {relcheck['witnesses_identical']})"
        )
    solver = record.get("solver")
    if solver:
        crossings = ", ".join(
            f"{fam} n={n}" if n is not None else f"{fam} n=-"
            for fam, n in sorted(solver["crossover_threads"].items())
        )
        lines.append(
            f"solver: scaling families to n={solver['max_threads']}, "
            f"sat wins from {crossings}; "
            f"{solver['speedup']:.1f}x at largest common n "
            f"(target >={solver['target_speedup']:.0f}x); corpus "
            f"{solver['corpus_checks']} checks identical "
            f"({solver['corpus_sat']} sat, "
            f"{solver['corpus_capacity_fallbacks']} capacity fallbacks)"
        )
        inc = solver.get("solver_incremental")
        if inc:
            corpus = inc["corpus"]
            fams = ", ".join(
                f"{row['family']}@n={row['threads']} {row['speedup']:.2f}x"
                for row in inc["families"]
            )
            lines.append(
                f"solver/incremental: corpus 3-model audit "
                f"{corpus['wall_s_oneshot']*1000:.1f}ms one-shot -> "
                f"{corpus['wall_s_incremental']*1000:.1f}ms shared "
                f"({corpus['speedup']:.2f}x over {corpus['programs']} "
                f"programs; {fams}; min {inc['speedup']:.2f}x, "
                f"target >={inc['target_speedup']:.1f}x; identity held)"
            )
        router = solver.get("router")
        if router:
            lines.append(
                f"solver/router: calibrated on {router['trained_rows']} "
                f"rows from {router['trained_programs']} programs, "
                f"{router['pins']} pins, {router['misroutes']} misroutes "
                f"(min per-program speedup {router['min_speedup']:.2f}x)"
            )
    sweep = record.get("sweep")
    if sweep and sweep.get("serial_fallback"):
        lines.append(
            f"sweep: {sweep['simulations']} sims at scale {sweep['scale']}, "
            f"{sweep['wall_s_serial']:.2f}s serial (auto serial fallback; "
            f"csv identical: {sweep['csv_identical']})"
        )
    elif sweep:
        lines.append(
            f"sweep: {sweep['simulations']} sims at scale {sweep['scale']}, "
            f"{sweep['wall_s_serial']:.2f}s serial -> "
            f"{sweep['wall_s_parallel']:.2f}s with {sweep['jobs']} workers "
            f"({sweep['speedup']:.2f}x; csv identical: {sweep['csv_identical']})"
        )
    simgen = record.get("simgen")
    if simgen:
        vec_note = ""
        if "wall_s_vectorized" in simgen:
            vec_note = (
                f" -> {simgen['wall_s_vectorized']:.2f}s vectorized "
                f"({simgen['speedup_vectorized']:.2f}x ref, "
                f"{simgen['speedup_vectorized_vs_compiled']:.2f}x compiled)"
            )
        lines.append(
            f"simgen: {simgen['simulations']} sims at scale {simgen['scale']}, "
            f"{simgen['wall_s_reference']:.2f}s reference -> "
            f"{simgen['wall_s_compiled']:.2f}s compiled "
            f"({simgen['speedup']:.2f}x, "
            f"target >={simgen['target_speedup']:.1f}x"
            f"{vec_note}; "
            f"csv identical: {simgen['csv_identical']})"
        )
    cache = record.get("cache")
    if cache:
        lines.append(
            f"cache: {cache['simulations']} sims, "
            f"{cache['wall_s_cold']:.2f}s cold -> "
            f"{cache['wall_s_warm']:.3f}s warm "
            f"({cache['speedup']:.1f}x, target >={cache['target_speedup']:.0f}x; "
            f"csv identical: {cache['csv_identical']})"
        )
    tracing = record.get("tracing")
    if tracing:
        lines.append(
            f"tracing: {tracing['workload']} at scale {tracing['scale']}, "
            f"no-op tracer overhead {tracing['noop_overhead']*100:+.1f}% "
            f"(budget <5%); enabled {tracing['traced_overhead']*100:+.1f}% "
            f"for {tracing['events']} events"
        )
    serve = record.get("serve")
    if serve:
        lines.append(
            f"serve: {serve['requests']} requests "
            f"({serve['checks']} checks + {serve['sweeps']} sweeps), "
            f"{serve['wall_s_cold']:.2f}s cold -> "
            f"{serve['wall_s_warm']:.3f}s warm "
            f"({serve['speedup']:.1f}x, target >={serve['target_speedup']:.0f}x; "
            f"warm p50 {serve['p50_ms_warm']:.1f}ms / "
            f"p99 {serve['p99_ms_warm']:.1f}ms, "
            f"{serve['requests_per_s_warm']:.0f} req/s; "
            f"identical: {serve['identical']})"
        )
    batch = record.get("batch")
    if batch:
        lines.append(
            f"batch: {batch['programs']} fuzz programs x {batch['models']} "
            f"models ({batch['checks']} checks), cpu "
            f"{batch['cpu_s_naive']:.2f}s naive loop -> "
            f"{batch['cpu_s_batched']:.2f}s check_many "
            f"({batch['speedup']:.2f}x best-of-{batch['repeat']}, "
            f"target >={batch['target_speedup']:.1f}x; "
            f"{batch['checks_per_s_batched']:.0f} checks/s; "
            f"identical: {batch['identical']})"
        )
    return "\n".join(lines)
