"""Evaluation harness: run workloads over the six configurations and
collect the execution-time / energy observations behind Figures 3 and 4.

The sweep is embarrassingly parallel — every (workload, configuration)
pair is an independent simulation — so :func:`run_sweep` fans the grid
out over a process pool when asked (``jobs`` argument; see
:mod:`repro.perf.pool` — ``jobs=1`` runs serially in-process,
``jobs=None`` resolves via ``REPRO_JOBS`` then the CPU count).  Results
are collected in deterministic task order, so figures, tables and CSV
exports are byte-identical regardless of worker count.

Pass ``trace_dir`` to record a per-(workload, configuration) event
trace (see :mod:`repro.obs`): each cell writes
``<workload>_<CFG>.jsonl`` and ``<workload>_<CFG>.trace.json`` (Chrome
``trace_event``, Perfetto-loadable) into that directory.  Tracing
happens inside the worker that runs the cell, so it composes with the
process pool, and it never touches the returned observations — CSVs and
figures stay byte-identical with tracing on.

Pass ``cache`` to memoize per-cell observations on disk between
processes (see :mod:`repro.perf.cache`): cells whose (workload, scale,
configuration, energy model, simulator sources) key is already stored
skip simulation entirely, and only the misses are dispatched to the
pool.  Cached and cold sweeps return value-identical observations, so
CSVs stay byte-identical.  Tracing bypasses the cache (a cached cell
has no events to record), and so do workloads registered outside
``repro.workloads`` (their code is not fingerprinted by the key).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.energy.model import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.metrics import CACHE_HIT, CACHE_MISS, MetricSet
from repro.obs.tracer import Tracer
from repro.perf.cache import (
    SWEEP_CODE_PACKAGES,
    CacheSpec,
    ResultCache,
    code_fingerprint,
    resolve_cache,
)
from repro.perf.pool import parallel_map
from repro.sim import ENGINES
from repro.sim.config import INTEGRATED, SystemConfig
from repro.sim.system import CONFIG_ABBREV, all_configurations, run_workload
from repro.workloads.base import BENCH_NAMES, FIGURE1_NAMES, MICRO_NAMES, get

#: Figure 3/4 configuration order.
CONFIG_ORDER = ("GD0", "GD1", "GDR", "DD0", "DD1", "DDR")


@dataclass
class Observation:
    """One (workload, configuration) measurement."""

    workload: str
    config: str  # GD0..DDR
    cycles: float
    energy_nj: Dict[str, float]  # per component

    @property
    def total_energy(self) -> float:
        return sum(self.energy_nj.values())


@dataclass
class SweepResult:
    """All configurations for a set of workloads, normalized to GD0.

    ``cache_hits``/``cache_misses`` count how many cells were served
    from / stored into the result cache (both stay 0 when the sweep ran
    uncached); :meth:`metrics` surfaces them as
    :mod:`repro.obs.metrics` counters.
    """

    observations: Dict[Tuple[str, str], Observation] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0

    def add(self, obs: Observation) -> None:
        self.observations[(obs.workload, obs.config)] = obs

    def metrics(self) -> MetricSet:
        """Cache traffic as a :class:`~repro.obs.metrics.MetricSet`."""
        counters = MetricSet()
        if self.cache_hits:
            counters.bump(CACHE_HIT, self.cache_hits)
        if self.cache_misses:
            counters.bump(CACHE_MISS, self.cache_misses)
        return counters

    def workloads(self) -> Tuple[str, ...]:
        names: List[str] = []
        for wl, _ in self.observations:
            if wl not in names:
                names.append(wl)
        return tuple(names)

    def get(self, workload: str, config: str) -> Observation:
        try:
            return self.observations[(workload, config)]
        except KeyError:
            raise KeyError(
                f"sweep has no observation for workload {workload!r} under "
                f"config {config!r}; the sweep is partial (have "
                f"{sorted(self.observations)})"
            ) from None

    # -- normalized views (the Figure 3/4 bar heights) ---------------------------
    def normalized_time(self, workload: str) -> Dict[str, float]:
        base = self.get(workload, "GD0").cycles
        return {
            cfg: self.get(workload, cfg).cycles / base for cfg in CONFIG_ORDER
        }

    def normalized_energy(self, workload: str) -> Dict[str, Dict[str, float]]:
        base = self.get(workload, "GD0").total_energy
        out: Dict[str, Dict[str, float]] = {}
        for cfg in CONFIG_ORDER:
            obs = self.get(workload, cfg)
            out[cfg] = {k: v / base for k, v in obs.energy_nj.items()}
        return out

    def average_reduction(self, config: str, baseline: str = "GD0") -> float:
        """Mean execution-time reduction of *config* vs *baseline* across
        workloads (the Section 6 headline averages)."""
        reductions = []
        for wl in self.workloads():
            b = self.get(wl, baseline).cycles
            c = self.get(wl, config).cycles
            reductions.append(1.0 - c / b)
        return sum(reductions) / len(reductions) if reductions else 0.0

    def average_energy_reduction(self, config: str, baseline: str = "GD0") -> float:
        reductions = []
        for wl in self.workloads():
            b = self.get(wl, baseline).total_energy
            c = self.get(wl, config).total_energy
            reductions.append(1.0 - c / b)
        return sum(reductions) / len(reductions) if reductions else 0.0


# -- sweep task plumbing -------------------------------------------------------

#: One simulation: (workload name, protocol, model, config, scale,
#: energy model, trace directory or None, engine).
_SweepTask = Tuple[str, str, str, SystemConfig, float, EnergyModel, Optional[str], str]


def _sweep_tasks(
    workload_names: Sequence[str],
    config: SystemConfig,
    scale: float,
    energy_model: EnergyModel,
    trace_dir: Optional[str] = None,
    engine: str = "auto",
) -> List[_SweepTask]:
    return [
        (name, protocol, model, config, scale, energy_model, trace_dir, engine)
        for name in workload_names
        for protocol, model in all_configurations()
    ]


#: Per-process memo of (built kernel, compiled form) for the cell the
#: pool worker is currently sweeping.  Tasks are workload-major, and so
#: is each worker's strided chunk of them, so the configurations of one
#: (workload, scale, config) a worker runs hit the same entry back to
#: back: each worker lowers a kernel at most once per sweep.
_CELL_MEMO: Dict[Tuple, Tuple] = {}
_CELL_MEMO_CAP = 4


def _compiled_cell(name: str, config: SystemConfig, scale: float) -> Tuple:
    """The cell's kernel plus its compiled form, memoized per worker
    process so one lowering serves all six configurations."""
    from repro.sim.compile import compile_kernel

    key = (name, scale, tuple(sorted(asdict(config).items())))
    entry = _CELL_MEMO.get(key)
    if entry is None:
        kernel = get(name).build(config, scale)
        fast = compile_kernel(kernel, config)
        entry = (kernel, fast)
        while len(_CELL_MEMO) >= _CELL_MEMO_CAP:
            _CELL_MEMO.pop(next(iter(_CELL_MEMO)))
        _CELL_MEMO[key] = entry
    return entry


def _run_sweep_task(task: _SweepTask) -> Observation:
    """Worker for one (workload, configuration) cell; module-level so it is
    picklable by reference into a process pool."""
    name, protocol, model, config, scale, energy_model, trace_dir, engine = task
    tracer = Tracer() if trace_dir is not None else None
    compiled = None
    if engine != "reference" and tracer is None:
        kernel, compiled = _compiled_cell(name, config, scale)
    else:
        kernel = get(name).build(config, scale)
    result = run_workload(
        kernel, protocol, model, config, tracer=tracer,
        engine=engine, compiled=compiled,
    )
    cfg = CONFIG_ABBREV[(protocol, model)]
    if tracer is not None:
        stem = f"{name}_{cfg}"
        out = Path(trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_jsonl(tracer, str(out / f"{stem}.jsonl"))
        write_chrome_trace(
            tracer, str(out / f"{stem}.trace.json"), process_name=stem
        )
    return Observation(
        workload=name,
        config=cfg,
        cycles=result.cycles,
        energy_nj=energy_model.breakdown(result.stats),
    )


def _cell_cacheable(name: str) -> bool:
    """Only workloads defined inside ``repro.workloads`` are cached: the
    sweep key fingerprints that package's sources, so a builder living
    elsewhere could change without invalidating its entries."""
    builder = get(name).builder
    return getattr(builder, "__module__", "").startswith("repro.workloads")


def _cell_key(store: ResultCache, task: _SweepTask, code: str) -> str:
    # The engine is deliberately absent from the key: every engine is
    # required (and tested) to produce identical observations, so cached
    # cells are shared across them.
    name, protocol, model, config, scale, energy_model = task[:6]
    return store.key(
        "sweep_cell",
        {
            "workload": name,
            "protocol": protocol,
            "model": model,
            "scale": scale,
            "config": asdict(config),
            "energy": asdict(energy_model),
            "code": code,
        },
    )


def encode_observation(obs: Observation) -> Dict:
    """One sweep cell as a plain JSON-able dict.

    This is the shared wire/storage codec for observations: the result
    cache stores cells in this shape, and the v1 API/service protocol
    (``repro.api``, ``docs/serve.md``) embeds it verbatim in sweep
    result payloads, so cached cells and service responses round-trip
    through the same :func:`decode_observation`.
    """
    return {
        "workload": obs.workload,
        "config": obs.config,
        "cycles": obs.cycles,
        "energy_nj": obs.energy_nj,
    }


def decode_observation(value) -> Optional[Observation]:
    """The encoded cell back as an :class:`Observation`; ``None`` (a
    cache miss / malformed payload) when the shape is not one."""
    try:
        return Observation(
            workload=value["workload"],
            config=value["config"],
            cycles=float(value["cycles"]),
            energy_nj={str(k): float(v) for k, v in value["energy_nj"].items()},
        )
    except (TypeError, KeyError, ValueError, AttributeError):
        return None


def run_sweep(
    workload_names: Sequence[str],
    config: SystemConfig = INTEGRATED,
    scale: float = 1.0,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    jobs: Optional[int] = 1,
    trace_dir: Optional[str] = None,
    cache: CacheSpec = None,
    engine: str = "auto",
) -> SweepResult:
    """Run every named workload on all six configurations.

    ``jobs=1`` (the default) runs serially in-process; ``jobs=None``
    resolves a worker count via ``REPRO_JOBS`` then the CPU count;
    ``jobs=N`` fans the grid out over a process pool of N workers.
    Unpicklable tasks (e.g. workloads registered only in this process)
    fall back to the serial path.  Observations are collected in task
    order, so results are byte-identical regardless of worker count.

    ``trace_dir`` records a per-cell event trace (JSONL + Chrome
    ``trace_event``) into that directory without touching the returned
    observations.

    ``cache`` is a :data:`~repro.perf.cache.CacheSpec` (default: the
    ``REPRO_CACHE`` environment variable, i.e. off): known cells are
    read back from disk instead of re-simulated, and only the misses
    are dispatched.  Tracing bypasses the cache.

    ``engine`` selects the simulator's execution engine (see
    :data:`repro.sim.ENGINES`): ``"auto"`` takes the compiled
    fast path unless the cell is being traced, ``"reference"`` forces the
    instrumented interpreter.  Every engine produces identical
    observations — and therefore identical CSVs and figures — so the
    choice is purely a wall-clock one.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    tasks = _sweep_tasks(
        workload_names, config, scale, energy_model, trace_dir, engine
    )
    store = resolve_cache(cache) if trace_dir is None else None
    return _run_cells(tasks, store, jobs)


def _run_cells(
    tasks: Sequence[_SweepTask], store: Optional[ResultCache], jobs: Optional[int]
) -> SweepResult:
    """The cell path every sweep shares: read known cells from *store*,
    dispatch only the misses over the pool, store what they observed."""
    sweep = SweepResult()
    code = code_fingerprint(SWEEP_CODE_PACKAGES) if store is not None else ""
    results: List[Optional[Observation]] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    miss_indices: List[int] = []
    for index, task in enumerate(tasks):
        if store is not None and _cell_cacheable(task[0]):
            key = _cell_key(store, task, code)
            found, value = store.get(key)
            obs = decode_observation(value) if found else None
            if obs is not None:
                results[index] = obs
                sweep.cache_hits += 1
                continue
            keys[index] = key
            sweep.cache_misses += 1
        miss_indices.append(index)

    miss_tasks = [tasks[i] for i in miss_indices]
    for index, obs in zip(
        miss_indices, parallel_map(_run_sweep_task, miss_tasks, jobs=jobs)
    ):
        results[index] = obs
        if keys[index] is not None:
            store.put(keys[index], encode_observation(obs))
    for obs in results:
        assert obs is not None
        sweep.add(obs)
    return sweep


def micro_names() -> Tuple[str, ...]:
    return MICRO_NAMES


def bench_names() -> Tuple[str, ...]:
    return BENCH_NAMES


def run_figure3(
    scale: float = 1.0,
    jobs: Optional[int] = None,
    trace_dir: Optional[str] = None,
    cache: CacheSpec = None,
    engine: str = "auto",
) -> SweepResult:
    """Figure 3: all microbenchmarks, 6 configurations."""
    return run_sweep(
        micro_names(), scale=scale, jobs=jobs, trace_dir=trace_dir,
        cache=cache, engine=engine,
    )


def run_figure4(
    scale: float = 1.0,
    jobs: Optional[int] = None,
    trace_dir: Optional[str] = None,
    cache: CacheSpec = None,
    engine: str = "auto",
) -> SweepResult:
    """Figure 4: UTS + BC(4 graphs) + PR(4 graphs), 6 configurations."""
    return run_sweep(
        bench_names(), scale=scale, jobs=jobs, trace_dir=trace_dir,
        cache=cache, engine=engine,
    )


def run_figure1(
    scale: float = 1.0,
    jobs: Optional[int] = None,
    cache: CacheSpec = None,
) -> Dict[str, float]:
    """Figure 1: relaxed vs SC atomics speedup on a discrete GPU.

    For each atomic-heavy workload, the speedup of GPU coherence with
    DRFrlx (relaxed atomics honored) over GPU coherence with DRF0 (every
    atomic treated as an SC atomic), on the discrete-GPU configuration.
    The two cells (GDR and GD0) run as sweep tasks, so they share the
    sweep's cache and dispatch.
    """
    from repro.sim.config import DISCRETE

    tasks = [
        (name, "gpu", model, DISCRETE, scale, DEFAULT_ENERGY_MODEL, None, "auto")
        for name in FIGURE1_NAMES
        for model in ("drf0", "drfrlx")
    ]
    sweep = _run_cells(tasks, resolve_cache(cache), jobs)
    return {
        name: sweep.get(name, "GD0").cycles / sweep.get(name, "GDR").cycles
        for name in FIGURE1_NAMES
    }
