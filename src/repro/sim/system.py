"""The simulated heterogeneous system: CUs + mesh + L2 under one of the
six configurations (Section 4.3: {GPU, DeNovo} x {DRF0, DRF1, DRFrlx})."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.obs import metrics as S
from repro.obs.metrics import record_resolution
from repro.sim.coherence import PROTOCOLS
from repro.sim.config import INTEGRATED, SystemConfig
from repro.sim.consistency import MODELS, ConsistencyModel
from repro.sim.core.cu import ComputeUnit
from repro.sim.engine import EventLoop
from repro.sim.mem.l2 import L2System
from repro.sim.noc.mesh import Mesh
from repro.obs.metrics import MetricSet
from repro.sim.trace import Kernel, Phase

#: Fixed cost of a global barrier between phases (kernel relaunch /
#: grid-wide join), identical across configurations.
GLOBAL_BARRIER_CYCLES = 200.0

#: Execution engines: "auto" runs the compiled fast path
#: (:mod:`repro.sim.compile`) where it is exact, and the reference
#: interpreter otherwise — with a live tracer (the fast path carries no
#: instrumentation), on a protocol other than GPU or DeNovo coherence,
#: and on a trace with fractional statistics bumps; "reference" forces
#: the interpreter.  Both produce identical results — the reference
#: interpreter is the oracle the fast path is tested against.
ENGINES = ("auto", "reference")

CONFIG_ABBREV = {
    ("gpu", "drf0"): "GD0",
    ("gpu", "drf1"): "GD1",
    ("gpu", "drfrlx"): "GDR",
    ("denovo", "drf0"): "DD0",
    ("denovo", "drf1"): "DD1",
    ("denovo", "drfrlx"): "DDR",
}


@dataclass
class RunResult:
    """Outcome of running one kernel on one configuration."""

    workload: str
    protocol: str
    model: str
    cycles: float
    stats: MetricSet
    phase_cycles: Tuple[float, ...]

    @property
    def config_name(self) -> str:
        abbrev = CONFIG_ABBREV.get((self.protocol, self.model))
        return abbrev if abbrev else f"{self.protocol}+{self.model}"


class System:
    """One simulated machine instance (single use: build, run, read stats)."""

    def __init__(
        self,
        protocol: str = "gpu",
        model: str = "drf0",
        config: SystemConfig = INTEGRATED,
        tracer: Optional[Tracer] = None,
    ):
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}")
        self.protocol_name = protocol
        self.model = ConsistencyModel(model)
        self.config = config
        self.stats = MetricSet()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.mesh = Mesh(config, self.tracer)
        self.l2 = L2System(config, list(config.l2_nodes()), self.tracer)
        peers: Dict[int, object] = {}
        protocol_cls = PROTOCOLS[protocol]
        self.cus: List[ComputeUnit] = []
        # GPU CUs occupy the first nodes; CPU cores (coherent participants
        # of the same protocol, as in the paper's integrated system) take
        # the following nodes.  A kernel addresses them by core index:
        # 0..num_cus-1 are CUs, num_cus.. are CPU cores.
        for node in range(config.num_cus + config.num_cpus):
            proto = protocol_cls(
                node, config, self.mesh, self.l2, self.stats, peers,
                tracer=self.tracer,
            )
            self.cus.append(
                ComputeUnit(node, config, proto, self.model, self.stats, self.tracer)
            )

    # ------------------------------------------------------------------ running
    def run(self, kernel: Kernel, engine: str = "auto", compiled=None) -> RunResult:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        # Imported on first run: importing the simulator, as a sweep
        # worker's set-up does, need not load the fast path.
        from repro.sim.compile import compile_kernel, run_compiled, supports

        fast = None
        if engine == "auto" and not self.tracer.enabled and supports(self):
            fast = compiled if compiled is not None else compile_kernel(kernel, self.config)
            if not fast.batchable:
                fast = None
        record_resolution("sim_engine", "reference" if fast is None else "compiled")
        if fast is not None:
            cycles, phase_cycles = run_compiled(self, kernel, fast)
        else:
            cycles, phase_cycles = self._run_reference(kernel)
        return RunResult(
            workload=kernel.name,
            protocol=self.protocol_name,
            model=self.model.name,
            cycles=cycles,
            stats=self.stats,
            phase_cycles=phase_cycles,
        )

    def _run_reference(self, kernel: Kernel) -> Tuple[float, Tuple[float, ...]]:
        """The instrumented interpreter: the oracle, and the only engine
        that emits trace events."""
        phase_times: List[float] = []
        clock = 0.0
        kernel_scope = self.tracer.scope(
            f"kernel:{kernel.name}", cycle=0.0, component="sim"
        )
        for phase in kernel.phases:
            phase_scope = self.tracer.scope(
                f"phase:{phase.name}", cycle=clock, component="sim"
            )
            end = self._run_phase(phase, clock)
            end = self._global_barrier(end)
            phase_scope.close(end)
            phase_times.append(end - clock)
            clock = end
        kernel_scope.close(clock)
        return clock, tuple(phase_times)

    def _run_phase(self, phase: Phase, start: float) -> float:
        loop = EventLoop()
        loop.now = start
        active = []
        for cu_index, traces in phase.warps_per_cu.items():
            if cu_index >= len(self.cus):
                raise ValueError(
                    f"phase {phase.name!r} targets CU {cu_index}, "
                    f"system has {len(self.cus)}"
                )
            cu = self.cus[cu_index]
            cu.load_phase(traces)
            active.append(cu)
            for warp in cu.warps:
                loop.schedule(start, (cu, warp))
        end = start
        while True:
            item = loop.pop()
            if item is None:
                break
            now, (cu, warp) = item
            if warp.done:
                continue
            wake = cu.step_warp(warp, now)
            if wake is None:
                end = max(end, warp.finish_time)
                continue
            # Guarantee forward progress even when a warp retries "now".
            loop.schedule(max(wake, now + 1e-9), (cu, warp))
            end = max(end, wake)
        for cu in active:
            if not cu.all_done():
                raise RuntimeError(f"phase {phase.name!r}: warps did not retire")
        return end

    def _global_barrier(self, now: float) -> float:
        """All CUs synchronize: release (flush) + acquire (invalidate)."""
        latest = now
        for cu in self.cus:
            flushed = cu.protocol.release(now)
            invalidated = cu.protocol.acquire(flushed)
            latest = max(latest, invalidated)
        return latest + GLOBAL_BARRIER_CYCLES


def run_workload(
    kernel: Kernel,
    protocol: str,
    model: str,
    config: SystemConfig = INTEGRATED,
    tracer: Optional[Tracer] = None,
    engine: str = "auto",
    compiled=None,
) -> RunResult:
    """Build a fresh system and run *kernel* on it.  Pass a
    :class:`~repro.obs.tracer.Tracer` to record per-event traces; the
    default is the no-op tracer.  *engine* selects the execution engine
    (see :data:`ENGINES`); *compiled* optionally supplies a
    pre-:func:`~repro.sim.compile.compile_kernel`-ed form of *kernel* to
    reuse across runs."""
    return System(protocol, model, config, tracer=tracer).run(
        kernel, engine=engine, compiled=compiled
    )


def all_configurations() -> Tuple[Tuple[str, str], ...]:
    """The six (protocol, model) configurations of Section 4.3."""
    return tuple(
        (protocol, model) for protocol in ("gpu", "denovo") for model in MODELS
    )
