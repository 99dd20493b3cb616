"""Ahead-of-time trace compilation: the timing simulator's fast path.

The reference interpreter in :mod:`repro.sim.core.cu` re-derives, for
every executed operation, facts that are invariant across the whole run:
the operation's Python class (``isinstance`` dispatch), its consistency
treatment (``model.treatment(op.kind)``), the ALU bump amount, and — one
layer down — the XY mesh route and L2 home bank of each address.  This
module resolves all of that once, ahead of time:

- :func:`compile_kernel` lowers a :class:`~repro.sim.trace.Kernel` into
  flat parallel tuples per warp: an integer *opcode* per operation
  (specialized per consistency model, so the per-access ``treatment()``
  string lookup disappears), a numeric operand (cycles or address), and
  an auxiliary operand (the precomputed ALU bump, or the ld/st/rmw
  category).  The model-independent *structural* form is shared: the six
  configurations of a sweep specialize the same compiled kernel.
- :func:`run_compiled` executes the compiled form with a specialized
  event loop (plain-tuple wake-up heap) and a table-dispatched warp
  stepper with hoisted attribute lookups and an inlined issue port,
  after switching the system onto its ahead-of-time hooks: the mesh
  route cache, the L2 home-node map pre-resolved for the kernel's
  address footprint, and touched-set L1 flash invalidation.

The compiled engine is a *transliteration* of the interpreter, not a
re-derivation: it makes the same protocol calls, the same resource
reservations and the same statistics bumps in the same order, so cycle
counts, ``MetricSet`` and figure CSVs are identical — asserted
exhaustively by ``tests/sim/test_compile.py`` over every registered
workload and all six configurations.  The interpreter remains available
as ``engine="reference"`` (the oracle) and is always used when a live
tracer is attached: the fast path has no per-event instrumentation.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.core.labels import AtomicKind
from repro.obs import metrics as S
from repro.sim.config import SystemConfig
from repro.sim.consistency import ConsistencyModel
from repro.sim.core.cu import MAX_OPS_PER_WAKE, Warp
from repro.sim.trace import Compute, Kernel, MemAccess, WaitAll, WarpTrace

# -- opcodes -------------------------------------------------------------------
# One opcode per (treatment x structure) case of the interpreter, so the
# stepper dispatches on a single int compare chain.
OP_COMPUTE = 0
OP_WAITALL = 1
OP_SCRATCH = 2
OP_DATA_LD = 3
OP_DATA_ST = 4  # data stores and data RMWs both retire through the store buffer
OP_PAIRED = 5
OP_LOCAL_PAIRED = 6
OP_ACQUIRE = 7
OP_RELEASE = 8
OP_UNPAIRED = 9
OP_RELAXED = 10

#: ld/st/rmw category carried in the aux operand of memory opcodes.
_OPK = {"ld": 0, "st": 1, "rmw": 2}

_TREATMENT_BASE = {
    "paired": OP_PAIRED,
    "local_paired": OP_LOCAL_PAIRED,
    "acquire": OP_ACQUIRE,
    "release": OP_RELEASE,
    "unpaired": OP_UNPAIRED,
    "relaxed": OP_RELAXED,
}


def _op_table(model: ConsistencyModel) -> Dict[Tuple[AtomicKind, str], int]:
    """(kind, op) -> opcode under *model*; the whole ``treatment()``
    resolution, evaluated once per model instead of once per access."""
    table: Dict[Tuple[AtomicKind, str], int] = {}
    for kind in AtomicKind:
        treatment = model.treatment(kind)
        for op_name in ("ld", "st", "rmw"):
            if treatment == "data":
                code = OP_DATA_LD if op_name == "ld" else OP_DATA_ST
            else:
                try:
                    code = _TREATMENT_BASE[treatment]
                except KeyError:
                    raise ValueError(f"unknown treatment {treatment!r}") from None
            table[(kind, op_name)] = code
    return table


# -- compiled forms ------------------------------------------------------------


class _StructuralTrace:
    """Model-independent lowering of one warp trace.

    ``arg`` (cycles or byte address) and ``aux`` (precomputed ALU bump or
    ld/st/rmw category) are already final; ``base_codes`` holds the final
    opcode for model-independent operations and ``skeys`` the
    ``(kind, op)`` lookup key where the opcode depends on the model.
    """

    __slots__ = ("base_codes", "skeys", "arg", "aux")

    def __init__(self, base_codes, skeys, arg, aux):
        self.base_codes = base_codes
        self.skeys = skeys
        self.arg = arg
        self.aux = aux

    def specialize(self, table: Dict[Tuple[AtomicKind, str], int]) -> "CompiledTrace":
        codes = tuple(
            base if key is None else table[key]
            for base, key in zip(self.base_codes, self.skeys)
        )
        return CompiledTrace(codes, self.arg, self.aux)


class CompiledTrace:
    """One warp trace as parallel tuples, specialized to one model."""

    __slots__ = ("codes", "arg", "aux")

    def __init__(self, codes, arg, aux):
        self.codes = codes
        self.arg = arg
        self.aux = aux

    def __len__(self) -> int:
        return len(self.codes)


class SpecializedKernel:
    """A compiled kernel bound to one consistency model: per phase, the
    per-CU lists of :class:`CompiledTrace` mirroring
    :attr:`Phase.warps_per_cu`."""

    __slots__ = ("model_name", "phases")

    def __init__(self, model_name: str, phases: List[Dict[int, List[CompiledTrace]]]):
        self.model_name = model_name
        self.phases = phases


class CompiledKernel:
    """Ahead-of-time compiled form of one kernel under one system config.

    Model-independent: holds the structural lowering plus the kernel's
    pre-resolved line footprint, and memoizes per-model specializations,
    so one compilation serves all six configurations of a sweep.
    """

    __slots__ = ("kernel_name", "config", "lines", "_phases", "_specialized")

    def __init__(self, kernel: Kernel, config: SystemConfig):
        self.kernel_name = kernel.name
        self.config = config
        self.lines = frozenset(
            addr // config.line_bytes for addr in kernel.global_addresses()
        )
        self._phases: List[Dict[int, List[_StructuralTrace]]] = [
            {
                cu: [_compile_trace(trace) for trace in traces]
                for cu, traces in phase.warps_per_cu.items()
            }
            for phase in kernel.phases
        ]
        self._specialized: Dict[str, SpecializedKernel] = {}

    def specialize(self, model: ConsistencyModel) -> SpecializedKernel:
        spec = self._specialized.get(model.name)
        if spec is None:
            table = _op_table(model)
            spec = SpecializedKernel(
                model.name,
                [
                    {
                        cu: [s.specialize(table) for s in straces]
                        for cu, straces in phase.items()
                    }
                    for phase in self._phases
                ],
            )
            self._specialized[model.name] = spec
        return spec


def _compile_trace(trace: WarpTrace) -> _StructuralTrace:
    base_codes: List[int] = []
    skeys: List[object] = []
    arg: List[float] = []
    aux: List[float] = []
    for op in trace:
        if type(op) is MemAccess or isinstance(op, MemAccess):
            if op.space == "scratch":
                base_codes.append(OP_SCRATCH)
                skeys.append(None)
                arg.append(0)
                aux.append(0)
            else:
                base_codes.append(0)
                skeys.append((op.kind, op.op))
                arg.append(op.addr)
                aux.append(_OPK[op.op])
        elif isinstance(op, Compute):
            base_codes.append(OP_COMPUTE)
            skeys.append(None)
            arg.append(op.cycles)
            aux.append(float(max(1.0, op.cycles)))
        elif isinstance(op, WaitAll):
            base_codes.append(OP_WAITALL)
            skeys.append(None)
            arg.append(0)
            aux.append(0)
        else:
            raise TypeError(f"cannot compile trace op {op!r}")
    return _StructuralTrace(
        tuple(base_codes), tuple(skeys), tuple(arg), tuple(aux)
    )


def compile_kernel(kernel: Kernel, config: SystemConfig) -> CompiledKernel:
    """Lower *kernel* for execution under *config* (any model)."""
    return CompiledKernel(kernel, config)


# -- execution -----------------------------------------------------------------


def _prepare_system(system, compiled: CompiledKernel) -> None:
    """Switch *system* onto its ahead-of-time fast paths (idempotent;
    timing and statistics are unchanged, only lookup cost)."""
    system.mesh.enable_route_cache()
    system.l2.install_home_map(compiled.lines)
    for cu in system.cus:
        cu.protocol.prepare_compiled()


def _step(
    cu,
    warp,
    now: float,
    # Locals bound at definition time: hot constants the loop dispatches on.
    _CORE_OP=S.CORE_OP,
    _SCRATCH=S.SCRATCH_ACCESS,
    _MAX_OPS=MAX_OPS_PER_WAKE,
    _heappush=heappush,
    _heappop=heappop,
):
    """Advance *warp* from *now*; the compiled twin of
    :meth:`ComputeUnit.step_warp` + :meth:`ComputeUnit._issue_global`.

    Same decisions, same protocol calls, same statistics bumps, same
    return values — only the dispatch is an int compare chain over the
    precompiled opcode tuple, with every per-op attribute lookup hoisted
    out of the loop.
    """
    codes = warp.codes
    arg = warp.arg
    aux = warp.aux
    n = len(codes)
    pc = warp.pc
    out = warp.outstanding
    omax = warp.out_max
    lad = warp.last_atomic_done

    proto = cu.protocol
    sb = proto.store_buffer
    config = cu.config
    ip = cu.issue_port
    service = config.issue_service
    # Direct Counter item ops: the same additions bump() would make, in
    # the same order, without the method-call layer.
    counters = cu.stats.counters
    issued = 0

    while True:
        while out and out[0] <= now:
            _heappop(out)
        if pc >= n:
            pending = omax if omax > now else now
            sb_done = sb.last_completion(now)
            finish = pending if pending > sb_done else sb_done
            warp.pc = pc
            warp.last_atomic_done = lad
            if finish > now:
                return finish
            warp.done = True
            warp.finish_time = now
            return None
        if issued >= _MAX_OPS:
            warp.pc = pc
            warp.last_atomic_done = lad
            return now  # yield to co-resident warps

        code = codes[pc]

        if code == OP_DATA_LD:
            counters[_CORE_OP] += 1.0
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            done = proto.load(start, arg[pc])
            pc += 1
            issued += 1
            if done > now:  # loads block the warp on use
                warp.pc = pc
                warp.last_atomic_done = lad
                return done
            now = done
            continue

        if code == OP_DATA_ST:
            counters[_CORE_OP] += 1.0
            sb.drain_completed(now)
            if sb.full:
                warp.pc = pc
                warp.last_atomic_done = lad
                head = sb.head_completion()
                floor = now + 1
                return head if head > floor else floor
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            completion = proto.store(start, arg[pc])
            sb.push(start, arg[pc], completion)
            pc += 1
            issued += 1
            if start > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return start
            now = start
            continue

        if code == OP_COMPUTE:
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            counters[_CORE_OP] += aux[pc]
            now = start + arg[pc]
            pc += 1
            issued += 1
            continue

        if code == OP_RELAXED:
            counters[_CORE_OP] += 1.0
            if len(out) >= config.max_outstanding_per_warp:
                warp.pc = pc
                warp.last_atomic_done = lad
                return out[0]
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            done = proto.atomic(start, arg[pc], aux[pc] == 2)
            _heappush(out, done)
            if done > omax:
                omax = done
                warp.out_max = done
            pc += 1
            issued += 1
            if start > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return start
            now = start
            continue

        if code == OP_PAIRED:
            counters[_CORE_OP] += 1.0
            opk = aux[pc]
            ready = omax if omax > now else now
            if lad > ready:
                ready = lad
            if opk:  # st or rmw: also waits for the store buffer
                drained = sb.last_completion(now)
                if drained > ready:
                    ready = drained
            if ready > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return ready
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            if opk:
                flushed = proto.release(start)  # flush (already drained)
                if flushed > start:
                    start = flushed
            done = proto.atomic(start, arg[pc], opk == 2)
            if opk != 1:  # ld or rmw: invalidate the L1
                done = proto.acquire(done)
            lad = done
            pc += 1
            issued += 1
            if done > now:  # paired atomics block the warp
                warp.pc = pc
                warp.last_atomic_done = lad
                return done
            now = done
            continue

        if code == OP_WAITALL:
            pending = omax if omax > now else now
            if pending > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return pending
            pc += 1
            continue

        if code == OP_SCRATCH:
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            spad = cu.scratchpad
            spad.accesses += 1
            now = start + spad.latency
            counters[_SCRATCH] += 1.0
            counters[_CORE_OP] += 1.0
            pc += 1
            issued += 1
            continue

        if code == OP_UNPAIRED:
            counters[_CORE_OP] += 1.0
            if lad > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return lad
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            done = proto.atomic(start, arg[pc], aux[pc] == 2)
            lad = done
            _heappush(out, done)
            if done > omax:
                omax = done
                warp.out_max = done
            pc += 1
            issued += 1
            if start > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return start
            now = start
            continue

        if code == OP_RELEASE:
            counters[_CORE_OP] += 1.0
            ready = omax if omax > now else now
            if lad > ready:
                ready = lad
            drained = sb.last_completion(now)
            if drained > ready:
                ready = drained
            if ready > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return ready
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            flushed = proto.release(start)  # flush (already drained)
            if flushed > start:
                start = flushed
            done = proto.atomic(start, arg[pc], aux[pc] == 2)
            lad = done
            _heappush(out, done)
            if done > omax:
                omax = done
                warp.out_max = done
            pc += 1
            issued += 1
            if start > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return start
            now = start
            continue

        if code == OP_ACQUIRE:
            counters[_CORE_OP] += 1.0
            if lad > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return lad
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            done = proto.atomic(start, arg[pc], aux[pc] == 2)
            done = proto.acquire(done)  # self-invalidate to see fresh data
            lad = done
            pc += 1
            issued += 1
            if done > now:  # acquire blocks the warp
                warp.pc = pc
                warp.last_atomic_done = lad
                return done
            now = done
            continue

        if code == OP_LOCAL_PAIRED:
            counters[_CORE_OP] += 1.0
            ready = omax if omax > now else now
            if lad > ready:
                ready = lad
            if ready > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return ready
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            done = proto.local_atomic(start, arg[pc])
            lad = done
            pc += 1
            issued += 1
            if done > now:
                warp.pc = pc
                warp.last_atomic_done = lad
                return done
            now = done
            continue

        raise ValueError(f"unknown opcode {code!r}")


def _run_phase(system, phase, cphase: Dict[int, List[CompiledTrace]], start: float) -> float:
    """Compiled twin of :meth:`System._run_phase`: a plain-tuple wake-up
    heap (same (time, sequence) ordering as the reference
    :class:`~repro.sim.engine.EventLoop`) driving the compiled stepper."""
    heap: List[Tuple[float, int, object, object]] = []
    seq = 0
    active = []
    for cu_index, traces in phase.warps_per_cu.items():
        if cu_index >= len(system.cus):
            raise ValueError(
                f"phase {phase.name!r} targets CU {cu_index}, "
                f"system has {len(system.cus)}"
            )
        cu = system.cus[cu_index]
        ctraces = cphase[cu_index]
        warps = []
        for wid, trace in enumerate(traces):
            warp = Warp(wid=wid, trace=trace)
            ct = ctraces[wid]
            warp.codes = ct.codes
            warp.arg = ct.arg
            warp.aux = ct.aux
            warps.append(warp)
        cu.warps = warps
        active.append(cu)
        for warp in warps:
            seq += 1
            heappush(heap, (start, seq, cu, warp))
    end = start
    step = _step
    while heap:
        now, _, cu, warp = heappop(heap)
        if warp.done:
            continue
        wake = step(cu, warp, now)
        if wake is None:
            if warp.finish_time > end:
                end = warp.finish_time
            continue
        # Guarantee forward progress even when a warp retries "now".
        later = now + 1e-9
        if wake > later:
            later = wake
        seq += 1
        heappush(heap, (later, seq, cu, warp))
        if wake > end:
            end = wake
    for cu in active:
        if not cu.all_done():
            raise RuntimeError(f"phase {phase.name!r}: warps did not retire")
    return end


def run_compiled(system, kernel: Kernel, compiled: CompiledKernel) -> Tuple[float, Tuple[float, ...]]:
    """Run *kernel* on *system* through the compiled fast path.

    Returns ``(total cycles, per-phase cycles)``;
    :meth:`System.run` wraps them into the usual
    :class:`~repro.sim.system.RunResult`.  *compiled* must have been
    produced by :func:`compile_kernel` from the same kernel under the
    same :class:`~repro.sim.config.SystemConfig`.
    """
    if system.tracer.enabled:
        raise ValueError(
            "the compiled engine has no instrumentation; "
            "use engine='reference' for traced runs"
        )
    if compiled.kernel_name != kernel.name or len(compiled._phases) != len(kernel.phases):
        raise ValueError(
            f"compiled kernel {compiled.kernel_name!r} does not match "
            f"kernel {kernel.name!r}"
        )
    if compiled.config != system.config:
        raise ValueError(
            f"kernel compiled for config {compiled.config.name!r} cannot "
            f"run on config {system.config.name!r}"
        )
    spec = compiled.specialize(system.model)
    _prepare_system(system, compiled)
    clock = 0.0
    phase_times: List[float] = []
    for phase, cphase in zip(kernel.phases, spec.phases):
        end = _run_phase(system, phase, cphase, clock)
        end = system._global_barrier(end)
        phase_times.append(end - clock)
        clock = end
    return clock, tuple(phase_times)
