"""Ahead-of-time trace compilation: the timing simulator's fast path.

The reference interpreter in :mod:`repro.sim.core.cu` re-derives, for
every executed operation, facts that are invariant across the whole run:
the operation's Python class (``isinstance`` dispatch), its consistency
treatment (``model.treatment(op.kind)``), the ALU bump amount, and — one
layer down — the cache line, DeNovo word, L2 home bank and XY mesh route
of each address.  This module resolves all of that once, ahead of time:

- :func:`compile_kernel` lowers a :class:`~repro.sim.trace.Kernel` into
  flat parallel tuples per warp: an integer *opcode* per operation
  (specialized per consistency model, so the per-access ``treatment()``
  string lookup disappears), a numeric operand (cycles or address), an
  auxiliary operand (the precomputed ALU bump, or the ld/st/rmw
  category), and the cache line, DeNovo word and home-bank slot of every
  memory operation.  It also checks that every statistics bump the trace
  will make is integer-valued (``batchable``, see below).  The
  model-independent form is shared: the six configurations of a sweep
  specialize the same compiled kernel.
- :func:`run_compiled` executes the compiled form: per phase it binds
  each warp's per-op *plan table* (the home bank's precomputed L2 round
  trip, resolved once per distinct home instead of per access) and
  drives the wake-up heap with a table-dispatched warp stepper whose hot
  protocol paths — GPU load / store / atomic and the DeNovo load / store
  / atomic — are inlined over those operands.  The system runs on its
  ahead-of-time hooks: the mesh route cache, the L2 home-node map
  pre-resolved for the kernel's address footprint, and touched-set L1
  flash invalidation.

The stepper is a *transliteration* of the interpreter, not a
re-derivation: it makes the same resource reservations and the same
statistics bumps per key in the same order, and performs every latency
addition term by term in the reference order.  The simulator's FIFO
resources and the event loop's ``now + 1e-9`` forward-progress epsilon
make event order visible, and float addition is not associative, so
cycle counts, ``MetricSet`` and figure CSVs are identical only because
nothing is reordered — asserted exhaustively by
``tests/sim/test_compile.py`` over every registered workload and all six
configurations.  The one re-association it does perform — accumulating a
step's CORE_OP/SCRATCH bumps in a local and flushing once — is exact
because integer-valued float sums below 2**53 are order-free.

:class:`~repro.sim.system.System` takes this path only when it can be
exact, and runs the reference interpreter otherwise: with a live tracer
(the stepper has no per-event instrumentation), on a protocol other than
exactly :class:`GpuCoherence` / :class:`DeNovoCoherence` (the MESI
comparator, or a subclass with overridden handlers), and on a kernel
that fails the integrality check.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.core.labels import AtomicKind
from repro.obs import metrics as S
from repro.sim.coherence.denovo import DeNovoCoherence, _WordMiss
from repro.sim.coherence.gpu import GpuCoherence
from repro.sim.config import SystemConfig
from repro.sim.consistency import ConsistencyModel
from repro.sim.core.cu import MAX_OPS_PER_WAKE, Warp
from repro.sim.mem.cache import LineState
from repro.sim.mem.l2 import home_bank
from repro.sim.mem.mshr import MshrEntry
from repro.sim.noc.mesh import xy_geometry
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
    ``lines`` and ``words`` hold each global memory operation's cache
    line and DeNovo word (``-1`` for other ops).  Home banks are factored
    through a slot table — ``home_slots`` lists the distinct home nodes
    the warp touches, in ascending order, and ``slot_of`` maps each op to
    its slot (``-1`` for non-memory ops) — so binding a warp to a system
    resolves a handful of plans, not one per op.  ``batch`` says every
    ``aux`` is a non-negative integer.
    """

    __slots__ = (
        "base_codes", "skeys", "arg", "aux",
        "lines", "words", "home_slots", "slot_of", "batch",
    )

    def __init__(self, base_codes, skeys, arg, aux, lines, words, home_slots, slot_of, batch):
        self.base_codes = base_codes
        self.skeys = skeys
        self.arg = arg
        self.aux = aux
        self.lines = lines
        self.words = words
        self.home_slots = home_slots
        self.slot_of = slot_of
        self.batch = batch

    def specialize(self, table: Dict[Tuple[AtomicKind, str], int]) -> Tuple[int, ...]:
        return tuple(
            base if key is None else table[key]
            for base, key in zip(self.base_codes, self.skeys)
        )


class CompiledKernel:
    """Ahead-of-time compiled form of one kernel under one system config.

    Model-independent: holds the structural lowering plus the kernel's
    pre-resolved line footprint, and memoizes per-model opcode tuples,
    so one compilation serves all six configurations of a sweep.
    ``batchable`` is false when some trace fails the integrality check;
    such a kernel runs on the reference interpreter.
    """

    __slots__ = ("kernel_name", "config", "lines", "batchable", "_phases", "_specialized")

    def __init__(self, kernel: Kernel, config: SystemConfig):
        self.kernel_name = kernel.name
        self.config = config
        self.lines = frozenset(
            addr // config.line_bytes for addr in kernel.global_addresses()
        )
        nodes = tuple(config.l2_nodes())
        self._phases: List[Dict[int, List[_StructuralTrace]]] = [
            {
                cu: [_compile_trace(trace, config, nodes) for trace in traces]
                for cu, traces in phase.warps_per_cu.items()
            }
            for phase in kernel.phases
        ]
        self.batchable = all(
            strace.batch
            for phase in self._phases
            for straces in phase.values()
            for strace in straces
        )
        self._specialized: Dict[str, List[Dict[int, List[Tuple[int, ...]]]]] = {}

    def specialize(self, model: ConsistencyModel) -> List[Dict[int, List[Tuple[int, ...]]]]:
        """Per phase, per CU, each warp's opcode tuple under *model*."""
        spec = self._specialized.get(model.name)
        if spec is None:
            table = _op_table(model)
            spec = [
                {cu: [s.specialize(table) for s in straces] for cu, straces in phase.items()}
                for phase in self._phases
            ]
            self._specialized[model.name] = spec
        return spec


def _compile_trace(trace: WarpTrace, config: SystemConfig, nodes: Tuple[int, ...]) -> _StructuralTrace:
    line_bytes = config.line_bytes
    word_bytes = config.word_bytes
    base_codes: List[int] = []
    skeys: List[object] = []
    arg: List[float] = []
    aux: List[float] = []
    lines: List[int] = []
    words: List[int] = []
    homes: List[int] = []
    for op in trace:
        if type(op) is MemAccess or isinstance(op, MemAccess):
            if op.space != "scratch":
                addr = op.addr
                line = addr // line_bytes
                base_codes.append(0)
                skeys.append((op.kind, op.op))
                arg.append(addr)
                aux.append(_OPK[op.op])
                lines.append(line)
                words.append(addr // word_bytes)
                homes.append(home_bank(line, nodes))
                continue
            base_codes.append(OP_SCRATCH)
            arg.append(0)
            aux.append(0)
        elif isinstance(op, Compute):
            base_codes.append(OP_COMPUTE)
            arg.append(op.cycles)
            aux.append(float(max(1.0, op.cycles)))
        elif isinstance(op, WaitAll):
            base_codes.append(OP_WAITALL)
            arg.append(0)
            aux.append(0)
        else:
            raise TypeError(f"cannot compile trace op {op!r}")
        skeys.append(None)
        lines.append(-1)
        words.append(-1)
        homes.append(-1)
    home_slots = tuple(sorted({home for home in homes if home >= 0}))
    slot = {home: index for index, home in enumerate(home_slots)}
    slot[-1] = -1
    # Batched counter flushes are exact only for integer-valued bumps.
    batch = all(a >= 0 and float(a).is_integer() for a in aux)
    return _StructuralTrace(
        tuple(base_codes), tuple(skeys), tuple(arg), tuple(aux), tuple(lines),
        tuple(words), home_slots, tuple(map(slot.__getitem__, homes)), batch,
    )


def compile_kernel(kernel: Kernel, config: SystemConfig) -> CompiledKernel:
    """Lower *kernel* for execution under *config* (any model)."""
    return CompiledKernel(kernel, config)


# -- inlined protocol fast paths -----------------------------------------------
# Each helper repeats the corresponding protocol method's arithmetic and
# statistics bumps term by term, in the reference order, over operands
# (line, home plan) resolved ahead of time.  They run only with tracing
# disabled (an engine precondition), so the tracer branches disappear.


def _gpu_load(
    proto,
    counters,
    now: float,
    addr: float,
    line: int,
    plan: tuple,
    _L1A=S.L1_ACCESS,
    _L1H=S.L1_HIT,
    _L1M=S.L1_MISS,
    _MSH=S.MSHR_COALESCE,
    _L2A=S.L2_ACCESS,
    _DRAM=S.DRAM_ACCESS,
    _NOC=S.NOC_FLIT_HOPS,
    _INVALID=LineState.INVALID,
    _VALID=LineState.VALID,
    _Entry=MshrEntry,
):
    """Inline twin of :meth:`GpuCoherence.load` over a planned fetch."""
    counters[_L1A] += 1.0
    mshr = proto.mshr
    entries = mshr._entries
    if entries:
        resolved = [l for l, e in entries.items() if e.ready_at <= now]
        for l in resolved:
            del entries[l]
    if proto.l1.lookup(addr, now) is not _INVALID:
        counters[_L1H] += 1.0
        port = proto.l1_port
        service = proto.config.l1_hit_latency
        nf = port.next_free
        start = now if now > nf else nf
        end = start + service
        port.next_free = end
        port.busy_cycles += service
        port.requests += 1
        return end
    counters[_L1M] += 1.0
    config = proto.config
    pending = entries.get(line)
    if pending is not None and pending.coalesced < config.mshr_targets:
        pending.coalesced += 1
        mshr.total_coalesced += 1
        counters[_MSH] += 1.0
        ready = pending.ready_at
        return (ready if ready > now else now) + config.l1_hit_latency
    (bank, local, links_there, links_back, hop_delay, ctrl_occ,
     ctrl_fh, data_occ, data_fh, fh_round, _fh_data) = plan
    if local:
        counters[_NOC] += 0.0
        ready, hit = bank.access_fast(now, line)
        counters[_L2A] += 1.0
        if not hit:
            counters[_DRAM] += 1.0
    else:
        for link in links_there:
            link.requests += 1
            link.busy_cycles += ctrl_occ
        ready, hit = bank.access_fast(now + hop_delay + ctrl_occ, line)
        counters[_L2A] += 1.0
        if not hit:
            counters[_DRAM] += 1.0
        for link in links_back:
            link.requests += 1
            link.busy_cycles += data_occ
        mesh = proto.mesh
        mesh.flit_hops += ctrl_fh + data_fh
        mesh.messages += 2
        counters[_NOC] += fh_round
        ready = ready + hop_delay + data_occ
    if pending is None and len(entries) < mshr.capacity:
        entries[line] = _Entry(line=line, ready_at=ready)
        mshr.total_allocations += 1
    proto.l1.fill(addr, _VALID, now)
    return ready


def _gpu_store(
    proto,
    counters,
    now: float,
    line: int,
    plan: tuple,
    _L1A=S.L1_ACCESS,
    _SBW=S.SB_WRITE,
    _L2A=S.L2_ACCESS,
    _DRAM=S.DRAM_ACCESS,
    _NOC=S.NOC_FLIT_HOPS,
):
    """Inline twin of :meth:`GpuCoherence.store` (planned writethrough)."""
    counters[_L1A] += 1.0
    counters[_SBW] += 1.0
    (bank, local, links_there, _links_back, hop_delay, _ctrl_occ,
     _ctrl_fh, data_occ, data_fh, _fh_round, fh_data) = plan
    if local:
        counters[_NOC] += 0.0
        arrival = now
    else:
        for link in links_there:
            link.requests += 1
            link.busy_cycles += data_occ
        mesh = proto.mesh
        mesh.flit_hops += data_fh
        mesh.messages += 1
        counters[_NOC] += fh_data
        arrival = now + hop_delay + data_occ
    done, hit = bank.access_fast(arrival, line)
    counters[_L2A] += 1.0
    if not hit:
        counters[_DRAM] += 1.0
    return done


def _gpu_atomic(
    proto,
    counters,
    now: float,
    line: int,
    plan: tuple,
    is_rmw: bool,
    _ATI=S.ATOMIC_ISSUED,
    _L2AT=S.L2_ATOMIC,
    _L2A=S.L2_ACCESS,
    _DRAM=S.DRAM_ACCESS,
    _NOC=S.NOC_FLIT_HOPS,
):
    """Inline twin of :meth:`GpuCoherence.atomic` over a planned fetch."""
    counters[_ATI] += 1.0
    counters[_L2AT] += 1.0
    (bank, local, links_there, links_back, hop_delay, ctrl_occ,
     ctrl_fh, data_occ, data_fh, fh_round, _fh_data) = plan
    if local:
        counters[_NOC] += 0.0
        done, hit = bank.access_fast(now, line, is_rmw)
        counters[_L2A] += 1.0
        if not hit:
            counters[_DRAM] += 1.0
        return done
    for link in links_there:
        link.requests += 1
        link.busy_cycles += ctrl_occ
    done, hit = bank.access_fast(now + hop_delay + ctrl_occ, line, is_rmw)
    counters[_L2A] += 1.0
    if not hit:
        counters[_DRAM] += 1.0
    for link in links_back:
        link.requests += 1
        link.busy_cycles += data_occ
    mesh = proto.mesh
    mesh.flit_hops += ctrl_fh + data_fh
    mesh.messages += 2
    counters[_NOC] += fh_round
    return done + hop_delay + data_occ


def _denovo_fetch_word(
    proto,
    counters,
    now: float,
    word: int,
    plan: tuple,
    _L2A=S.L2_ACCESS,
    _NOC=S.NOC_FLIT_HOPS,
    _REM=S.REMOTE_L1_TRANSFER,
):
    """Inline twin of :meth:`DeNovoCoherence._fetch_word` with the
    node<->home control legs resolved through the plan (a word's home is
    its line's home — same hash).  Owner-steal legs are dynamic and go
    through the (route-cached) mesh as in the reference."""
    (bank, local, links_there, links_back, hop_delay, ctrl_occ,
     ctrl_fh, _data_occ, _data_fh, _fh_round, _fh_data) = plan
    owner = bank.word_owner.get(word)
    node = proto.node
    if local:
        arrival = now
        counters[_NOC] += 0.0
    else:
        for link in links_there:
            link.requests += 1
            link.busy_cycles += ctrl_occ
        arrival = now + hop_delay + ctrl_occ
        mesh = proto.mesh
        mesh.flit_hops += ctrl_fh
        mesh.messages += 1
        counters[_NOC] += float(ctrl_fh)
    port = bank.port
    service = bank._bank_service
    nf = port.next_free
    start = arrival if arrival > nf else nf
    at_dir = start + service
    port.next_free = at_dir
    port.busy_cycles += service
    port.requests += 1
    counters[_L2A] += 1.0
    if owner is not None and owner != node:
        mesh = proto.mesh
        fwd = mesh.send(at_dir, bank.node, owner, proto._ctrl_flits)
        counters[_NOC] += float(fwd.flit_hops)
        peer = proto.peers.get(owner)
        remote_ready = fwd.arrival + proto.config.remote_l1_base_latency
        if peer is not None:
            peer.owned_words.discard(word)
            remote_ready = peer.l1_port.acquire(
                remote_ready, proto.config.remote_l1_service
            )
        resp = mesh.send(remote_ready, owner, node, proto._ctrl_flits)
        counters[_REM] += 1.0
        counters[_NOC] += float(resp.flit_hops)
        done = resp.arrival
    else:
        if local:
            counters[_NOC] += 0.0
            done = at_dir
        else:
            for link in links_back:
                link.requests += 1
                link.busy_cycles += ctrl_occ
            done = at_dir + hop_delay + ctrl_occ
            mesh = proto.mesh
            mesh.flit_hops += ctrl_fh
            mesh.messages += 1
            counters[_NOC] += float(ctrl_fh)
    bank.word_owner[word] = node
    proto.owned_words.add(word)
    return done


def _denovo_atomic(
    proto,
    counters,
    now: float,
    word: int,
    plan: tuple,
    _ATI=S.ATOMIC_ISSUED,
    _L1A=S.L1_ACCESS,
    _L1H=S.L1_HIT,
    _L1AT=S.L1_ATOMIC,
    _MSH=S.MSHR_COALESCE,
    _Miss=_WordMiss,
):
    """Inline twin of :meth:`DeNovoCoherence.atomic` (word and home plan
    precomputed)."""
    counters[_ATI] += 1.0
    counters[_L1A] += 1.0
    misses = proto._word_misses
    if misses:
        resolved = [w for w, m in misses.items() if m.ready_at <= now]
        for w in resolved:
            del misses[w]
    config = proto.config
    service = config.l1_atomic_service
    port = proto.l1_port
    if word in proto.owned_words:
        in_flight = misses.get(word)
        if (
            in_flight is not None
            and in_flight.ready_at > now
            and in_flight.targets < config.mshr_targets
        ):
            in_flight.targets += 1
            counters[_MSH] += 1.0
        else:
            counters[_L1H] += 1.0
        counters[_L1AT] += 1.0
        nf = port.next_free
        start = now if now > nf else nf
        end = start + service
        port.next_free = end
        port.busy_cycles += service
        port.requests += 1
        return end
    miss = misses.get(word)
    if miss is not None and miss.targets < config.mshr_targets:
        miss.targets += 1
        counters[_MSH] += 1.0
        counters[_L1AT] += 1.0
        ready = miss.ready_at
        arrival = ready if ready > now else now
        nf = port.next_free
        start = arrival if arrival > nf else nf
        end = start + service
        port.next_free = end
        port.busy_cycles += service
        port.requests += 1
        return end
    start0 = (now if now > miss.ready_at else miss.ready_at) if miss is not None else now
    ready = _denovo_fetch_word(proto, counters, start0, word, plan)
    misses[word] = _Miss(ready_at=ready, targets=1)
    counters[_L1AT] += 1.0
    nf = port.next_free
    start = ready if ready > nf else nf
    end = start + service
    port.next_free = end
    port.busy_cycles += service
    port.requests += 1
    return end


def _denovo_fetch_line(
    proto,
    counters,
    now: float,
    line: int,
    plan: tuple,
    take_ownership: bool,
    _L2A=S.L2_ACCESS,
    _DRAM=S.DRAM_ACCESS,
    _NOC=S.NOC_FLIT_HOPS,
):
    """Inline twin of :meth:`DeNovoCoherence._fetch_line`: planned L2
    round trip when the L2 owns the line, reference remote-transfer path
    when another L1 does."""
    bank = plan[0]
    owner = bank.owner.get(line)
    node = proto.node
    if owner is not None and owner != node:
        return proto._remote_transfer(now, line, owner, take_ownership)
    (_bank, local, links_there, links_back, hop_delay, ctrl_occ,
     ctrl_fh, data_occ, data_fh, fh_round, _fh_data) = plan
    if local:
        counters[_NOC] += 0.0
        done, hit = bank.access_fast(now, line)
        counters[_L2A] += 1.0
        if not hit:
            counters[_DRAM] += 1.0
    else:
        for link in links_there:
            link.requests += 1
            link.busy_cycles += ctrl_occ
        done, hit = bank.access_fast(now + hop_delay + ctrl_occ, line)
        counters[_L2A] += 1.0
        if not hit:
            counters[_DRAM] += 1.0
        for link in links_back:
            link.requests += 1
            link.busy_cycles += data_occ
        mesh = proto.mesh
        mesh.flit_hops += ctrl_fh + data_fh
        mesh.messages += 2
        counters[_NOC] += fh_round
        done = done + hop_delay + data_occ
    if take_ownership:
        bank.owner[line] = node
    return done


def _denovo_load(
    proto,
    counters,
    now: float,
    addr: float,
    line: int,
    plan: tuple,
    _L1A=S.L1_ACCESS,
    _L1H=S.L1_HIT,
    _L1M=S.L1_MISS,
    _MSH=S.MSHR_COALESCE,
    _INVALID=LineState.INVALID,
    _REGISTERED=LineState.REGISTERED,
    _VALID=LineState.VALID,
    _Entry=MshrEntry,
):
    """Inline twin of :meth:`DeNovoCoherence.load`."""
    counters[_L1A] += 1.0
    mshr = proto.mshr
    entries = mshr._entries
    if entries:
        resolved = [l for l, e in entries.items() if e.ready_at <= now]
        for l in resolved:
            del entries[l]
    l1 = proto.l1
    if l1.lookup(addr, now) is not _INVALID:
        counters[_L1H] += 1.0
        port = proto.l1_port
        service = proto.config.l1_hit_latency
        nf = port.next_free
        start = now if now > nf else nf
        end = start + service
        port.next_free = end
        port.busy_cycles += service
        port.requests += 1
        return end
    counters[_L1M] += 1.0
    config = proto.config
    pending = entries.get(line)
    if pending is not None and pending.coalesced < config.mshr_targets:
        pending.coalesced += 1
        mshr.total_coalesced += 1
        counters[_MSH] += 1.0
        ready = pending.ready_at
        return (ready if ready > now else now) + config.l1_hit_latency
    ready = _denovo_fetch_line(proto, counters, now, line, plan, False)
    if pending is None and len(entries) < mshr.capacity:
        entries[line] = _Entry(line=line, ready_at=ready)
        mshr.total_allocations += 1
    if l1.lookup(addr, now) is not _REGISTERED:
        proto._evict(l1.fill(addr, _VALID, now))
    return ready


def _denovo_store(
    proto,
    counters,
    now: float,
    addr: float,
    line: int,
    plan: tuple,
    _L1A=S.L1_ACCESS,
    _SBW=S.SB_WRITE,
    _L1H=S.L1_HIT,
    _MSH=S.MSHR_COALESCE,
    _REGISTERED=LineState.REGISTERED,
    _Entry=MshrEntry,
):
    """Inline twin of :meth:`DeNovoCoherence.store`."""
    counters[_L1A] += 1.0
    counters[_SBW] += 1.0
    mshr = proto.mshr
    entries = mshr._entries
    if entries:
        resolved = [l for l, e in entries.items() if e.ready_at <= now]
        for l in resolved:
            del entries[l]
    l1 = proto.l1
    if l1.lookup(addr, now) is _REGISTERED:
        counters[_L1H] += 1.0
        port = proto.l1_port
        service = proto.config.l1_hit_latency
        nf = port.next_free
        start = now if now > nf else nf
        end = start + service
        port.next_free = end
        port.busy_cycles += service
        port.requests += 1
        return end
    config = proto.config
    pending = entries.get(line)
    if pending is not None and pending.coalesced < config.mshr_targets:
        pending.coalesced += 1
        mshr.total_coalesced += 1
        counters[_MSH] += 1.0
        ready = pending.ready_at
        return (ready if ready > now else now) + config.l1_hit_latency
    ready = _denovo_fetch_line(proto, counters, now, line, plan, True)
    if pending is None and len(entries) < mshr.capacity:
        entries[line] = _Entry(line=line, ready_at=ready)
        mshr.total_allocations += 1
    proto._evict(l1.fill(addr, _REGISTERED, now))
    return ready


# -- execution -----------------------------------------------------------------


def supports(system) -> bool:
    """Can the stepper run on *system*?  It inlines the handlers of
    exactly :class:`GpuCoherence` and :class:`DeNovoCoherence`."""
    proto_type = type(system.cus[0].protocol) if system.cus else None
    return proto_type is GpuCoherence or proto_type is DeNovoCoherence


def _prepare_system(system, compiled: CompiledKernel) -> None:
    """Switch *system* onto its ahead-of-time fast paths (idempotent;
    timing and statistics are unchanged, only lookup cost)."""
    system.mesh.enable_route_cache()
    system.l2.install_home_map(compiled.lines)
    for cu in system.cus:
        cu.protocol.l1.enable_touched_tracking()


def _plan_home(proto, home: int) -> tuple:
    """The L2 round trip from *proto*'s node to bank *home*, resolved
    once: the home bank and XY route of a line never change, so only
    the bank's FIFO state is left for the stepper.  The inlined helpers
    repeat the reference's arithmetic over these terms in its order."""
    bank = proto.l2.banks[home]
    node = proto.node
    if home == node:
        return (bank, True, (), (), 0.0, 0.0, 0, 0.0, 0, 0.0, 0.0)
    mesh = proto.mesh
    config = proto.config
    hops, pairs_there = xy_geometry(mesh.width, mesh.height, node, home)
    links_there = tuple(mesh._link(a, b) for a, b in pairs_there)
    _, pairs_back = xy_geometry(mesh.width, mesh.height, home, node)
    links_back = tuple(mesh._link(a, b) for a, b in pairs_back)
    flit_service = config.link_flit_service
    ctrl_fh = proto._ctrl_flits * hops
    data_fh = proto._data_flits * hops
    return (
        bank,
        False,
        links_there,
        links_back,
        hops * config.noc_hop_latency,
        proto._ctrl_flits * flit_service,
        ctrl_fh,
        proto._data_flits * flit_service,
        data_fh,
        float(ctrl_fh + data_fh),
        float(data_fh),
    )


def _resolve_plans(proto, strace: _StructuralTrace, plans: Dict[Tuple[int, int], tuple]) -> tuple:
    """The per-op home-bank plan table for one warp on one CU: resolve
    each distinct home once (sharing the run's (node, home) plan cache),
    then expand through the lowering's slot indices.  The trailing
    ``None`` slot serves the non-memory ops' ``-1`` index."""
    node = proto.node
    slot_plans = []
    for home in strace.home_slots:
        plan = plans.get((node, home))
        if plan is None:
            plan = _plan_home(proto, home)
            plans[(node, home)] = plan
        slot_plans.append(plan)
    slot_plans.append(None)
    return tuple(map(slot_plans.__getitem__, strace.slot_of))


def _step(
    cu,
    warp,
    now: float,
    _CORE_OP=S.CORE_OP,
    _SCRATCH=S.SCRATCH_ACCESS,
    _MAX_OPS=MAX_OPS_PER_WAKE,
    _heappush=heappush,
    _heappop=heappop,
):
    """Advance *warp* from *now*; the compiled twin of
    :meth:`ComputeUnit.step_warp` + :meth:`ComputeUnit._issue_global`.

    Same decisions, same resource reservations, same statistics in the
    same per-key order — only the dispatch is an int compare chain over
    the precompiled opcode tuple, the hot protocol calls are inlined over
    the precomputed line/word/plan operands, and the step's (integer)
    CORE_OP / SCRATCH bumps are flushed once at exit."""
    codes = warp.codes
    arg = warp.arg
    aux = warp.aux
    lines = warp.lines
    words = warp.words
    plans = warp.plans
    n = len(codes)
    pc = warp.pc
    out = warp.outstanding
    omax = warp.out_max
    lad = warp.last_atomic_done

    proto = cu.protocol
    at_l1 = proto.atomics_at_l1  # DeNovo; False for GPU coherence
    sb = proto.store_buffer
    config = cu.config
    ip = cu.issue_port
    service = config.issue_service
    counters = cu.stats.counters
    issued = 0
    core = 0.0  # batched CORE_OP bumps (integers: exactness proven AOT)
    scratch = 0.0
    wake = None

    while True:
        while out and out[0] <= now:
            _heappop(out)
        if pc >= n:
            pending = omax if omax > now else now
            sb_done = sb.last_completion(now)
            finish = pending if pending > sb_done else sb_done
            if finish > now:
                wake = finish
                break
            warp.done = True
            warp.finish_time = now
            break
        if issued >= _MAX_OPS:
            wake = now  # yield to co-resident warps
            break

        code = codes[pc]

        if code == OP_DATA_LD:
            core += 1.0
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            if at_l1:
                done = _denovo_load(
                    proto, counters, start, arg[pc], lines[pc], plans[pc]
                )
            else:
                done = _gpu_load(
                    proto, counters, start, arg[pc], lines[pc], plans[pc]
                )
            pc += 1
            issued += 1
            if done > now:  # loads block the warp on use
                wake = done
                break
            now = done
            continue

        if code == OP_DATA_ST:
            core += 1.0
            sb.drain_completed(now)
            if sb.full:
                head = sb.head_completion()
                floor = now + 1
                wake = head if head > floor else floor
                break
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            if at_l1:
                completion = _denovo_store(
                    proto, counters, start, arg[pc], lines[pc], plans[pc]
                )
            else:
                completion = _gpu_store(
                    proto, counters, start, lines[pc], plans[pc]
                )
            sb.push(start, arg[pc], completion)
            pc += 1
            issued += 1
            if start > now:
                wake = start
                break
            now = start
            continue

        if code == OP_COMPUTE:
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            core += aux[pc]
            now = start + arg[pc]
            pc += 1
            issued += 1
            continue

        if code == OP_RELAXED:
            core += 1.0
            if len(out) >= config.max_outstanding_per_warp:
                wake = out[0]
                break
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            if at_l1:
                done = _denovo_atomic(
                    proto, counters, start, words[pc], plans[pc]
                )
            else:
                done = _gpu_atomic(
                    proto, counters, start, lines[pc], plans[pc], aux[pc] == 2
                )
            _heappush(out, done)
            if done > omax:
                omax = done
                warp.out_max = done
            pc += 1
            issued += 1
            if start > now:
                wake = start
                break
            now = start
            continue

        if code == OP_PAIRED:
            core += 1.0
            opk = aux[pc]
            ready = omax if omax > now else now
            if lad > ready:
                ready = lad
            if opk:  # st or rmw: also waits for the store buffer
                drained = sb.last_completion(now)
                if drained > ready:
                    ready = drained
            if ready > now:
                wake = ready
                break
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            if opk:
                flushed = proto.release(start)  # flush (already drained)
                if flushed > start:
                    start = flushed
            if at_l1:
                done = _denovo_atomic(
                    proto, counters, start, words[pc], plans[pc]
                )
            else:
                done = _gpu_atomic(
                    proto, counters, start, lines[pc], plans[pc], opk == 2
                )
            if opk != 1:  # ld or rmw: invalidate the L1
                done = proto.acquire(done)
            lad = done
            pc += 1
            issued += 1
            if done > now:  # paired atomics block the warp
                wake = done
                break
            now = done
            continue

        if code == OP_WAITALL:
            pending = omax if omax > now else now
            if pending > now:
                wake = pending
                break
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
            scratch += 1.0
            core += 1.0
            pc += 1
            issued += 1
            continue

        if code == OP_UNPAIRED:
            core += 1.0
            if lad > now:
                wake = lad
                break
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            if at_l1:
                done = _denovo_atomic(
                    proto, counters, start, words[pc], plans[pc]
                )
            else:
                done = _gpu_atomic(
                    proto, counters, start, lines[pc], plans[pc], aux[pc] == 2
                )
            lad = done
            _heappush(out, done)
            if done > omax:
                omax = done
                warp.out_max = done
            pc += 1
            issued += 1
            if start > now:
                wake = start
                break
            now = start
            continue

        if code == OP_RELEASE:
            core += 1.0
            ready = omax if omax > now else now
            if lad > ready:
                ready = lad
            drained = sb.last_completion(now)
            if drained > ready:
                ready = drained
            if ready > now:
                wake = ready
                break
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            flushed = proto.release(start)  # flush (already drained)
            if flushed > start:
                start = flushed
            if at_l1:
                done = _denovo_atomic(
                    proto, counters, start, words[pc], plans[pc]
                )
            else:
                done = _gpu_atomic(
                    proto, counters, start, lines[pc], plans[pc], aux[pc] == 2
                )
            lad = done
            _heappush(out, done)
            if done > omax:
                omax = done
                warp.out_max = done
            pc += 1
            issued += 1
            if start > now:
                wake = start
                break
            now = start
            continue

        if code == OP_ACQUIRE:
            core += 1.0
            if lad > now:
                wake = lad
                break
            nf = ip.next_free
            start = (now if now > nf else nf) + service
            ip.next_free = start
            ip.busy_cycles += service
            ip.requests += 1
            if at_l1:
                done = _denovo_atomic(
                    proto, counters, start, words[pc], plans[pc]
                )
            else:
                done = _gpu_atomic(
                    proto, counters, start, lines[pc], plans[pc], aux[pc] == 2
                )
            done = proto.acquire(done)  # self-invalidate to see fresh data
            lad = done
            pc += 1
            issued += 1
            if done > now:  # acquire blocks the warp
                wake = done
                break
            now = done
            continue

        if code == OP_LOCAL_PAIRED:
            core += 1.0
            ready = omax if omax > now else now
            if lad > ready:
                ready = lad
            if ready > now:
                wake = ready
                break
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
                wake = done
                break
            now = done
            continue

        raise ValueError(f"unknown opcode {code!r}")

    warp.pc = pc
    warp.last_atomic_done = lad
    if core:
        counters[_CORE_OP] += core
    if scratch:
        counters[_SCRATCH] += scratch
    return wake


def _run_phase(
    system, phase, codes_phase, straces_phase, plans, start: float
) -> float:
    """Compiled twin of :meth:`System._run_phase`: a plain-tuple wake-up
    heap (same (time, sequence) ordering as the reference
    :class:`~repro.sim.engine.EventLoop`) driving the compiled stepper;
    each warp carries its operand tuples and per-op plan table."""
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
        codes = codes_phase[cu_index]
        straces = straces_phase[cu_index]
        proto = cu.protocol
        warps = []
        for wid, trace in enumerate(traces):
            warp = Warp(wid=wid, trace=trace)
            strace = straces[wid]
            warp.codes = codes[wid]
            warp.arg = strace.arg
            warp.aux = strace.aux
            warp.lines = strace.lines
            warp.words = strace.words
            warp.plans = _resolve_plans(proto, strace, plans)
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
        while True:
            if warp.done:
                break
            wake = step(cu, warp, now)
            if wake is None:
                if warp.finish_time > end:
                    end = warp.finish_time
                break
            # Guarantee forward progress even when a warp retries "now".
            later = now + 1e-9
            if wake > later:
                later = wake
            if wake > end:
                end = wake
            # When this warp would be popped next anyway — the heap is
            # empty, or its wake-up strictly precedes the heap top (ties
            # go to the top's lower sequence number) — step it directly.
            # The step sequence is exactly the heap's, minus the churn.
            if not heap or later < heap[0][0]:
                now = later
                continue
            seq += 1
            heappush(heap, (later, seq, cu, warp))
            break
    for cu in active:
        if not cu.all_done():
            raise RuntimeError(f"phase {phase.name!r}: warps did not retire")
    return end


def run_compiled(
    system, kernel: Kernel, compiled: CompiledKernel
) -> Tuple[float, Tuple[float, ...]]:
    """Run *kernel* on *system* through the compiled fast path.

    Returns ``(total cycles, per-phase cycles)``;
    :meth:`System.run` wraps them into the usual
    :class:`~repro.sim.system.RunResult`.  *compiled* must have been
    produced by :func:`compile_kernel` from the same kernel under the
    same :class:`~repro.sim.config.SystemConfig`, must be ``batchable``,
    and the system's protocol must be one :func:`supports` accepts.
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
    if not compiled.batchable or not supports(system):
        raise ValueError(
            f"kernel {kernel.name!r} on protocol {system.protocol_name!r} "
            "needs the reference interpreter"
        )
    _prepare_system(system, compiled)
    plans: Dict[Tuple[int, int], tuple] = {}
    clock = 0.0
    phase_times: List[float] = []
    for phase, codes_phase, straces_phase in zip(
        kernel.phases, compiled.specialize(system.model), compiled._phases
    ):
        end = _run_phase(system, phase, codes_phase, straces_phase, plans, clock)
        end = system._global_barrier(end)
        phase_times.append(end - clock)
        clock = end
    return clock, tuple(phase_times)
