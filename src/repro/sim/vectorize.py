"""Numpy-lowered execution engine: the timing simulator's fastest path.

The compiled engine (:mod:`repro.sim.compile`) already resolves opcode
dispatch and the L2 round-trip *plan* ahead of time, but it still pays,
per executed memory operation, for: the ``line_of`` division, the
XOR-fold home-bank hash (or its dict memo), the plan-dictionary probe,
and two layers of method calls into the protocol.  This module lowers
all of that with numpy, once, at kernel-vectorization time:

- :func:`vectorize_kernel` lifts each warp's flat operand tuples into
  numpy arrays and computes — as whole-array expressions — the byte
  address, cache line, DeNovo word, and XOR-folded home bank of every
  memory operation, then freezes them back into parallel tuples the
  stepper indexes by pc.  It also validates, array-wide, that every
  statistics bump the trace will make is integer-valued, which licenses
  the stepper's batched counter flush (see below).
- :func:`run_vectorized` executes the lowered form: per phase it binds
  each warp's per-op *plan table* (the home-bank round-trip plan of
  every memory op, resolved once instead of per access) and drives a
  stepper whose hot protocol paths — GPU load / store / atomic and the
  DeNovo L1-atomic fast path — are inlined over those precomputed
  operands.

Bit-identity is load-bearing and constrains the design: the simulator's
FIFO resources and the event loop's ``now + 1e-9`` forward-progress
epsilon make *event order* semantically visible, and float addition is
not associative, so a batch stepper that reorders warp wake-ups (or
re-associates latency sums) would drift from the oracle.  The vectorized
engine therefore keeps the compiled engine's exact wake-up heap and
performs every latency addition term by term in the reference order;
numpy buys the *ahead-of-time* work (operand planes, home resolution,
integrality proof), and the stepper buys the per-op call overhead.  The
one re-association it does perform — accumulating a step's integer
CORE_OP/SCRATCH bumps in a local and flushing once — is exact because
integer-valued float sums below 2**53 are order-free; traces with
fractional compute bumps fail the lowering's integrality check and the
whole kernel silently falls back to the compiled engine.

``tests/sim/test_vectorized.py`` holds this engine to bit-identical
cycles, per-phase cycles and stats counters (and byte-identical figure
CSVs) against the reference interpreter over every registered workload
and all six configurations.  Without numpy installed the module still
imports; ``engine="auto"`` then resolves to the compiled engine and
only an explicit ``engine="vectorized"`` raises.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

try:  # numpy is optional (``pip install repro[fast]``)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via import blocking
    _np = None

from repro.obs import metrics as S
from repro.sim.compile import (
    OP_ACQUIRE,
    OP_COMPUTE,
    OP_DATA_LD,
    OP_DATA_ST,
    OP_LOCAL_PAIRED,
    OP_PAIRED,
    OP_RELAXED,
    OP_RELEASE,
    OP_SCRATCH,
    OP_UNPAIRED,
    OP_WAITALL,
    CompiledKernel,
    _prepare_system,
    run_compiled,
)
from repro.sim.coherence.denovo import _WordMiss
from repro.sim.core.cu import MAX_OPS_PER_WAKE, Warp
from repro.sim.mem.cache import LineState
from repro.sim.mem.mshr import MshrEntry
from repro.sim.trace import Kernel


def available() -> bool:
    """Is the vectorized engine usable in this process (numpy present)?"""
    return _np is not None


# -- lowering ------------------------------------------------------------------


class _Planes:
    """Per-op operand planes of one warp trace: cache line and DeNovo
    word of every memory operation (``-1`` for non-memory ops), parallel
    to the trace's code/arg/aux tuples.  Home banks are factored through
    a slot table — ``home_slots`` lists the distinct home nodes the warp
    touches and ``slot_of`` maps each op to its slot (``-1`` for
    non-memory ops) — so binding a warp to a concrete system resolves a
    handful of plans, not one per op.  Model-independent: the six
    configurations of a sweep share one lowering."""

    __slots__ = ("lines", "words", "home_slots", "slot_of", "batch")

    def __init__(self, lines, words, home_slots, slot_of, batch):
        self.lines = lines
        self.words = words
        self.home_slots = home_slots
        self.slot_of = slot_of
        self.batch = batch


def _lower_planes(strace, config) -> _Planes:
    """Whole-array lowering of one structural trace (see module doc)."""
    n = len(strace.arg)
    if n == 0:
        return _Planes((), (), (), (), True)
    arg = _np.asarray(strace.arg, dtype=_np.float64)
    aux = _np.asarray(strace.aux, dtype=_np.float64)
    mem = _np.fromiter(
        (key is not None for key in strace.skeys), dtype=bool, count=n
    )
    addr = arg.astype(_np.int64)
    line = _np.where(mem, addr // config.line_bytes, 0)
    word = _np.where(mem, addr // config.word_bytes, 0)
    # The L2System home hash, array-wide: XOR-fold then modulo over the
    # bank nodes (identical to L2System.home_node for any address).
    nodes = _np.asarray(config.l2_nodes(), dtype=_np.int64)
    index = (line ^ (line >> 4) ^ (line >> 8)) % len(nodes)
    home = nodes[index]
    uniq, inverse = _np.unique(home[mem], return_inverse=True)
    slot = _np.full(n, -1, dtype=_np.int64)
    slot[mem] = inverse
    # Batched counter flushes are exact only for integer-valued bumps.
    batch = bool(_np.all(aux == _np.floor(aux)) and _np.all(aux >= 0.0))
    neg = _np.int64(-1)
    line = _np.where(mem, line, neg)
    word = _np.where(mem, word, neg)
    return _Planes(
        tuple(int(x) for x in line),
        tuple(int(x) for x in word),
        tuple(int(x) for x in uniq),
        tuple(int(x) for x in slot),
        batch,
    )


class VectorizedKernel:
    """A :class:`~repro.sim.compile.CompiledKernel` plus its numpy-lowered
    operand planes.  Wraps (not replaces) the compiled form: model
    specialization and the pre-resolved line footprint are reused, and
    the compiled engine accepts this object wherever it accepts the
    kernel it wraps."""

    __slots__ = ("compiled", "planes", "batchable")

    def __init__(self, compiled: CompiledKernel):
        if _np is None:
            raise RuntimeError(
                "engine 'vectorized' requires numpy (pip install "
                "repro[fast]); use engine='auto' to fall back automatically"
            )
        self.compiled = compiled
        config = compiled.config
        self.planes: List[Dict[int, List[_Planes]]] = [
            {
                cu: [_lower_planes(strace, config) for strace in straces]
                for cu, straces in phase.items()
            }
            for phase in compiled._phases
        ]
        self.batchable = all(
            plane.batch
            for phase in self.planes
            for planes in phase.values()
            for plane in planes
        )

    @property
    def kernel_name(self) -> str:
        return self.compiled.kernel_name

    @property
    def config(self):
        return self.compiled.config


def vectorize_kernel(compiled: CompiledKernel) -> VectorizedKernel:
    """Lower *compiled* for the vectorized engine (requires numpy)."""
    return VectorizedKernel(compiled)


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


def _resolve_plans(proto, plane: _Planes) -> tuple:
    """The per-op home-bank plan table for one warp on one CU: resolve
    each distinct home once (sharing the protocol's lazily-populated
    plan cache), then expand through the lowering's slot indices.  The
    trailing ``None`` slot serves the non-memory ops' ``-1`` index."""
    plans = proto._fetch_plans
    slot_plans = []
    for home in plane.home_slots:
        plan = plans.get(home)
        if plan is None:
            plan = proto._plan_home(home)
            plans[home] = plan
        slot_plans.append(plan)
    slot_plans.append(None)
    return tuple(map(slot_plans.__getitem__, plane.slot_of))


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
    """Vectorized twin of :func:`repro.sim.compile._step`: same decisions,
    same resource reservations, same statistics in the same per-key
    order — with the hot protocol calls inlined over the precomputed
    line/plan/word planes and the step's (integer) CORE_OP / SCRATCH
    bumps flushed once at exit."""
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
    system, phase, cphase, pphase: Dict[int, List[_Planes]], start: float
) -> float:
    """Vectorized twin of :func:`repro.sim.compile._run_phase`: identical
    wake-up heap and (time, sequence) ordering; the warps additionally
    carry their operand planes and per-op plan tables."""
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
        planes = pphase[cu_index]
        proto = cu.protocol
        warps = []
        for wid, trace in enumerate(traces):
            warp = Warp(wid=wid, trace=trace)
            ct = ctraces[wid]
            plane = planes[wid]
            warp.codes = ct.codes
            warp.arg = ct.arg
            warp.aux = ct.aux
            warp.lines = plane.lines
            warp.words = plane.words
            warp.plans = _resolve_plans(proto, plane)
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


def run_vectorized(
    system, kernel: Kernel, vectorized: VectorizedKernel
) -> Tuple[float, Tuple[float, ...]]:
    """Run *kernel* on *system* through the vectorized fast path.

    Returns ``(total cycles, per-phase cycles)`` exactly as
    :func:`~repro.sim.compile.run_compiled` does.  Kernels whose traces
    fail the lowering's counter-integrality check run through the
    compiled engine instead (identical results, unbatched counters), as
    do systems whose protocol is not one of the two the stepper inlines
    (exact :class:`GpuCoherence` / :class:`DeNovoCoherence` — the MESI
    comparator, or any protocol subclass with overridden handlers, keeps
    the compiled engine's method dispatch).
    """
    if system.tracer.enabled:
        raise ValueError(
            "the vectorized engine has no instrumentation; "
            "use engine='reference' for traced runs"
        )
    compiled = vectorized.compiled
    if not vectorized.batchable:
        return run_compiled(system, kernel, compiled)
    from repro.sim.coherence.denovo import DeNovoCoherence
    from repro.sim.coherence.gpu import GpuCoherence

    proto_type = type(system.cus[0].protocol) if system.cus else None
    if proto_type is not GpuCoherence and proto_type is not DeNovoCoherence:
        return run_compiled(system, kernel, compiled)
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
    for phase, cphase, pphase in zip(kernel.phases, spec.phases, vectorized.planes):
        end = _run_phase(system, phase, cphase, pphase, clock)
        end = system._global_barrier(end)
        phase_times.append(end - clock)
        clock = end
    return clock, tuple(phase_times)
