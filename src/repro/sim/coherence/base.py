"""Shared machinery for the two coherence protocols (Sections 2.1, 2.2).

A protocol instance is attached to one GPU CU (or CPU core) and mediates
that core's traffic to the mesh, the shared L2, and — for DeNovo — other
cores' L1s.  Every method returns the *completion time* of the request;
resource contention is captured by the reservations made along the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.obs import metrics as S
from repro.sim.config import SystemConfig
from repro.sim.engine import Resource
from repro.sim.mem.cache import L1Cache, LineState
from repro.sim.mem.l2 import L2System
from repro.sim.mem.mshr import MshrFile
from repro.sim.mem.storebuffer import StoreBuffer
from repro.sim.noc.mesh import Mesh
from repro.obs.metrics import MetricSet


class CoherenceProtocol:
    """Base: owns the per-core L1 structures and mesh/L2 plumbing."""

    #: Set by subclasses: do atomics execute at the L1 (DeNovo) or L2 (GPU)?
    atomics_at_l1: bool = False

    def __init__(
        self,
        node: int,
        config: SystemConfig,
        mesh: Mesh,
        l2: L2System,
        stats: MetricSet,
        peers: Dict[int, "CoherenceProtocol"],
        tracer: Tracer = NULL_TRACER,
    ):
        self.node = node
        self.config = config
        self.mesh = mesh
        self.l2 = l2
        self.stats = stats
        self.tracer = tracer
        self.component = f"core{node}"
        self.l1 = L1Cache(
            config.l1_sets(), config.l1_assoc, config.line_bytes,
            tracer=tracer, component=f"l1@{node}",
        )
        self.mshr = MshrFile(config.l1_mshrs, tracer=tracer, component=f"mshr@{node}")
        self.store_buffer = StoreBuffer(
            config.store_buffer_entries, tracer=tracer, component=f"sb@{node}"
        )
        self.l1_port = Resource(f"l1@{node}", tracer)
        #: Message sizes are fixed per config; resolve them once instead
        #: of re-deriving the flit counts on every transaction.
        self._ctrl_flits = config.ctrl_flits()
        self._data_flits = config.data_flits()
        #: node -> protocol instance of every core, shared system-wide;
        #: DeNovo transfers lines / steals word registrations through it.
        self.peers = peers
        self.peers[node] = self

    # -- helpers -----------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr // self.config.line_bytes

    def _noc(self, result) -> None:
        self.stats.counters[S.NOC_FLIT_HOPS] += float(result.flit_hops)

    def _l2_fetch(self, now: float, line: int, atomic: bool = False) -> float:
        """Round trip to the line's home bank: request, bank access,
        data response."""
        home = self.l2.home_node(line)
        there = self.mesh.send(now, self.node, home, self._ctrl_flits)
        self._noc(there)
        bank = self.l2.banks[home]
        access = bank.access(there.arrival, line, atomic=atomic)
        self.stats.bump(S.L2_ACCESS)
        if not access.l2_hit:
            self.stats.bump(S.DRAM_ACCESS)
        back = self.mesh.send(access.done, home, self.node, self._data_flits)
        self._noc(back)
        return back.arrival

    def _l2_writethrough(self, now: float, line: int) -> float:
        """One-way write to the home bank (GPU store-buffer drain)."""
        home = self.l2.home_node(line)
        there = self.mesh.send(now, self.node, home, self._data_flits)
        self._noc(there)
        access = self.l2.banks[home].access(there.arrival, line)
        self.stats.bump(S.L2_ACCESS)
        if not access.l2_hit:
            self.stats.bump(S.DRAM_ACCESS)
        return access.done

    # -- interface ----------------------------------------------------------------
    def load(self, now: float, addr: int) -> float:
        raise NotImplementedError

    def store(self, now: float, addr: int) -> float:
        """Returns the completion time of the store's global effect; the
        caller places it in the store buffer."""
        raise NotImplementedError

    def atomic(self, now: float, addr: int, is_rmw: bool = True) -> float:
        """An atomic access; ``is_rmw`` distinguishes read-modify-writes
        from plain atomic loads (which occupy ports for less time)."""
        raise NotImplementedError

    def local_atomic(self, now: float, addr: int) -> float:
        """A locally scoped atomic (HRF comparator): synchronizes only
        threads sharing this L1, so it executes there for both
        protocols, with no global coherence action."""
        counters = self.stats.counters
        counters[S.ATOMIC_ISSUED] += 1.0
        counters[S.L1_ACCESS] += 1.0
        counters[S.L1_ATOMIC] += 1.0
        if self.l1.lookup(addr, now) is LineState.INVALID:
            self.l1.fill(addr, LineState.VALID, now)
        return self.l1_port.acquire(now, self.config.l1_atomic_service)

    def acquire(self, now: float) -> float:
        """Paired synchronization read action (cache invalidation)."""
        raise NotImplementedError

    def release(self, now: float) -> float:
        """Paired synchronization write action (store-buffer flush);
        returns the time the buffer is drained."""
        self.stats.counters[S.SB_FLUSH] += 1.0
        return self.store_buffer.flush_time(now)
