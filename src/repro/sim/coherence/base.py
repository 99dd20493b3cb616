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
from repro.sim.noc.mesh import Mesh, xy_geometry
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
        #: home node -> precomputed L2 round-trip plan; populated lazily
        #: once :meth:`prepare_compiled` has rebound the fetch paths.
        #: Keyed by home (at most one per mesh node), not by line: every
        #: line with the same home shares route, bank and flit costs.
        self._fetch_plans: Dict[int, tuple] = None  # type: ignore[assignment]

    def prepare_compiled(self) -> None:
        """Hook consumed by the compiled engine before a run: switch the
        structures this core owns onto their ahead-of-time fast paths.
        Never changes timing or statistics, only lookup cost."""
        self.l1.enable_touched_tracking()
        if self._fetch_plans is None:
            self._fetch_plans = {}
            self._home_of = self.l2.home_node
            # Instance-attribute rebind: the interpreter keeps the class
            # methods; only this prepared instance takes the planned path.
            self._l2_fetch = self._l2_fetch_planned  # type: ignore[method-assign]
            self._l2_writethrough = self._l2_writethrough_planned  # type: ignore[method-assign]

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

    # -- ahead-of-time planned variants (compiled engine only) --------------------
    # The home bank and XY route of a line never change, so the whole L2
    # round trip except the bank's FIFO state can be resolved once.  The
    # planned variants repeat the originals' arithmetic term by term (the
    # same additions in the same order) and make every counter update the
    # originals make, so timing and statistics are bit-identical; the
    # exhaustive compiled-vs-reference tests hold them to that.

    def _plan_home(self, home: int) -> tuple:
        bank = self.l2.banks[home]
        node = self.node
        if home == node:
            return (bank, True, (), (), 0.0, 0.0, 0, 0.0, 0, 0.0, 0.0)
        mesh = self.mesh
        hops, pairs_there = xy_geometry(mesh.width, mesh.height, node, home)
        links_there = tuple(mesh._link(a, b) for a, b in pairs_there)
        _, pairs_back = xy_geometry(mesh.width, mesh.height, home, node)
        links_back = tuple(mesh._link(a, b) for a, b in pairs_back)
        flit_service = self.config.link_flit_service
        ctrl_fh = self._ctrl_flits * hops
        data_fh = self._data_flits * hops
        return (
            bank,
            False,
            links_there,
            links_back,
            hops * self.config.noc_hop_latency,
            self._ctrl_flits * flit_service,
            ctrl_fh,
            self._data_flits * flit_service,
            data_fh,
            float(ctrl_fh + data_fh),
            float(data_fh),
        )

    def _l2_fetch_planned(self, now: float, line: int, atomic: bool = False) -> float:
        home = self._home_of(line)
        plans = self._fetch_plans
        plan = plans.get(home)
        if plan is None:
            plan = self._plan_home(home)
            plans[home] = plan
        bank, local, links_there, links_back, hop_delay, ctrl_occ, ctrl_fh, data_occ, data_fh, fh_round, fh_data = plan
        counters = self.stats.counters
        if local:
            counters[S.NOC_FLIT_HOPS] += 0.0
            done, hit = bank.access_fast(now, line, atomic=atomic)
            counters[S.L2_ACCESS] += 1.0
            if not hit:
                counters[S.DRAM_ACCESS] += 1.0
            return done
        mesh = self.mesh
        for link in links_there:
            link.requests += 1
            link.busy_cycles += ctrl_occ
        done, hit = bank.access_fast(now + hop_delay + ctrl_occ, line, atomic=atomic)
        counters[S.L2_ACCESS] += 1.0
        if not hit:
            counters[S.DRAM_ACCESS] += 1.0
        for link in links_back:
            link.requests += 1
            link.busy_cycles += data_occ
        mesh.flit_hops += ctrl_fh + data_fh
        mesh.messages += 2
        # Flit-hop bumps are integer-valued, so one combined addition is
        # exactly the two the interpreter makes.
        counters[S.NOC_FLIT_HOPS] += fh_round
        return done + hop_delay + data_occ

    def _l2_writethrough_planned(self, now: float, line: int) -> float:
        home = self._home_of(line)
        plans = self._fetch_plans
        plan = plans.get(home)
        if plan is None:
            plan = self._plan_home(home)
            plans[home] = plan
        bank, local, links_there, _links_back, hop_delay, _ctrl_occ, _ctrl_fh, data_occ, data_fh, _fh_round, fh_data = plan
        counters = self.stats.counters
        if local:
            counters[S.NOC_FLIT_HOPS] += 0.0
            arrival = now
        else:
            mesh = self.mesh
            for link in links_there:
                link.requests += 1
                link.busy_cycles += data_occ
            mesh.flit_hops += data_fh
            mesh.messages += 1
            counters[S.NOC_FLIT_HOPS] += fh_data
            arrival = now + hop_delay + data_occ
        done, hit = bank.access_fast(arrival, line)
        counters[S.L2_ACCESS] += 1.0
        if not hit:
            counters[S.DRAM_ACCESS] += 1.0
        return done

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
