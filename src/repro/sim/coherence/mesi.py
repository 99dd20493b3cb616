"""A directory-based MESI-style protocol (comparator).

The paper describes DeNovo as a hybrid of GPU-style and "ownership-based
(e.g., MESI)" protocols (Section 2.2).  This comparator completes the
triangle: full hardware coherence with writer-initiated invalidation and
a sharer directory at the L2.

Behavioural contrasts with the other two protocols:

- A paired **acquire costs nothing** — the directory keeps caches
  coherent, so no self-invalidation is ever needed (reuse across
  synchronization is free);
- A store or atomic must collect the line in M state: the directory
  **invalidates every sharer** first, so widely read-shared lines make
  writers pay per sharer — the invalidation-storm overhead that makes
  this class of protocol unattractive for GPU-scale sharing;
- Sharer tracking is per line, so adjacent atomics false-share.

The protocol is intentionally line-granular MESI, not MOESI/MESIF; it is
a comparator, not a paper artifact, and is excluded from the standard
six-configuration sweeps.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.obs import metrics as S
from repro.sim.coherence.base import CoherenceProtocol
from repro.sim.mem.cache import LineState

#: Extra directory occupancy per sharer invalidated.
_INVALIDATION_SERVICE = 2.0


class MesiCoherence(CoherenceProtocol):
    atomics_at_l1 = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)

    # -- directory helpers -------------------------------------------------------
    def _sharers(self, bank, line: int) -> Set[int]:
        table: Dict[int, Set[int]] = getattr(bank, "mesi_sharers", None)
        if table is None:
            table = {}
            bank.mesi_sharers = table
        return table.setdefault(line, set())

    def _read_from_directory(self, now: float, line: int) -> float:
        """Obtain a shared copy: downgrade an M owner if there is one."""
        home = self.l2.home_node(line)
        req = self.mesh.send(now, self.node, home, self._ctrl_flits)
        self._noc(req)
        bank = self.l2.banks[home]
        at_dir = bank.port.acquire(req.arrival, self.config.l2_bank_service)
        self.stats.bump(S.L2_ACCESS)
        owner = bank.current_owner(line)
        if owner is not None and owner != self.node:
            # Owner writes back and downgrades to S.
            fwd = self.mesh.send(at_dir, home, owner, self._ctrl_flits)
            self._noc(fwd)
            peer = self.peers.get(owner)
            ready = fwd.arrival + self.config.remote_l1_base_latency
            if peer is not None:
                ready = peer.l1_port.acquire(ready, self.config.remote_l1_service)
                peer.l1.fill(line * self.config.line_bytes, LineState.VALID, ready)
            bank.register(line, None)
            self._sharers(bank, line).add(owner)
            self.stats.bump(S.REMOTE_L1_TRANSFER)
            resp = self.mesh.send(ready, owner, self.node, self._data_flits)
        else:
            access = bank.access(at_dir, line)
            if not access.l2_hit:
                self.stats.bump(S.DRAM_ACCESS)
            resp = self.mesh.send(access.done, home, self.node, self._data_flits)
        self._noc(resp)
        self._sharers(bank, line).add(self.node)
        return resp.arrival

    def _write_from_directory(self, now: float, line: int) -> float:
        """Obtain M: invalidate every sharer / transfer from the owner."""
        home = self.l2.home_node(line)
        req = self.mesh.send(now, self.node, home, self._ctrl_flits)
        self._noc(req)
        bank = self.l2.banks[home]
        at_dir = bank.port.acquire(req.arrival, self.config.l2_bank_service)
        self.stats.bump(S.L2_ACCESS)
        done = at_dir
        owner = bank.current_owner(line)
        sharers = self._sharers(bank, line)
        if owner is not None and owner != self.node:
            fwd = self.mesh.send(at_dir, home, owner, self._ctrl_flits)
            self._noc(fwd)
            peer = self.peers.get(owner)
            ready = fwd.arrival + self.config.remote_l1_base_latency
            if peer is not None:
                ready = peer.l1_port.acquire(ready, self.config.remote_l1_service)
                peer.l1.invalidate_line(line)
            self.stats.bump(S.REMOTE_L1_TRANSFER)
            resp = self.mesh.send(ready, owner, self.node, self._data_flits)
            self._noc(resp)
            done = resp.arrival
        else:
            # Writer-initiated invalidation of every shared copy.
            stale = [n for n in sharers if n != self.node]
            inval_done = at_dir
            for sharer in stale:
                inval_done = bank.port.acquire(inval_done, _INVALIDATION_SERVICE)
                msg = self.mesh.send(inval_done, home, sharer, self._ctrl_flits)
                self._noc(msg)
                peer = self.peers.get(sharer)
                if peer is not None:
                    peer.l1.invalidate_line(line)
                self.stats.bump("mesi_invalidations")
                done = max(done, msg.arrival)
            access = bank.access(done, line)
            if not access.l2_hit:
                self.stats.bump(S.DRAM_ACCESS)
            resp = self.mesh.send(access.done, home, self.node, self._data_flits)
            self._noc(resp)
            done = resp.arrival
        sharers.clear()
        sharers.add(self.node)
        bank.register(line, self.node)
        return done

    # -- protocol interface --------------------------------------------------------
    def load(self, now: float, addr: int) -> float:
        line = self.line_of(addr)
        self.stats.bump(S.L1_ACCESS)
        self.mshr.retire_ready(now)
        if self.l1.lookup(addr, now) is not LineState.INVALID:
            self.stats.bump(S.L1_HIT)
            return self.l1_port.acquire(now, self.config.l1_hit_latency)
        self.stats.bump(S.L1_MISS)
        pending = self.mshr.outstanding(line)
        if pending is not None and pending.coalesced < self.config.mshr_targets:
            self.mshr.coalesce(line)
            self.stats.bump(S.MSHR_COALESCE)
            return max(pending.ready_at, now) + self.config.l1_hit_latency
        ready = self._read_from_directory(now, line)
        if pending is None and not self.mshr.full:
            self.mshr.allocate(line, ready)
        self.l1.fill(addr, LineState.VALID, now)
        return ready

    def store(self, now: float, addr: int) -> float:
        line = self.line_of(addr)
        self.stats.bump(S.L1_ACCESS)
        self.stats.bump(S.SB_WRITE)
        if self.l1.lookup(addr, now) is LineState.REGISTERED:
            self.stats.bump(S.L1_HIT)
            return self.l1_port.acquire(now, self.config.l1_hit_latency)
        ready = self._write_from_directory(now, line)
        self.l1.fill(addr, LineState.REGISTERED, now)
        return ready

    def atomic(self, now: float, addr: int, is_rmw: bool = True) -> float:
        line = self.line_of(addr)
        self.stats.bump(S.ATOMIC_ISSUED)
        self.stats.bump(S.L1_ACCESS)
        if self.l1.lookup(addr, now) is LineState.REGISTERED:
            self.stats.bump(S.L1_HIT)
            self.stats.bump(S.L1_ATOMIC)
            return self.l1_port.acquire(now, self.config.l1_atomic_service)
        ready = self._write_from_directory(now, line)
        self.l1.fill(addr, LineState.REGISTERED, now)
        self.stats.bump(S.L1_ATOMIC)
        return self.l1_port.acquire(ready, self.config.l1_atomic_service)

    def acquire(self, now: float) -> float:
        """Hardware coherence: nothing to invalidate on an acquire."""
        self.stats.bump(S.L1_INVALIDATE, 0)  # explicit: zero-cost acquire
        return now

    def release(self, now: float) -> float:
        self.stats.bump(S.SB_FLUSH)
        return self.store_buffer.flush_time(now)
