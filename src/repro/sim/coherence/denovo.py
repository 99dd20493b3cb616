"""The DeNovo coherence protocol (Section 2.2).

A hybrid of GPU-style self-invalidation and ownership-based protocols:

- Stores obtain *registration* (ownership) of their line at the L1 and
  use writeback caching, so written data is reused locally;
- Atomics obtain registration at **word granularity** (DeNovo tracks
  per-word state, so adjacent histogram bins never false-share) and then
  execute at the L1 — enabling atomic reuse, unlike GPU coherence;
- Loads of lines registered to another core are forwarded by the L2
  registry to the owner (remote L1 hit);
- A paired acquire self-invalidates only VALID (non-registered) data,
  so owned data and owned atomic words survive synchronization;
- Same-word atomic requests coalesce in the L1 MSHR (bounded targets per
  entry): once the registration arrives, coalesced atomics drain
  back-to-back locally — the mechanism behind DeNovo+DRFrlx's atomic
  bandwidth (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.obs import metrics as S
from repro.sim.coherence.base import CoherenceProtocol
from repro.sim.mem.cache import LineState


@dataclass(slots=True)
class _WordMiss:
    """An in-flight word-registration transfer."""

    ready_at: float
    targets: int  # requests riding on this transfer (MSHR entry targets)


class DeNovoCoherence(CoherenceProtocol):
    atomics_at_l1 = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Words this L1 currently owns (atomic registration).
        self.owned_words: Set[int] = set()
        #: word -> in-flight registration transfer.
        self._word_misses: Dict[int, _WordMiss] = {}

    # -- word helpers ---------------------------------------------------------
    def word_of(self, addr: int) -> int:
        return addr // self.config.word_bytes

    def _word_home(self, word: int) -> int:
        line = (word * self.config.word_bytes) // self.config.line_bytes
        return self.l2.home_node(line)

    # -- internal: data / ownership transfers -----------------------------------
    def _remote_transfer(self, now: float, line: int, owner: int, take_ownership: bool) -> float:
        """Line request forwarded through the home registry to the owner."""
        home = self.l2.home_node(line)
        req = self.mesh.send(now, self.node, home, self._ctrl_flits)
        self._noc(req)
        bank = self.l2.banks[home]
        at_dir = bank.port.acquire(req.arrival, self.config.l2_bank_service)
        self.stats.counters[S.L2_ACCESS] += 1.0
        fwd = self.mesh.send(at_dir, home, owner, self._ctrl_flits)
        self._noc(fwd)
        # The remote L1 services the forwarded request; its port
        # serializes concurrent transfers (the ping-pong cost).
        peer = self.peers.get(owner)
        remote_ready = fwd.arrival + self.config.remote_l1_base_latency
        if peer is not None:
            remote_ready = peer.l1_port.acquire(
                remote_ready, self.config.remote_l1_service
            )
        resp = self.mesh.send(remote_ready, owner, self.node, self._data_flits)
        self._noc(resp)
        self.stats.counters[S.REMOTE_L1_TRANSFER] += 1.0
        if take_ownership:
            if peer is not None:
                peer.l1.invalidate_line(line)
            bank.register(line, self.node)
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.component, "remote_transfer", dur=resp.arrival - now,
                line=line, owner=owner, take_ownership=take_ownership,
            )
        return resp.arrival

    def _fetch_line(self, now: float, line: int, take_ownership: bool) -> float:
        bank = self.l2.bank_for(line)
        owner = bank.current_owner(line)
        if owner is not None and owner != self.node:
            return self._remote_transfer(now, line, owner, take_ownership)
        done = self._l2_fetch(now, line)
        if take_ownership:
            bank.register(line, self.node)
        return done

    def _fetch_word(self, now: float, word: int) -> float:
        """Obtain word registration: through the home directory, stealing
        from the current owner when there is one."""
        home = self._word_home(word)
        bank = self.l2.banks[home]
        owner = bank.word_owner.get(word)
        req = self.mesh.send(now, self.node, home, self._ctrl_flits)
        self._noc(req)
        at_dir = bank.port.acquire(req.arrival, self.config.l2_bank_service)
        self.stats.counters[S.L2_ACCESS] += 1.0
        if owner is not None and owner != self.node:
            fwd = self.mesh.send(at_dir, home, owner, self._ctrl_flits)
            self._noc(fwd)
            peer = self.peers.get(owner)
            remote_ready = fwd.arrival + self.config.remote_l1_base_latency
            if peer is not None:
                peer.owned_words.discard(word)
                remote_ready = peer.l1_port.acquire(
                    remote_ready, self.config.remote_l1_service
                )
            resp = self.mesh.send(remote_ready, owner, self.node, self._ctrl_flits)
            self.stats.counters[S.REMOTE_L1_TRANSFER] += 1.0
        else:
            resp = self.mesh.send(at_dir, home, self.node, self._ctrl_flits)
        self._noc(resp)
        bank.word_owner[word] = self.node
        self.owned_words.add(word)
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.component, "word_registration", dur=resp.arrival - now,
                word=word, stolen_from=owner if owner != self.node else None,
            )
        return resp.arrival

    def _evict(self, victim) -> None:
        if victim is None:
            return
        line, state = victim
        if state is LineState.REGISTERED:
            home = self.l2.home_node(line)
            out = self.mesh.send(0.0, self.node, home, self._data_flits)
            self._noc(out)
            self.l2.banks[home].unregister(line, self.node)
            counters = self.stats.counters
            counters[S.L2_ACCESS] += 1.0
            counters[S.DENOVO_WRITEBACKS] += 1.0
            if self.tracer.enabled:
                self.tracer.emit(0.0, self.component, "writeback", line=line)

    # -- protocol interface ---------------------------------------------------------
    def load(self, now: float, addr: int) -> float:
        line = self.line_of(addr)
        counters = self.stats.counters
        counters[S.L1_ACCESS] += 1.0
        self.mshr.retire_ready(now)
        if self.l1.lookup(addr, now) is not LineState.INVALID:
            counters[S.L1_HIT] += 1.0
            return self.l1_port.acquire(now, self.config.l1_hit_latency)
        counters[S.L1_MISS] += 1.0
        pending = self.mshr.outstanding(line)
        if pending is not None and pending.coalesced < self.config.mshr_targets:
            self.mshr.coalesce(line, now)
            counters[S.MSHR_COALESCE] += 1.0
            return max(pending.ready_at, now) + self.config.l1_hit_latency
        ready = self._fetch_line(now, line, take_ownership=False)
        if pending is None and not self.mshr.full:
            self.mshr.allocate(line, ready)
        if self.l1.lookup(addr, now) is not LineState.REGISTERED:
            self._evict(self.l1.fill(addr, LineState.VALID, now))
        return ready

    def store(self, now: float, addr: int) -> float:
        """Obtain line registration; the store completes when owned."""
        line = self.line_of(addr)
        counters = self.stats.counters
        counters[S.L1_ACCESS] += 1.0
        counters[S.SB_WRITE] += 1.0
        self.mshr.retire_ready(now)
        if self.l1.lookup(addr, now) is LineState.REGISTERED:
            counters[S.L1_HIT] += 1.0
            return self.l1_port.acquire(now, self.config.l1_hit_latency)
        pending = self.mshr.outstanding(line)
        if pending is not None and pending.coalesced < self.config.mshr_targets:
            self.mshr.coalesce(line, now)
            counters[S.MSHR_COALESCE] += 1.0
            return max(pending.ready_at, now) + self.config.l1_hit_latency
        ready = self._fetch_line(now, line, take_ownership=True)
        if pending is None and not self.mshr.full:
            self.mshr.allocate(line, ready)
        self._evict(self.l1.fill(addr, LineState.REGISTERED, now))
        return ready

    def atomic(self, now: float, addr: int, is_rmw: bool = True) -> float:
        """Word-granular registration, then the atomic executes at the L1.
        DeNovo obtains ownership for *all* atomics, including loads
        (Section 2.2) — the source of its remote-transfer overhead on
        read-shared atomics (Flags, HG-NO)."""
        word = self.word_of(addr)
        counters = self.stats.counters
        counters[S.ATOMIC_ISSUED] += 1.0
        counters[S.L1_ACCESS] += 1.0
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.component, "atomic",
                word=word, rmw=is_rmw, at="l1", owned=word in self.owned_words,
            )
        # Retire resolved word misses.
        done = [w for w, m in self._word_misses.items() if m.ready_at <= now]
        for w in done:
            del self._word_misses[w]
        if word in self.owned_words:
            in_flight = self._word_misses.get(word)
            if (
                in_flight is not None
                and in_flight.ready_at > now
                and in_flight.targets < self.config.mshr_targets
            ):
                # Registration granted but the transfer is still in
                # flight: this access rides on it (MSHR coalescing, up to
                # the entry's target capacity); the L1 port reservation
                # made at ready_at orders it after the transfer lands.
                in_flight.targets += 1
                counters[S.MSHR_COALESCE] += 1.0
            else:
                counters[S.L1_HIT] += 1.0
            counters[S.L1_ATOMIC] += 1.0
            return self.l1_port.acquire(now, self.config.l1_atomic_service)
        miss = self._word_misses.get(word)
        if miss is not None and miss.targets < self.config.mshr_targets:
            miss.targets += 1
            counters[S.MSHR_COALESCE] += 1.0
            counters[S.L1_ATOMIC] += 1.0
            start = max(miss.ready_at, now)
            return self.l1_port.acquire(start, self.config.l1_atomic_service)
        # Either no transfer in flight or the entry's targets are full:
        # issue a (new) registration transfer.
        start = max(now, miss.ready_at) if miss is not None else now
        ready = self._fetch_word(start, word)
        self._word_misses[word] = _WordMiss(ready_at=ready, targets=1)
        counters[S.L1_ATOMIC] += 1.0
        return self.l1_port.acquire(ready, self.config.l1_atomic_service)

    def acquire(self, now: float) -> float:
        dropped = self.l1.self_invalidate(now)  # registered data survives
        counters = self.stats.counters
        counters[S.L1_INVALIDATE] += 1.0
        counters[S.L1_LINES_INVALIDATED] += float(dropped)
        return now + self.config.cache_invalidate_cycles
