"""Conventional GPU coherence (Section 2.1).

Software-driven and race-freedom-reliant: loads allocate clean lines in
the L1; stores write through the store buffer to the LLC; a paired
acquire invalidates the *entire* L1; a paired release drains the store
buffer; and every atomic executes at its home L2 bank — so atomics can
never be cached, reused, or coalesced by the L1.
"""

from __future__ import annotations

from repro.obs import metrics as S
from repro.sim.coherence.base import CoherenceProtocol
from repro.sim.mem.cache import LineState


class GpuCoherence(CoherenceProtocol):
    atomics_at_l1 = False

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
        ready = self._l2_fetch(now, line)
        if pending is None and not self.mshr.full:
            self.mshr.allocate(line, ready)
        self.l1.fill(addr, LineState.VALID, now)
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.component, "load_miss", dur=ready - now, line=line,
            )
        return ready

    def store(self, now: float, addr: int) -> float:
        # Write-through, no-allocate; keep an existing line coherent by
        # updating it in place (it stays VALID — this CU wrote the data).
        line = self.line_of(addr)
        counters = self.stats.counters
        counters[S.L1_ACCESS] += 1.0
        counters[S.SB_WRITE] += 1.0
        done = self._l2_writethrough(now, line)
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.component, "store", dur=done - now, line=line,
            )
        return done

    def atomic(self, now: float, addr: int, is_rmw: bool = True) -> float:
        """All atomics execute at the LLC; the bank port serializes them.
        A plain atomic load occupies the bank like any read; an RMW holds
        it for the read-modify-write."""
        line = self.line_of(addr)
        counters = self.stats.counters
        counters[S.ATOMIC_ISSUED] += 1.0
        counters[S.L2_ATOMIC] += 1.0
        done = self._l2_fetch(now, line, atomic=is_rmw)
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.component, "atomic", dur=done - now,
                line=line, rmw=is_rmw, at="l2",
            )
        return done

    def acquire(self, now: float) -> float:
        dropped = self.l1.invalidate_all(now)
        counters = self.stats.counters
        counters[S.L1_INVALIDATE] += 1.0
        counters[S.L1_LINES_INVALIDATED] += float(dropped)
        return now + self.config.cache_invalidate_cycles
