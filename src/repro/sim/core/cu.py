"""A GPU Compute Unit: warp contexts, the warp scheduler, and the LSU.

Each CU holds several warp contexts that share the CU's issue port, L1,
MSHRs, store buffer, and scratchpad.  A warp executes its trace in
order; the consistency model decides which accesses block, which must
wait for earlier atomics, and which overlap.  Warps are driven by the
system event loop: a warp processes a bounded burst of operations per
wake-up, so co-resident warps interleave and hide each other's latency —
the standard GPU latency-tolerance mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import List, Optional

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.obs import metrics as S
from repro.sim.coherence.base import CoherenceProtocol
from repro.sim.config import SystemConfig
from repro.sim.consistency import ConsistencyModel
from repro.sim.engine import Resource
from repro.sim.mem.scratchpad import Scratchpad
from repro.obs.metrics import MetricSet
from repro.sim.trace import Compute, MemAccess, WaitAll, WarpTrace

#: Operations a warp may issue per wake-up before yielding to its peers.
MAX_OPS_PER_WAKE = 4


@dataclass
class Warp:
    """One warp context executing a trace.

    ``outstanding`` is a min-heap of completion times of the warp's
    in-flight non-blocking accesses; ``out_max`` tracks the largest
    completion time ever pushed.  Together they answer the three
    questions the LSU asks — "how many are still in flight?" (heap
    length after pruning), "when does the earliest finish?" (heap root),
    and "when does the last finish?" (``out_max``) — in O(log n)
    amortized instead of rebuilding a list on every call.
    """

    wid: int
    trace: WarpTrace
    pc: int = 0
    outstanding: List[float] = field(default_factory=list)
    out_max: float = 0.0
    last_atomic_done: float = 0.0
    done: bool = False
    finish_time: float = 0.0

    def push_outstanding(self, completes_at: float) -> None:
        heappush(self.outstanding, completes_at)
        if completes_at > self.out_max:
            self.out_max = completes_at

    def prune(self, now: float) -> None:
        out = self.outstanding
        while out and out[0] <= now:
            heappop(out)

    def pending_until(self, now: float) -> float:
        # out_max only ever grows, but if it exceeds `now` the access
        # that set it is still in the heap (it is only popped once its
        # completion time is <= now), so no prune is needed here.
        return self.out_max if self.out_max > now else now


class ComputeUnit:
    """One CU (or CPU core acting as a simple in-order core)."""

    def __init__(
        self,
        node: int,
        config: SystemConfig,
        protocol: CoherenceProtocol,
        model: ConsistencyModel,
        stats: MetricSet,
        tracer: Tracer = NULL_TRACER,
    ):
        self.node = node
        self.config = config
        self.protocol = protocol
        self.model = model
        self.stats = stats
        self.tracer = tracer
        self.issue_port = Resource(f"issue@{node}", tracer)
        self.scratchpad = Scratchpad()
        self.warps: List[Warp] = []

    def load_phase(self, traces: List[WarpTrace]) -> None:
        self.warps = [Warp(wid=i, trace=list(t)) for i, t in enumerate(traces)]

    def all_done(self) -> bool:
        return all(w.done for w in self.warps)

    # ------------------------------------------------------------------ stepping
    def step_warp(self, warp: Warp, now: float) -> Optional[float]:
        """Advance *warp* from time *now*; returns its next wake-up time,
        or None when the warp has fully retired."""
        issued = 0
        while True:
            warp.prune(now)
            if warp.pc >= len(warp.trace):
                pending = warp.pending_until(now)
                sb_done = self.protocol.store_buffer.last_completion(now)
                finish = max(pending, sb_done)
                if finish > now:
                    return finish
                warp.done = True
                warp.finish_time = now
                return None
            if issued >= MAX_OPS_PER_WAKE:
                return now  # yield to co-resident warps
            op = warp.trace[warp.pc]

            if isinstance(op, Compute):
                start = self.issue_port.acquire(now, self.config.issue_service)
                self.stats.bump(S.CORE_OP, max(1.0, op.cycles))
                now = start + op.cycles
                warp.pc += 1
                issued += 1
                continue

            if isinstance(op, WaitAll):
                pending = warp.pending_until(now)
                if pending > now:
                    return pending
                warp.pc += 1
                continue

            assert isinstance(op, MemAccess)
            if op.space == "scratch":
                start = self.issue_port.acquire(now, self.config.issue_service)
                now = self.scratchpad.access(start)
                self.stats.bump(S.SCRATCH_ACCESS)
                self.stats.bump(S.CORE_OP)
                warp.pc += 1
                issued += 1
                continue

            treatment = self.model.treatment(op.kind)
            entry = now
            result = self._issue_global(warp, now, op, treatment)
            advanced, now = result
            if not advanced:
                return now  # blocked until `now`; pc unchanged
            issued += 1
            if now > entry:
                # A blocking access moved this warp's clock forward: yield
                # so co-resident warps with earlier clocks issue first —
                # otherwise this warp would reserve shared ports (L2
                # banks, links) ahead of requests that arrive sooner.
                return now

    def _issue_global(self, warp: Warp, now: float, op: MemAccess, treatment: str):
        """Issue one global-memory access.  Returns (advanced, time):
        advanced=False means the warp must sleep until `time` and retry."""
        proto = self.protocol
        self.stats.bump(S.CORE_OP)

        if treatment == "data":
            if op.op == "ld":
                start = self.issue_port.acquire(now, self.config.issue_service)
                done = proto.load(start, op.addr)
                warp.pc += 1
                return True, done  # loads block the warp on use
            # Data stores retire through the store buffer.
            proto.store_buffer.drain_completed(now)
            if proto.store_buffer.full:
                return False, max(proto.store_buffer.head_completion(), now + 1)
            start = self.issue_port.acquire(now, self.config.issue_service)
            completion = proto.store(start, op.addr)
            proto.store_buffer.push(start, op.addr, completion)
            warp.pc += 1
            return True, start

        if treatment == "paired":
            ready = max(warp.pending_until(now), warp.last_atomic_done)
            if op.op in ("st", "rmw"):
                ready = max(ready, proto.store_buffer.last_completion(now))
            if ready > now:
                return False, ready
            start = self.issue_port.acquire(now, self.config.issue_service)
            if op.op in ("st", "rmw"):
                start = max(start, proto.release(start))  # flush (already drained)
            done = proto.atomic(start, op.addr, op.op == "rmw")
            if op.op in ("ld", "rmw"):
                done = proto.acquire(done)  # invalidate the L1
            warp.last_atomic_done = done
            warp.pc += 1
            return True, done  # paired atomics block the warp

        if treatment == "local_paired":
            # Scoped SC atomic (HRF): full ordering within the warp, but
            # synchronization is through the CU-local L1 — no
            # invalidation, no store-buffer flush, L1-latency atomic.
            ready = max(warp.pending_until(now), warp.last_atomic_done)
            if ready > now:
                return False, ready
            start = self.issue_port.acquire(now, self.config.issue_service)
            done = proto.local_atomic(start, op.addr)
            warp.last_atomic_done = done
            warp.pc += 1
            return True, done

        if treatment == "acquire":
            # Stays ordered among atomics; invalidates the L1; blocks the
            # warp's later accesses — but does not drain earlier ones.
            if warp.last_atomic_done > now:
                return False, warp.last_atomic_done
            start = self.issue_port.acquire(now, self.config.issue_service)
            done = proto.atomic(start, op.addr, op.op == "rmw")
            done = proto.acquire(done)  # self-invalidate to see fresh data
            warp.last_atomic_done = done
            warp.pc += 1
            return True, done  # acquire blocks the warp

        if treatment == "release":
            # Waits for everything earlier (including the store buffer)
            # but does not invalidate and does not block later accesses.
            ready = max(
                warp.pending_until(now),
                warp.last_atomic_done,
                proto.store_buffer.last_completion(now),
            )
            if ready > now:
                return False, ready
            start = self.issue_port.acquire(now, self.config.issue_service)
            start = max(start, proto.release(start))  # flush (already drained)
            done = proto.atomic(start, op.addr, op.op == "rmw")
            warp.last_atomic_done = done
            warp.push_outstanding(done)
            warp.pc += 1
            return True, start  # non-blocking

        if treatment == "unpaired":
            # Program order among the warp's atomics, but no invalidate,
            # no flush, and data flows around it.
            if warp.last_atomic_done > now:
                return False, warp.last_atomic_done
            start = self.issue_port.acquire(now, self.config.issue_service)
            done = proto.atomic(start, op.addr, op.op == "rmw")
            warp.last_atomic_done = done
            warp.push_outstanding(done)
            warp.pc += 1
            return True, start

        if treatment == "relaxed":
            # Fully overlapped, bounded by the MSHR file.  The heap was
            # pruned at the top of the step loop, so its length is the
            # in-flight count and its root the earliest completion.
            if len(warp.outstanding) >= self.config.max_outstanding_per_warp:
                return False, warp.outstanding[0]
            start = self.issue_port.acquire(now, self.config.issue_service)
            done = proto.atomic(start, op.addr, op.op == "rmw")
            warp.push_outstanding(done)
            warp.pc += 1
            return True, start

        raise ValueError(f"unknown treatment {treatment!r}")
