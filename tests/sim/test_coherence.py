"""GPU and DeNovo coherence protocol behaviour."""

import pytest

from repro.obs import metrics as S
from repro.sim.coherence.denovo import DeNovoCoherence
from repro.sim.coherence.gpu import GpuCoherence
from repro.sim.config import INTEGRATED
from repro.sim.mem.cache import LineState
from repro.sim.mem.l2 import L2System
from repro.sim.noc.mesh import Mesh
from repro.obs.metrics import MetricSet


def make_pair(cls):
    """Two protocol instances (nodes 0 and 1) sharing mesh/L2/stats."""
    mesh = Mesh(INTEGRATED)
    l2 = L2System(INTEGRATED, nodes=list(range(16)))
    stats = MetricSet()
    peers = {}
    a = cls(0, INTEGRATED, mesh, l2, stats, peers)
    b = cls(1, INTEGRATED, mesh, l2, stats, peers)
    return a, b, stats, l2


class TestGpuCoherence:
    def test_load_miss_then_hit(self):
        a, _, stats, _ = make_pair(GpuCoherence)
        t1 = a.load(0.0, 0x1000)
        assert t1 > INTEGRATED.l1_hit_latency
        t2 = a.load(t1, 0x1000)
        assert t2 - t1 <= 2 * INTEGRATED.l1_hit_latency
        assert stats.get(S.L1_HIT) == 1
        assert stats.get(S.L1_MISS) == 1

    def test_acquire_invalidates_everything(self):
        a, _, stats, _ = make_pair(GpuCoherence)
        t = a.load(0.0, 0x1000)
        a.acquire(t)
        t2 = a.load(t + 10, 0x1000)
        assert t2 - (t + 10) > INTEGRATED.l1_hit_latency  # miss again
        assert stats.get(S.L1_INVALIDATE) == 1

    def test_atomics_never_cache(self):
        a, _, stats, _ = make_pair(GpuCoherence)
        t1 = a.atomic(0.0, 0x2000)
        t2 = a.atomic(t1, 0x2000)
        # Both go to the L2: no local reuse.
        assert t2 - t1 > 10
        assert stats.get(S.L2_ATOMIC) == 2
        assert stats.get(S.L1_ATOMIC) == 0

    def test_atomic_load_cheaper_than_rmw(self):
        a, _, _, _ = make_pair(GpuCoherence)
        warm = a.atomic(0.0, 0x2000)  # warm the L2 line (DRAM once)
        t_rmw = a.atomic(warm, 0x2000, is_rmw=True) - warm
        a2, _, _, _ = make_pair(GpuCoherence)
        warm2 = a2.atomic(0.0, 0x2000)
        t_ld = a2.atomic(warm2, 0x2000, is_rmw=False) - warm2
        assert t_ld <= t_rmw

    def test_store_writes_through(self):
        a, _, stats, _ = make_pair(GpuCoherence)
        done = a.store(0.0, 0x3000)
        assert done > 0
        assert stats.get(S.L2_ACCESS) >= 1

    def test_release_flushes_store_buffer(self):
        a, _, stats, _ = make_pair(GpuCoherence)
        completion = a.store(0.0, 0x3000)
        a.store_buffer.push(0.0, 0x3000, completion)
        assert a.release(0.0) == completion
        assert stats.get(S.SB_FLUSH) == 1


class TestDeNovoCoherence:
    def test_store_registers_line(self):
        a, _, stats, l2 = make_pair(DeNovoCoherence)
        a.store(0.0, 0x1000)
        line = 0x1000 // 64
        assert l2.bank_for(line).current_owner(line) == 0
        assert a.l1.lookup(0x1000) is LineState.REGISTERED

    def test_registered_store_hits_locally(self):
        a, _, stats, _ = make_pair(DeNovoCoherence)
        t1 = a.store(0.0, 0x1000)
        t2 = a.store(t1, 0x1000)
        assert t2 - t1 <= 2 * INTEGRATED.l1_hit_latency

    def test_remote_owner_forwarding_for_loads(self):
        a, b, stats, _ = make_pair(DeNovoCoherence)
        t = a.store(0.0, 0x1000)  # node 0 owns the line
        done = b.load(t, 0x1000)
        assert stats.get(S.REMOTE_L1_TRANSFER) == 1
        assert done > t

    def test_load_does_not_steal_line_ownership(self):
        a, b, _, l2 = make_pair(DeNovoCoherence)
        a.store(0.0, 0x1000)
        b.load(100.0, 0x1000)
        line = 0x1000 // 64
        assert l2.bank_for(line).current_owner(line) == 0

    def test_store_steals_line_ownership(self):
        a, b, _, l2 = make_pair(DeNovoCoherence)
        a.store(0.0, 0x1000)
        b.store(500.0, 0x1000)
        line = 0x1000 // 64
        assert l2.bank_for(line).current_owner(line) == 1
        assert a.l1.lookup(0x1000) is LineState.INVALID

    def test_atomic_registers_word_and_reuses(self):
        a, _, stats, _ = make_pair(DeNovoCoherence)
        t1 = a.atomic(0.0, 0x2000)
        t2 = a.atomic(t1, 0x2000)
        assert t2 - t1 <= 2 * INTEGRATED.l1_atomic_service
        assert stats.get(S.L1_ATOMIC) == 2
        assert stats.get(S.L2_ATOMIC) == 0

    def test_atomic_word_granularity_no_false_sharing(self):
        a, b, _, _ = make_pair(DeNovoCoherence)
        t1 = a.atomic(0.0, 0x2000)  # word 0 of the line
        t2 = b.atomic(t1, 0x2004)  # adjacent word, same line
        # b's atomic is NOT a steal from a: different words.
        t3 = a.atomic(t2, 0x2000)
        assert t3 - t2 <= 2 * INTEGRATED.l1_atomic_service  # still owned

    def test_atomic_steal_between_cores(self):
        a, b, stats, _ = make_pair(DeNovoCoherence)
        t1 = a.atomic(0.0, 0x2000)
        t2 = b.atomic(t1, 0x2000)  # steals the word
        assert stats.get(S.REMOTE_L1_TRANSFER) == 1
        t3 = a.atomic(t2, 0x2000)  # must re-acquire
        assert t3 - t2 > 2 * INTEGRATED.l1_atomic_service

    def test_same_word_atomics_coalesce_in_mshr(self):
        a, _, stats, _ = make_pair(DeNovoCoherence)
        a.atomic(0.0, 0x2000)
        a.atomic(0.5, 0x2000)  # transfer still in flight -> coalesce
        assert stats.get(S.MSHR_COALESCE) == 1

    def test_coalescing_bounded_by_targets(self):
        a, _, stats, _ = make_pair(DeNovoCoherence)
        a.atomic(0.0, 0x2000)
        for i in range(INTEGRATED.mshr_targets + 3):
            a.atomic(0.1 + i * 0.01, 0x2000)
        assert stats.get(S.MSHR_COALESCE) <= INTEGRATED.mshr_targets

    def test_acquire_preserves_registered(self):
        a, _, _, _ = make_pair(DeNovoCoherence)
        a.store(0.0, 0x1000)  # registered
        t = a.load(100.0, 0x5000)  # valid
        a.acquire(t)
        assert a.l1.lookup(0x1000) is LineState.REGISTERED
        assert a.l1.lookup(0x5000) is LineState.INVALID
