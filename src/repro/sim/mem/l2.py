"""The shared, banked NUCA L2 plus the memory behind it.

Each mesh node hosts one bank slice; a physical address maps to its home
bank by line interleaving.  Bank ports are serializing resources — this
is where GPU coherence pays for executing every atomic at the LLC under
contention.  For DeNovo the L2 doubles as the registration directory
(line -> owning L1), so it can forward requests to remote owners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.config import SystemConfig
from repro.sim.engine import Resource


def home_bank(line: int, nodes: Sequence[int]) -> int:
    """The home node of *line* among the bank *nodes*: an XOR-folded
    hash (as in real NUCA L2s), because plain modulo maps power-of-two
    strides onto a couple of banks, serializing whole access waves
    behind two DRAM ports."""
    return nodes[(line ^ (line >> 4) ^ (line >> 8)) % len(nodes)]


@dataclass(slots=True)
class BankAccess:
    """Timing outcome of one request at a bank."""

    done: float
    l2_hit: bool


class L2Bank:
    def __init__(self, node: int, config: SystemConfig, tracer: Tracer = NULL_TRACER):
        self.node = node
        self.config = config
        self.tracer = tracer
        self.component = f"l2bank@{node}"
        self.port = Resource(f"l2bank@{node}", tracer)
        self.dram = Resource(f"dram@{node}", tracer)
        #: Lines this bank currently holds (a simple capacity-less filter:
        #: the first touch of a line is a miss, later touches hit — the
        #: workloads' footprints fit the 4 MB L2, matching the paper).
        self._present: Set[int] = set()
        #: DeNovo registry: line -> owner CU node (None when L2 owns it).
        self.owner: Dict[int, Optional[int]] = {}
        #: DeNovo word-granular registry for atomics: word -> owner node.
        self.word_owner: Dict[int, Optional[int]] = {}
        self.accesses = 0
        self.atomic_ops = 0
        self.dram_accesses = 0
        #: Service times are fixed per config; resolve them once rather
        #: than walking the config dataclass on every request.
        self._bank_service = config.l2_bank_service
        self._atomic_service = config.l2_atomic_service
        self._base_latency = config.l2_base_latency
        self._dram_service = config.dram_service
        self._dram_latency = config.dram_latency

    def access(self, arrival: float, line: int, atomic: bool = False) -> BankAccess:
        """Service a request arriving at this bank at *arrival*."""
        service = self._atomic_service if atomic else self._bank_service
        done = self.port.acquire(arrival, service) + self._base_latency
        self.accesses += 1
        if atomic:
            self.atomic_ops += 1
        hit = line in self._present
        if not hit:
            done = self.dram.acquire(done, self._dram_service) + self._dram_latency
            self._present.add(line)
            self.dram_accesses += 1
        if self.tracer.enabled:
            self.tracer.emit(
                arrival, self.component, "access", dur=done - arrival,
                line=line, atomic=atomic, hit=hit,
            )
        return BankAccess(done=done, l2_hit=hit)

    def access_fast(self, arrival: float, line: int, atomic: bool = False):
        """No-tracer fast path of :meth:`access` for the compiled engine,
        which only runs with tracing disabled: the same arithmetic (term
        for term, in the same order) and the same bookkeeping, returning
        a plain ``(done, l2_hit)`` tuple without the per-request
        :class:`BankAccess` wrapper or resource-call overhead."""
        service = self._atomic_service if atomic else self._bank_service
        port = self.port
        nf = port.next_free
        start = arrival if arrival > nf else nf
        end = start + service
        port.next_free = end
        port.busy_cycles += service
        port.requests += 1
        done = end + self._base_latency
        self.accesses += 1
        if atomic:
            self.atomic_ops += 1
        hit = line in self._present
        if not hit:
            dram = self.dram
            nf = dram.next_free
            start = done if done > nf else nf
            end = start + self._dram_service
            dram.next_free = end
            dram.busy_cycles += self._dram_service
            dram.requests += 1
            done = end + self._dram_latency
            self._present.add(line)
            self.dram_accesses += 1
        return done, hit

    # -- DeNovo registry ---------------------------------------------------------
    def current_owner(self, line: int) -> Optional[int]:
        return self.owner.get(line)

    def register(self, line: int, new_owner: int) -> Optional[int]:
        """Record *new_owner* as the line's registrant; returns previous."""
        prev = self.owner.get(line)
        self.owner[line] = new_owner
        return prev

    def unregister(self, line: int, node: int) -> None:
        if self.owner.get(line) == node:
            self.owner[line] = None


class L2System:
    """All banks plus the home-mapping function."""

    def __init__(self, config: SystemConfig, nodes: List[int], tracer: Tracer = NULL_TRACER):
        if not nodes:
            raise ValueError("need at least one L2 bank node")
        self.config = config
        self.banks: Dict[int, L2Bank] = {n: L2Bank(n, config, tracer) for n in nodes}
        self._nodes = list(nodes)
        #: line -> home node, pre-resolved ahead of time for the address
        #: footprint of a compiled kernel (see :meth:`install_home_map`).
        self._home_map: Dict[int, int] = {}

    def install_home_map(self, lines) -> None:
        """Pre-resolve the home bank of every line in *lines*.

        The hash in :meth:`home_node` is pure, so memoizing it never
        changes routing — it just turns the per-access fold-and-modulo
        into a dict hit.  The compiled engine installs the footprint of
        the kernel it is about to run."""
        self._home_map.update((line, self.home_node(line)) for line in lines)

    def home_node(self, line: int) -> int:
        home = self._home_map.get(line)
        if home is not None:
            return home
        return home_bank(line, self._nodes)

    def bank_for(self, line: int) -> L2Bank:
        return self.banks[self.home_node(line)]

    def total_accesses(self) -> int:
        return sum(b.accesses for b in self.banks.values())

    def total_dram(self) -> int:
        return sum(b.dram_accesses for b in self.banks.values())
