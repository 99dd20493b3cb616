"""Typed metrics registry for the simulator's event counters.

These are the raw inputs to the energy model (Section 4.2: GPUWattch for
the GPU cores, McPAT for the NoC) and to the reported statistics.  Each
counter keeps a plain string *value* (every call site, stored artifact,
and test keys by it) but is typed as a :class:`Metric` — a ``str``
subclass carrying the owning component, unit, and description — so the
energy model, reports, and exporters can group and document counters
instead of pattern-matching names.  The simulator imports this module
as ``from repro.obs import metrics as S``.

:class:`MetricSet` is the counter bag.  All
counter values are coerced to ``float`` at :meth:`MetricSet.bump` time
(``get`` used to return ``0.0`` for absent names but ``int`` for
counters bumped with integer amounts).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Tuple


class Metric(str):
    """A counter name with metadata.

    Being a ``str`` subclass, a :class:`Metric` is usable anywhere the
    old string constants were — dict keys, ``stats.get(...)``, JSON —
    while carrying its component, unit, and description.
    """

    __slots__ = ("component", "unit", "doc")

    def __new__(cls, name: str, component: str = "other", unit: str = "events", doc: str = ""):
        self = super().__new__(cls, name)
        self.component = component
        self.unit = unit
        self.doc = doc
        return self


#: name -> Metric, in registration order.
REGISTRY: Dict[str, Metric] = {}


def metric(name: str, component: str = "other", unit: str = "events", doc: str = "") -> Metric:
    """Register (or return the existing) :class:`Metric` called *name*."""
    existing = REGISTRY.get(name)
    if existing is not None:
        return existing
    m = Metric(name, component, unit, doc)
    REGISTRY[name] = m
    return m


def lookup(name: str) -> Metric:
    """The registered metric for *name*; unregistered names get an
    ad-hoc ``other``-component metric (not added to the registry)."""
    return REGISTRY.get(name) or Metric(name)


def all_metrics() -> Tuple[Metric, ...]:
    return tuple(REGISTRY.values())


# -- the simulator's counter vocabulary ---------------------------------------
# One place so the energy model, reports, exporters, and tests agree.

L1_ACCESS = metric("l1_access", "l1", doc="L1 tag-array accesses (loads, stores, atomics)")
L1_HIT = metric("l1_hit", "l1", doc="L1 accesses served by a valid/registered line")
L1_MISS = metric("l1_miss", "l1", doc="L1 accesses that went past the L1")
L1_INVALIDATE = metric("l1_invalidate", "l1", doc="flash self-invalidations (acquires)")
L1_LINES_INVALIDATED = metric(
    "l1_lines_invalidated", "l1", unit="lines", doc="lines dropped by self-invalidations"
)
L1_ATOMIC = metric("l1_atomic", "l1", doc="atomics performed at an L1 (DeNovo)")
L2_ACCESS = metric("l2_access", "l2", doc="L2 bank accesses (incl. directory work)")
L2_ATOMIC = metric("l2_atomic", "l2", doc="atomics performed at an L2 bank (GPU coherence)")
DRAM_ACCESS = metric("dram_access", "dram", doc="L2 misses serviced by DRAM")
NOC_FLIT_HOPS = metric(
    "noc_flit_hops", "network", unit="flit-hops", doc="flits x hops, the NoC energy unit"
)
SCRATCH_ACCESS = metric("scratch_access", "scratchpad", doc="per-CU scratchpad accesses")
CORE_OP = metric("core_op", "gpu_core", unit="ops", doc="issued core operations")
SB_FLUSH = metric("sb_flush", "store_buffer", doc="store-buffer flushes (paired releases)")
SB_WRITE = metric("sb_write", "store_buffer", doc="stores entering the store buffer")
MSHR_COALESCE = metric("mshr_coalesce", "mshr", doc="requests coalesced onto an outstanding miss")
REMOTE_L1_TRANSFER = metric(
    "remote_l1_transfer", "l1", doc="DeNovo ownership/data transfers from a remote L1"
)
ATOMIC_ISSUED = metric("atomic_issued", "gpu_core", doc="atomic operations issued")
DENOVO_WRITEBACKS = metric(
    "denovo_writebacks", "l2", doc="registered-line writebacks on eviction (DeNovo)"
)
CACHE_HIT = metric(
    "result_cache_hit", "cache", doc="sweep cells served from the result cache"
)
CACHE_MISS = metric(
    "result_cache_miss", "cache", doc="sweep cells computed and stored"
)
SERVE_REQUEST = metric(
    "serve_request", "serve", unit="requests",
    doc="requests accepted by the checker service",
)
SERVE_BUSY = metric(
    "serve_busy", "serve", unit="requests",
    doc="requests rejected with busy (backpressure: bounded queue full)",
)
SERVE_CACHE_HIT = metric(
    "serve_cache_hit", "serve", unit="requests",
    doc="service requests answered whole from the response cache",
)
SERVE_ERROR = metric(
    "serve_error", "serve", unit="requests",
    doc="service requests answered with an ok=false envelope",
)


class MetricSet:
    """A bag of named event counters with helper accessors.

    Values are always ``float``: amounts are coerced at :meth:`bump`
    time, so ``get`` is type-stable for present and absent names alike.
    """

    __slots__ = ("counters",)

    def __init__(self):
        self.counters: Counter = Counter()

    def bump(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += float(amount)

    def get(self, name: str) -> float:
        return float(self.counters.get(name, 0.0))

    def merge(self, other: "MetricSet") -> None:
        self.counters.update(other.counters)

    def as_dict(self) -> Dict[str, float]:
        return {name: float(value) for name, value in self.counters.items()}

    def by_component(self) -> Dict[str, Dict[str, float]]:
        """Counters grouped by their registered component (unregistered
        names fall into ``other``)."""
        grouped: Dict[str, Dict[str, float]] = {}
        for name, value in sorted(self.counters.items()):
            component = lookup(name).component
            grouped.setdefault(component, {})[str(name)] = float(value)
        return grouped

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self.counters.items()))
        return f"{type(self).__name__}({body})"


#: Process-wide one-time resolution counters: which simulation or
#: checking engine ``auto`` (or an explicit choice) actually resolved
#: to in this run.  Keys look like ``sim_engine_resolved:compiled``.
#: Each (kind, choice) pair is recorded once per process, so hot
#: resolution paths stay free of per-call counter traffic.
RUNTIME = MetricSet()

_RESOLUTIONS_SEEN = set()


def record_resolution(kind: str, choice: str) -> None:
    """Record (once per process) that *kind* resolved to *choice*.

    ``kind`` is ``"sim_engine"``, ``"check_engine"`` or
    ``"check_engine_route"``; the counter ``{kind}_resolved:{choice}``
    lands in :data:`RUNTIME` the first time each pair is seen.
    """
    key = (kind, choice)
    if key in _RESOLUTIONS_SEEN:
        return
    _RESOLUTIONS_SEEN.add(key)
    metric(
        f"{kind}_resolved:{choice}",
        "obs",
        unit="runs",
        doc=f"{kind} resolved to {choice!r} at least once this process",
    )
    RUNTIME.bump(f"{kind}_resolved:{choice}")


def describe(names: Iterable[str]) -> str:
    """A small plaintext glossary for *names* (reports, docs, --help)."""
    lines = []
    for name in names:
        m = lookup(name)
        doc = f" — {m.doc}" if m.doc else ""
        lines.append(f"{m} [{m.component}, {m.unit}]{doc}")
    return "\n".join(lines)
