"""Post-run system introspection: where did the time and traffic go?

:func:`utilization_report` summarizes one :class:`~repro.sim.system.System`
after a run — per-resource occupancy, cache effectiveness, and the
consistency-model action counts — the numbers one reads before believing
a speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.obs import metrics as S
from repro.sim.system import RunResult, System


@dataclass(frozen=True)
class ResourceUsage:
    name: str
    busy_cycles: float
    requests: int
    utilization: float


def _usage(name: str, resource, horizon: float) -> ResourceUsage:
    return ResourceUsage(
        name=name,
        busy_cycles=resource.busy_cycles,
        requests=resource.requests,
        utilization=resource.utilization(horizon) if horizon > 0 else 0.0,
    )


def utilization_report(system: System, result: RunResult, top: int = 8) -> str:
    """Human-readable post-run report for one simulation."""
    horizon = max(result.cycles, 1.0)
    usages: List[ResourceUsage] = []
    for node, bank in system.l2.banks.items():
        usages.append(_usage(f"l2-bank@{node}", bank.port, horizon))
        usages.append(_usage(f"dram@{node}", bank.dram, horizon))
    for cu in system.cus:
        usages.append(_usage(f"issue@{cu.node}", cu.issue_port, horizon))
        usages.append(_usage(f"l1-port@{cu.node}", cu.protocol.l1_port, horizon))
    usages.sort(key=lambda u: u.busy_cycles, reverse=True)

    stats = result.stats
    l1_acc = stats.get(S.L1_ACCESS) or 1.0
    lines = [
        f"run: {result.workload} on {result.config_name} "
        f"({result.cycles:.0f} cycles, {len(result.phase_cycles)} phases)",
        "",
        "memory behaviour:",
        f"  L1 accesses {stats.get(S.L1_ACCESS):.0f} "
        f"(hit rate {stats.get(S.L1_HIT) / l1_acc:.1%})",
        f"  L1 flash-invalidations {stats.get(S.L1_INVALIDATE):.0f} "
        f"({stats.get('l1_lines_invalidated'):.0f} lines dropped)",
        f"  L2 accesses {stats.get(S.L2_ACCESS):.0f}, "
        f"L2 atomics {stats.get(S.L2_ATOMIC):.0f}, "
        f"DRAM {stats.get(S.DRAM_ACCESS):.0f}",
        f"  atomics issued {stats.get(S.ATOMIC_ISSUED):.0f} "
        f"(at L1: {stats.get(S.L1_ATOMIC):.0f}, "
        f"coalesced: {stats.get(S.MSHR_COALESCE):.0f})",
        f"  remote L1 transfers {stats.get(S.REMOTE_L1_TRANSFER):.0f}",
        f"  store-buffer writes {stats.get(S.SB_WRITE):.0f}, "
        f"flushes {stats.get(S.SB_FLUSH):.0f}",
        f"  NoC flit-hops {stats.get(S.NOC_FLIT_HOPS):.0f} "
        f"over {system.mesh.messages} messages",
        "",
        f"busiest resources (of {len(usages)}):",
    ]
    for usage in usages[:top]:
        lines.append(
            f"  {usage.name:14s} busy={usage.busy_cycles:9.0f} "
            f"({usage.utilization:6.1%})  requests={usage.requests}"
        )
    return "\n".join(lines)


def run_with_report(kernel, protocol: str, model: str, config=None, top: int = 8) -> Tuple[RunResult, str]:
    """Run a kernel and return (result, utilization report)."""
    from repro.sim.config import INTEGRATED

    system = System(protocol, model, config or INTEGRATED)
    result = system.run(kernel)
    return result, utilization_report(system, result, top=top)
