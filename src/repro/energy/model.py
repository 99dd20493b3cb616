"""Per-event energy accounting (Section 4.2).

The paper uses GPUWattch for the GPU CUs and McPAT for the NoC and
reports dynamic energy in five stacks: GPU core+ (instruction cache,
register file, FPU, scheduler, pipeline), scratchpad, L1, L2, and
network (Figures 3b / 4b).  We reproduce that decomposition with
per-event costs set to the magnitudes those tools report for a
GTX 480-class CU at 40-45 nm.  Absolute joules are not the point — the
relative component mix and the cross-configuration ratios are.

DRAM access energy is excluded, as in the paper (its five stacks stop at
the L2/NoC; the CPU core and CPU L1 are likewise not modelled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.obs import metrics as S
from repro.obs.metrics import MetricSet

#: Component names in Figure 3b/4b order.
COMPONENTS = ("gpu_core", "scratchpad", "l1", "l2", "network")


@dataclass(frozen=True)
class EnergyModel:
    """Per-event dynamic energy, in nanojoules."""

    core_op_nj: float = 0.025  # issue/decode/RF/ALU per executed op
    scratch_access_nj: float = 0.015
    l1_access_nj: float = 0.030
    l1_atomic_nj: float = 0.040  # RMW at the L1 (DeNovo)
    l1_invalidate_nj: float = 0.350  # flash-invalidate sweep of the tag array
    l2_access_nj: float = 0.120
    l2_atomic_nj: float = 0.180  # RMW at an L2 bank (GPU coherence)
    noc_flit_hop_nj: float = 0.045  # per flit per hop (router + link)

    def breakdown(self, stats: MetricSet) -> Dict[str, float]:
        """Dynamic energy per component, in nJ."""
        return {
            "gpu_core": self.core_op_nj * stats.get(S.CORE_OP),
            "scratchpad": self.scratch_access_nj * stats.get(S.SCRATCH_ACCESS),
            "l1": (
                self.l1_access_nj * stats.get(S.L1_ACCESS)
                + self.l1_atomic_nj * stats.get(S.L1_ATOMIC)
                + self.l1_invalidate_nj * stats.get(S.L1_INVALIDATE)
            ),
            "l2": (
                self.l2_access_nj * stats.get(S.L2_ACCESS)
                + self.l2_atomic_nj * stats.get(S.L2_ATOMIC)
            ),
            "network": self.noc_flit_hop_nj * stats.get(S.NOC_FLIT_HOPS),
        }

    def total(self, stats: MetricSet) -> float:
        return sum(self.breakdown(stats).values())


DEFAULT_ENERGY_MODEL = EnergyModel()


def normalized_breakdown(
    stats: MetricSet,
    baseline_total: float,
    model: EnergyModel = DEFAULT_ENERGY_MODEL,
) -> Dict[str, float]:
    """Component energies normalized to a baseline total (the GD0 bar
    height convention of Figures 3b and 4b)."""
    if baseline_total <= 0:
        raise ValueError("baseline total must be positive")
    return {
        comp: value / baseline_total for comp, value in model.breakdown(stats).items()
    }
