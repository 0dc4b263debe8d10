"""The two-stage bootstrapping pipeline of MATCHA (Section 4.2, Figure 6).

A bootstrapping with BKU factor ``m`` iterates ``⌈n/m⌉`` times; every
iteration (i) builds the bootstrapping key bundle on a TGSW cluster and
(ii) applies the external product on an EP core.  On a CPU the two steps run
back to back; MATCHA overlaps them: while the EP core consumes bundle ``i``,
the TGSW cluster already builds bundle ``i+1`` (Figure 6(b)).

This module models that pipeline analytically.  The per-stage work is supplied
by the architecture model (:mod:`repro.arch`); here we only reason about how
the two stages overlap, how the pipeline fills and drains, and how well the
stages balance as ``m`` grows — the paper's argument for why the workloads
"can be approximately balanced by adjusting m".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineStageTimes:
    """Per-iteration stage latencies in cycles."""

    tgsw_cluster_cycles: float
    ep_core_cycles: float

    @property
    def bottleneck_cycles(self) -> float:
        return max(self.tgsw_cluster_cycles, self.ep_core_cycles)

    @property
    def imbalance(self) -> float:
        """Ratio of the slower to the faster stage (1.0 = perfectly balanced)."""
        slow = self.bottleneck_cycles
        fast = min(self.tgsw_cluster_cycles, self.ep_core_cycles)
        return float("inf") if fast == 0 else slow / fast


@dataclass(frozen=True)
class PipelineSchedule:
    """Latency results of one bootstrapping on one TGSW-cluster/EP-core pair."""

    iterations: int
    stage_times: PipelineStageTimes
    pipelined: bool

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles of the blind rotation.

        Pipelined: one fill of the first stage, then the bottleneck stage
        paces every iteration (Figure 6(b)).  Non-pipelined (the CPU
        behaviour the paper contrasts against): the stages simply add up.
        """
        tgsw = self.stage_times.tgsw_cluster_cycles
        ep = self.stage_times.ep_core_cycles
        if self.iterations == 0:
            return 0.0
        if not self.pipelined:
            return self.iterations * (tgsw + ep)
        return tgsw + self.iterations * self.stage_times.bottleneck_cycles

    @property
    def speedup_over_sequential(self) -> float:
        sequential = self.iterations * (
            self.stage_times.tgsw_cluster_cycles + self.stage_times.ep_core_cycles
        )
        total = self.total_cycles
        return sequential / total if total else 1.0


def schedule_bootstrapping(
    iterations: int,
    stage_times: PipelineStageTimes,
    pipelined: bool = True,
) -> PipelineSchedule:
    """Build the pipeline schedule for one bootstrapping."""
    if iterations < 0:
        raise ValueError("iteration count must be non-negative")
    return PipelineSchedule(iterations=iterations, stage_times=stage_times, pipelined=pipelined)
