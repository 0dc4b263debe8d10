"""Common platform-model interface used by the Figure 9/10/11 benches."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List, Optional


@dataclass(frozen=True)
class PlatformReport:
    """Latency / power / throughput of one platform at one BKU factor."""

    platform: str
    unroll_factor: int
    supported: bool
    gate_latency_ms: float
    power_w: float
    throughput_gates_per_s: float

    @property
    def throughput_per_watt(self) -> float:
        if self.power_w <= 0:
            return 0.0
        return self.throughput_gates_per_s / self.power_w


class Platform(abc.ABC):
    """A hardware platform evaluated on TFHE NAND-class gates."""

    #: Human-readable platform name used in tables/figures.
    name: str = "platform"
    #: Largest BKU factor the platform supports (1 = no BKU support).
    max_unroll_factor: int = 4

    @abc.abstractmethod
    def gate_latency_s(self, unroll_factor: int) -> float:
        """Latency of one bootstrapped gate, in seconds."""

    @abc.abstractmethod
    def power_w(self, unroll_factor: int) -> float:
        """Power drawn while processing gates, in Watts."""

    @abc.abstractmethod
    def concurrent_gates(self, unroll_factor: int) -> float:
        """Number of gates processed concurrently in steady state."""

    # -- derived -------------------------------------------------------------
    def supports(self, unroll_factor: int) -> bool:
        return 1 <= unroll_factor <= self.max_unroll_factor

    def throughput_gates_per_s(self, unroll_factor: int) -> float:
        latency = self.gate_latency_s(unroll_factor)
        if latency <= 0:
            return 0.0
        return self.concurrent_gates(unroll_factor) / latency

    def report(self, unroll_factor: int) -> PlatformReport:
        """The full report at one BKU factor (unsupported factors are flagged)."""
        if not self.supports(unroll_factor):
            return PlatformReport(
                platform=self.name,
                unroll_factor=unroll_factor,
                supported=False,
                gate_latency_ms=float("nan"),
                power_w=self.power_w(1),
                throughput_gates_per_s=0.0,
            )
        return PlatformReport(
            platform=self.name,
            unroll_factor=unroll_factor,
            supported=True,
            gate_latency_ms=self.gate_latency_s(unroll_factor) * 1e3,
            power_w=self.power_w(unroll_factor),
            throughput_gates_per_s=self.throughput_gates_per_s(unroll_factor),
        )

    def sweep(self, unroll_factors: Iterable[int] = (1, 2, 3, 4)) -> List[PlatformReport]:
        """Reports across a range of BKU factors (the x-axis of Figures 9-11)."""
        return [self.report(m) for m in unroll_factors]
