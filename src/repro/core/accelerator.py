"""The MATCHA accelerator facade.

:class:`MatchaAccelerator` ties the pieces of the paper together behind one
object:

* *functional execution* — TFHE gates evaluated with the approximate
  multiplication-less integer transform and aggressive BKU, demonstrating
  that ciphertexts still decrypt correctly (Section 4.1 "Novelty",
  Section 4.3 "Error and Noise");
* *performance/energy modelling* — the cycle-level schedule of a gate on the
  Figure 7 architecture and the Table 2 power envelope, via
  :mod:`repro.arch` and :mod:`repro.platforms`.

The defaults follow the paper: 64-bit dyadic-value-quantised twiddle factors,
BKU factor ``m = 3`` (MATCHA's sweet spot in Figures 9–11), eight
TGSW-cluster/EP-core pipelines at 2 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.integer_fft import ApproximateNegacyclicTransform
from repro.tfhe.params import PAPER_110BIT, TFHEParameters


@dataclass(frozen=True)
class MatchaConfig:
    """Configuration knobs of a MATCHA instance (Section 4.3 defaults)."""

    #: Bit-width of the dyadic-value-quantised twiddle factors (DVQTFs).
    twiddle_bits: int = 64
    #: Bootstrapping-key unrolling factor ``m``.
    unroll_factor: int = 3
    #: Number of TGSW-cluster / EP-core pipeline pairs.
    pipeline_count: int = 8
    #: Clock frequency in Hz.
    clock_hz: float = 2.0e9

    def __post_init__(self) -> None:
        if self.twiddle_bits < 1:
            raise ValueError("twiddle_bits must be >= 1")
        if self.unroll_factor < 1:
            raise ValueError("unroll factor must be >= 1")
        if self.pipeline_count < 1:
            raise ValueError("pipeline count must be >= 1")
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")


class MatchaAccelerator:
    """Functional + analytical model of the MATCHA accelerator."""

    def __init__(
        self,
        params: TFHEParameters = PAPER_110BIT,
        config: MatchaConfig = MatchaConfig(),
    ) -> None:
        self.params = params
        self.config = config
        self.transform = ApproximateNegacyclicTransform(
            params.N, twiddle_bits=config.twiddle_bits
        )

    def performance(self):
        """Latency / throughput / power of this configuration (cycle model).

        Returns the :class:`repro.platforms.base.PlatformReport` of the MATCHA
        platform model evaluated at the configured unroll factor.
        """
        from repro.platforms.matcha import MatchaPlatform

        platform = MatchaPlatform(
            params=self.params,
            pipeline_count=self.config.pipeline_count,
            clock_hz=self.config.clock_hz,
        )
        return platform.report(self.config.unroll_factor)
