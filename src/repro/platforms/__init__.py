"""Platform models for the evaluation (Section 5 "Our Baselines").

Each platform exposes the same report interface (gate latency, power,
throughput, throughput per Watt as functions of the BKU factor ``m``) so the
Figure 9/10/11 benches can sweep them uniformly:

* :class:`repro.platforms.cpu.CpuPlatform` — 8-core Xeon E-2288G running the
  TFHE library;
* :class:`repro.platforms.gpu.GpuPlatform` — Tesla V100 running cuFHE;
* :class:`repro.platforms.fpga.FpgaPlatform` — 8 copies of the TFHE Vector
  Engine (TVE) on a Stratix-10;
* :class:`repro.platforms.asic.AsicPlatform` — the FPGA baseline re-synthesised
  as an ASIC (the paper's construction);
* :class:`repro.platforms.matcha.MatchaPlatform` — driven by the cycle-level
  scheduler of :mod:`repro.arch`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("Platform", "PlatformReport"),
        ".cpu": ("CpuPlatform",),
        ".gpu": ("GpuPlatform",),
        ".fpga": ("FpgaPlatform",),
        ".asic": ("AsicPlatform",),
        ".matcha": ("MatchaPlatform",),
        ".registry": ("all_platforms",),
    },
)
