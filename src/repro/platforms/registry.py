"""Registry of the evaluated platforms (Figures 9-11 x-axis groups)."""

from __future__ import annotations

from typing import List

from repro.platforms.asic import AsicPlatform
from repro.platforms.base import Platform
from repro.platforms.cpu import CpuPlatform
from repro.platforms.fpga import FpgaPlatform
from repro.platforms.gpu import GpuPlatform
from repro.platforms.matcha import MatchaPlatform
from repro.tfhe.params import PAPER_110BIT, TFHEParameters


def all_platforms(params: TFHEParameters = PAPER_110BIT) -> List[Platform]:
    """The five platforms of the paper's evaluation, in figure order."""
    return [
        CpuPlatform(params),
        GpuPlatform(params),
        MatchaPlatform(params),
        FpgaPlatform(),
        AsicPlatform(),
    ]
