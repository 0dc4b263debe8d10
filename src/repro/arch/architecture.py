"""Architecture descriptions (the paper's "AD" abstraction).

An :class:`ArchitectureDescription` lists the functional-unit classes of an
accelerator (how many instances, which operations they execute, how much work
one instance retires per cycle and its start-up latency)
together with the memory system parameters.  The Figure 7 MATCHA instance is
produced by :func:`matcha_architecture`; the scheduler
(:mod:`repro.arch.scheduler`) maps gate DFGs onto any description, which the
ablation benches use to vary the number of EP cores, butterfly cores per FFT
core, clock frequency and HBM bandwidth.

Fidelity note: the unit throughputs below are derived from the component
counts of Figure 7 / Table 2 (128 butterfly cores per FFT core, 16 MAC lanes
per TGSW cluster, ...), with one global calibration factor applied by
:mod:`repro.platforms.calibration` so the absolute single-gate latency lands
in the regime the paper reports.  Relative behaviour across the BKU factor
``m`` and across architecture ablations is produced by the model itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.arch.ops import OpType


@dataclass(frozen=True)
class FunctionalUnitSpec:
    """One class of functional units of an accelerator."""

    name: str
    count: int
    ops: FrozenSet[OpType]
    #: Elementary work units retired per cycle by one instance.
    throughput_per_cycle: float
    #: Fixed pipeline start-up cost per scheduled node, in cycles.
    startup_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("unit count must be positive")
        if self.throughput_per_cycle <= 0:
            raise ValueError("throughput must be positive")
        if self.startup_cycles < 0:
            raise ValueError("startup cycles must be non-negative")

    def cycles_for(self, work: float) -> float:
        """Cycles one instance needs to retire ``work`` elementary operations."""
        return self.startup_cycles + work / self.throughput_per_cycle


@dataclass(frozen=True)
class MemorySystemSpec:
    """Scratchpad / register / HBM parameters of the accelerator."""

    spm_banks: int = 32
    spm_kb: int = 4096
    register_file_kb_per_ep: int = 256
    register_banks_per_ep: int = 8
    register_file_kb_per_tgsw: int = 16
    register_banks_per_tgsw: int = 2
    hbm_bandwidth_bytes_per_s: float = 640.0e9
    crossbar_width_bits: int = 256


@dataclass(frozen=True)
class ArchitectureDescription:
    """A complete accelerator description consumable by the scheduler."""

    name: str
    clock_hz: float
    units: Tuple[FunctionalUnitSpec, ...]
    memory: MemorySystemSpec = MemorySystemSpec()

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        seen = set()
        for unit in self.units:
            if unit.name in seen:
                raise ValueError(f"duplicate functional unit name {unit.name!r}")
            seen.add(unit.name)

    def unit_for_op(self, op: OpType) -> FunctionalUnitSpec:
        """The functional-unit class that executes ``op`` (first match)."""
        for unit in self.units:
            if op in unit.ops:
                return unit
        raise KeyError(f"no functional unit supports {op}")

    def supports(self, op: OpType) -> bool:
        return any(op in unit.ops for unit in self.units)

    def seconds(self, cycles: float) -> float:
        return cycles / self.clock_hz

    def unit_map(self) -> Dict[str, FunctionalUnitSpec]:
        return {unit.name: unit for unit in self.units}


def matcha_architecture(
    pipeline_slices: int = 1,
    clock_hz: float = 2.0e9,
    butterfly_cores_per_fft: int = 128,
    ifft_cores_per_ep: int = 4,
    mac_lanes_per_ep: int = 16,
    tgsw_lanes_per_cluster: int = 64,
    poly_unit_lanes: int = 32,
    hbm_bandwidth_bytes_per_s: float = 640.0e9,
    throughput_scale: float = 1.0,
) -> ArchitectureDescription:
    """The Figure 7 MATCHA architecture, restricted to ``pipeline_slices`` pairs.

    A *pipeline slice* is one TGSW cluster plus one EP core; a single gate only
    ever exercises one slice (the blind rotation is sequential), so the
    latency model schedules onto one slice and the throughput model multiplies
    by the number of slices (eight in the paper's configuration).

    ``tgsw_lanes_per_cluster`` and ``mac_lanes_per_ep`` are *effective vector
    lanes*: Table 2 lists 16 multiplier/adder pairs per TGSW cluster and 4 per
    EP core; the effective lane counts used here fold in the SIMD width those
    units need to sustain the pipeline balance the paper reports, and they are
    exposed so ablation benches can sweep them.
    """
    if pipeline_slices <= 0:
        raise ValueError("pipeline slice count must be positive")
    scale = float(throughput_scale)
    butterflies_per_cycle = butterfly_cores_per_fft * scale
    units = (
        FunctionalUnitSpec(
            name="ifft_core",
            count=ifft_cores_per_ep * pipeline_slices,
            ops=frozenset({OpType.IFFT}),
            throughput_per_cycle=butterflies_per_cycle,
            startup_cycles=16.0,
        ),
        FunctionalUnitSpec(
            name="fft_core",
            count=1 * pipeline_slices,
            ops=frozenset({OpType.FFT}),
            throughput_per_cycle=butterflies_per_cycle,
            startup_cycles=16.0,
        ),
        FunctionalUnitSpec(
            name="ep_mac",
            count=1 * pipeline_slices,
            ops=frozenset({OpType.POINTWISE_MAC, OpType.DECOMPOSE}),
            throughput_per_cycle=mac_lanes_per_ep * scale,
            startup_cycles=4.0,
        ),
        FunctionalUnitSpec(
            name="tgsw_cluster",
            count=1 * pipeline_slices,
            ops=frozenset({OpType.TGSW_SCALE, OpType.TGSW_ADD}),
            throughput_per_cycle=tgsw_lanes_per_cluster * scale,
            startup_cycles=4.0,
        ),
        FunctionalUnitSpec(
            name="poly_unit",
            count=1,
            ops=frozenset(
                {
                    OpType.POLY_LINEAR,
                    OpType.ROTATE,
                    OpType.SAMPLE_EXTRACT,
                    OpType.KEYSWITCH,
                }
            ),
            throughput_per_cycle=poly_unit_lanes * scale,
            startup_cycles=2.0,
        ),
        FunctionalUnitSpec(
            name="hbm",
            count=1,
            ops=frozenset({OpType.HBM_TRANSFER, OpType.SPM_TRANSFER}),
            # Work unit is bytes; per-cycle bandwidth at the given clock.
            throughput_per_cycle=hbm_bandwidth_bytes_per_s / clock_hz,
            startup_cycles=32.0,
        ),
        FunctionalUnitSpec(
            name="gate_engine",
            count=pipeline_slices,
            # Circuit-level scheduling: one node is a *whole* bootstrapped
            # gate (work 1.0) retired by one pipeline slice, or a bootstrap-
            # free linear node (work 0.0).  The rate folds the slice's entire
            # blind rotation (~20k cycles/gate at the paper's operating
            # point) into a single-number throughput so circuit DFGs from
            # repro.tfhe.netlist can be list-scheduled like gate DFGs.
            ops=frozenset({OpType.BOOTSTRAPPED_GATE, OpType.LINEAR_GATE}),
            throughput_per_cycle=(1.0 / 20000.0) * scale,
            startup_cycles=0.0,
        ),
    )
    return ArchitectureDescription(
        name=f"matcha-{pipeline_slices}slice",
        clock_hz=clock_hz,
        units=units,
        memory=MemorySystemSpec(hbm_bandwidth_bytes_per_s=hbm_bandwidth_bytes_per_s),
    )
