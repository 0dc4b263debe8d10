"""Cycle-level hardware modelling substrate (the OpenCGRA stand-in).

The paper evaluates MATCHA by compiling a TFHE logic operation into a data
flow graph (DFG), abstracting the hardware into an architecture description
(AD) and scheduling the DFG onto the AD to obtain latency and energy
(Section 5).  This package provides the same methodology:

* :mod:`repro.arch.ops` — the operation set MATCHA executes;
* :mod:`repro.arch.dfg` — data-flow graphs with dependency/critical-path
  analysis;
* :mod:`repro.arch.gate_compiler` — compiles a bootstrapped TFHE gate into a
  DFG for a given parameter set and BKU factor;
* :mod:`repro.arch.architecture` — architecture descriptions (functional
  units, register banks, scratchpad, crossbar, HBM) and the Figure 7 MATCHA
  instance;
* :mod:`repro.arch.scheduler` — a resource-constrained list scheduler that
  maps a DFG onto an AD and reports cycles, utilisation and energy;
* :mod:`repro.arch.energy` — component power/area models and the Table 2
  breakdown;
* :mod:`repro.arch.memory` — TGSW and bootstrapping-key footprints.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".ops": ("OpType",),
        ".dfg": ("DataFlowGraph", "DfgNode"),
        ".gate_compiler": ("compile_gate_dfg",),
        ".architecture": ("ArchitectureDescription", "matcha_architecture"),
        ".scheduler": ("ListScheduler", "ScheduleResult"),
        ".energy": ("matcha_area_power_table",),
    },
)
