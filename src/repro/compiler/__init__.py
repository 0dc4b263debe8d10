"""Encrypted-program compiler: tracing frontend + netlist optimization passes.

The compiler turns an ordinary Python function into an optimized
:class:`repro.tfhe.netlist.Circuit` ready for any of the repo's executors::

    from repro.compiler import FheUint16, PassManager, fhe_max, trace

    circuit = trace(lambda a, b, c: fhe_max(a * 3 + b, b - c),
                    FheUint16("a"), FheUint16("b"), FheUint16("c"))
    manager = PassManager(verify=True)
    optimized = manager.run(circuit)          # fewer gates == fewer bootstraps
    print(manager.summary())

* :mod:`repro.compiler.frontend` — :class:`FheUint` / :class:`FheBool`
  symbolic types and :func:`trace`;
* :mod:`repro.compiler.passes` — the :class:`PassManager` pipeline
  (constant folding, NOT/COPY absorption, CSE, depth rebalancing, LUT
  mapping, DCE);
* :mod:`repro.compiler.radix` — the digit-LUT lowering: :func:`trace_radix`
  records the same functions as :class:`RadixProgram` ops for
  :class:`repro.tfhe.integers.RadixEvaluator`;
* :mod:`repro.compiler.sim` — plaintext co-simulation, the semantics oracle
  every pass is verified against.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".frontend": (
            "FheBool",
            "FheUint",
            "FheUint4",
            "FheUint8",
            "FheUint16",
            "FheUint32",
            "FheValue",
            "TraceError",
            "fhe_abs",
            "fhe_max",
            "fhe_min",
            "fhe_select",
            "trace",
        ),
        ".passes": (
            "DEFAULT_PIPELINE",
            "LUT_PIPELINE",
            "OptimizationError",
            "PASSES",
            "PassManager",
            "PassStats",
            "circuit_depth",
            "live_gate_count",
            "lutify",
            "optimize",
        ),
        ".radix": (
            "RadixBool",
            "RadixOp",
            "RadixProgram",
            "RadixTraceError",
            "RadixUint",
            "RadixUint8",
            "RadixUint16",
            "RadixValue",
            "trace_radix",
            "verify_against_boolean",
        ),
        ".sim": (
            "EquivalenceError",
            "random_inputs",
            "simulate",
            "simulate_bits",
            "verify_equivalent",
        ),
    },
)
