"""MATCHA reproduction: TFHE + an accelerator model for TFHE gate bootstrapping.

The package is organised as:

* :mod:`repro.tfhe` — a from-scratch TFHE cryptosystem (the substrate the
  paper accelerates);
* :mod:`repro.core` — the paper's contribution: approximate
  multiplication-less integer FFT/IFFT, bootstrapping-key unrolling and the
  pipelined MATCHA accelerator;
* :mod:`repro.arch` — the cycle-level data-flow-graph scheduler and
  power/area models (the stand-in for the paper's OpenCGRA methodology);
* :mod:`repro.platforms` — CPU / GPU / FPGA / ASIC / MATCHA platform models
  used by the evaluation;
* :mod:`repro.analysis` — generators for every table and figure of the paper;
* :mod:`repro.runtime` — the serving layer: :class:`FheContext` (engine +
  spectrum-cached cloud keys) and the cross-session :class:`BatchScheduler`;
* :mod:`repro.compiler` — the encrypted-program compiler: a tracing
  frontend (:func:`trace` over :class:`FheUint` / :class:`FheBool`) and the
  gate-shrinking :class:`PassManager` optimization pipeline.
"""

from repro._lazy import lazy_exports

__version__ = "1.4.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".tfhe": (
            "PAPER_110BIT",
            "TEST_MEDIUM",
            "TEST_SMALL",
            "TEST_TINY",
            "BatchGateEvaluator",
            "Circuit",
            "CircuitExecutor",
            "LweBatch",
            "TFHEGateEvaluator",
            "TFHEParameters",
            "decrypt_bit",
            "decrypt_bit_batch",
            "decrypt_bits",
            "encrypt_bit",
            "encrypt_bit_batch",
            "encrypt_bits",
            "generate_keys",
            "make_transform",
            "schedule_circuit",
        ),
        ".runtime": ("BatchScheduler", "EvaluationSession", "FheContext"),
        ".compiler": (
            "FheBool",
            "FheUint",
            "FheUint4",
            "FheUint8",
            "FheUint16",
            "FheUint32",
            "PassManager",
            "fhe_abs",
            "fhe_max",
            "fhe_min",
            "fhe_select",
            "optimize",
            "trace",
        ),
    },
)
__all__.append("__version__")
