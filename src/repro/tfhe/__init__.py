"""TFHE cryptosystem substrate.

A from-scratch implementation of TFHE gate bootstrapping (Chillotti et al.,
Journal of Cryptology 2020) as described in Section 2 of the MATCHA paper:
torus arithmetic, LWE/TLWE/TGSW encryption, the external product, blind
rotation, sample extraction, key switching and the homomorphic Boolean gates.

The polynomial-multiplication engine is pluggable (see
:mod:`repro.tfhe.transform`); MATCHA's approximate multiplication-less integer
FFT lives in :mod:`repro.core.integer_fft` and plugs into the same interface.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".params": (
            "PAPER_110BIT",
            "PARAMETER_SETS",
            "TEST_MEDIUM",
            "TEST_PBS",
            "TEST_SMALL",
            "TEST_TINY",
            "DigitEncoding",
            "TFHEParameters",
            "get_parameters",
        ),
        ".bootstrap": ("encode_lut",),
        ".integers": (
            "RadixEvaluator",
            "RadixInt",
            "decrypt_radix",
            "encrypt_radix",
            "radix_digits",
            "radix_value",
            "trivial_radix",
        ),
        ".lut": (
            "MAX_LUT_ARITY",
            "BooleanLutSpec",
            "boolean_lut_spec",
            "lut_test_vector",
        ),
        ".keys": (
            "TFHECloudKey",
            "TFHESecretKey",
            "generate_cloud_key",
            "generate_keys",
            "generate_secret_key",
        ),
        ".gates": (
            "BatchGateEvaluator",
            "TFHEGateEvaluator",
            "decrypt_bit",
            "decrypt_bit_batch",
            "decrypt_bits",
            "encrypt_bit",
            "encrypt_bit_batch",
            "encrypt_bits",
        ),
        ".lwe": (
            "LweBatch",
            "LweSample",
            "decrypt_digit",
            "encrypt_digit",
        ),
        ".netlist": (
            "Circuit",
            "absolute_netlist",
            "adder_netlist",
            "equal_netlist",
            "greater_than_netlist",
            "maximum_netlist",
            "minimum_netlist",
            "multiplier_netlist",
            "negate_netlist",
            "select_netlist",
            "subtractor_netlist",
        ),
        ".executor": (
            "CircuitExecutor",
            "LevelSchedule",
            "schedule_circuit",
        ),
        ".serialize": (
            "SerializationError",
            "circuit_from_json",
            "circuit_to_json",
            "load",
            "save",
        ),
        ".tlwe": ("TlweBatch", "TlweSample"),
        ".transform": (
            "DoubleFFTNegacyclicTransform",
            "NaiveNegacyclicTransform",
            "NegacyclicTransform",
            "TransformSpec",
            "available_engines",
            "make_transform",
            "register_engine",
        ),
    },
)
