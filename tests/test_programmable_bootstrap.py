"""Programmable bootstrapping: LUT test vectors, digit margins, engine sweep.

The encrypted LUT tests run every supported digit width (2–4 message bits) on
all three transform engines (naive exact, double-precision FFT, MATCHA's
approximate integer transform) and both rotators (classical m = 1 CMux chain
and the unrolled m = 2 BKU rotator); the noise-margin property tests check the
model admits exactly the encodings whose 1/(4P) decision margin clears 4σ.
"""

from __future__ import annotations

import dataclasses
import functools
import types

import numpy as np
import pytest

from repro.core.integer_fft import ApproximateNegacyclicTransform
from repro.runtime.context import FheContext
from repro.tfhe.bootstrap import encode_lut
from repro.tfhe.gates import row_spec
from repro.tfhe.lwe import (
    LweBatch,
    decrypt_digit,
    digit_message,
    encrypt_digit,
)
from repro.tfhe.noise import validate_digit_encoding
from repro.tfhe.params import (
    DigitEncoding,
    PAPER_110BIT,
    TEST_PBS,
    TFHEParameters,
)
from repro.tfhe.transform import (
    DoubleFFTNegacyclicTransform,
    NaiveNegacyclicTransform,
)

ENGINES = ("naive", "double", "approx")
UNROLL_FACTORS = (1, 2)
MESSAGE_WIDTHS = (2, 3, 4)


@functools.lru_cache(maxsize=None)
def _pbs_backend(engine: str, unroll_factor: int):
    """Session-cached TEST_PBS keys per (engine, rotator) point of the sweep."""
    transform = {
        "naive": lambda: NaiveNegacyclicTransform(TEST_PBS.N),
        "double": lambda: DoubleFFTNegacyclicTransform(TEST_PBS.N),
        "approx": lambda: ApproximateNegacyclicTransform(TEST_PBS.N, twiddle_bits=64),
    }[engine]()
    seed = 100 + 10 * ENGINES.index(engine) + unroll_factor
    return FheContext.generate(
        TEST_PBS, transform, unroll_factor=unroll_factor, rng=seed
    )


def digit_rows(context, samples, tables, encoding) -> LweBatch:
    """Look row ``i`` of ``samples`` up in ``tables[i]``: one ``("digit", …)``
    row each, all in one call of the context's row path."""
    ops = [(encoding, tuple(table)) for table in tables]
    return context.batch_evaluator(1).rows(ops, [LweBatch.from_samples(samples)])


# --------------------------------------------------------------------------- #
# encode_lut: test-vector structure and validation                            #
# --------------------------------------------------------------------------- #


def test_encode_lut_redundant_run_structure():
    encoding = DigitEncoding(message_bits=2)
    space = encoding.space
    table = [3, 0, 2, 1]
    vector = encode_lut(TEST_PBS, table, encoding.message_bits)
    assert vector.shape == (TEST_PBS.N,)
    assert vector.dtype == np.int32

    run = TEST_PBS.N // space
    encoded = [digit_message(v, encoding) for v in table]
    for j in range(TEST_PBS.N):
        slot = (j + run // 2) // run
        if slot < space:
            # Coefficient j sits in digit `slot`'s redundant run.
            assert vector[j] == encoded[slot], f"coefficient {j}"
        else:
            # Guard half-run: negacyclic wrap of digit 0's lower noise tail.
            assert vector[j] == -encoded[0], f"coefficient {j}"


def test_encode_lut_is_cached_and_write_protected():
    table = list(range(8))
    first = encode_lut(TEST_PBS, table, 3)
    second = encode_lut(TEST_PBS, tuple(table), 3)
    assert first is second
    with pytest.raises(ValueError):
        first[0] = 0


def test_encode_lut_rejects_bad_tables():
    with pytest.raises(ValueError, match="exactly P=8 entries"):
        encode_lut(TEST_PBS, [0, 1, 2], 3)
    with pytest.raises(ValueError, match=r"must lie in \[0, 8\)"):
        encode_lut(TEST_PBS, [0, 1, 2, 3, 4, 5, 6, 8], 3)
    with pytest.raises(ValueError, match="must lie in"):
        encode_lut(TEST_PBS, [0, 1, 2, 3, 4, 5, 6, -1], 3)


def test_encode_lut_rejects_oversized_encoding():
    # 3+3 bits needs 128 torus slots; TEST_PBS is rated for 64.
    with pytest.raises(ValueError, match="rated for message_space=64"):
        encode_lut(TEST_PBS, list(range(64)), 3, carry_bits=3)


# --------------------------------------------------------------------------- #
# digit encode/decrypt round-trips                                            #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "encoding",
    [DigitEncoding(2), DigitEncoding(3), DigitEncoding(4), DigitEncoding(2, 2)],
    ids=lambda e: f"{e.message_bits}+{e.carry_bits}",
)
def test_digit_roundtrip(encoding, rng):
    secret, _ = _pbs_backend("double", 1)
    for value in range(encoding.space):
        sample = encrypt_digit(secret.lwe_key, value, encoding, rng=rng)
        assert decrypt_digit(secret.lwe_key, sample, encoding) == value


def test_digit_message_rejects_out_of_range():
    encoding = DigitEncoding(2, 1)
    with pytest.raises(ValueError, match=r"out of range \[0, 8\)"):
        digit_message(8, encoding)
    with pytest.raises(ValueError, match="out of range"):
        digit_message(-1, encoding)


# --------------------------------------------------------------------------- #
# programmable bootstrapping across engines, rotators and digit widths        #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("message_bits", MESSAGE_WIDTHS)
@pytest.mark.parametrize("unroll_factor", UNROLL_FACTORS)
@pytest.mark.parametrize("engine", ENGINES)
def test_programmable_bootstrap_square_lut(engine, unroll_factor, message_bits, rng):
    secret, context = _pbs_backend(engine, unroll_factor)
    encoding = DigitEncoding(message_bits)
    # The width must clear the noise margin before we trust decryptions.
    validate_digit_encoding(TEST_PBS, encoding, unroll_factor=unroll_factor)
    space = encoding.space
    table = [(v * v) % space for v in range(space)]
    for value in range(space):
        sample = encrypt_digit(secret.lwe_key, value, encoding, rng=rng)
        out = digit_rows(context, [sample], [table], encoding)[0]
        assert decrypt_digit(secret.lwe_key, out, encoding) == table[value], value


@pytest.mark.parametrize("unroll_factor", UNROLL_FACTORS)
@pytest.mark.parametrize("engine", ENGINES)
def test_programmable_bootstrap_identity_with_carry(engine, unroll_factor, rng):
    """An identity LUT on the 2+2 working encoding refreshes every slot."""
    secret, context = _pbs_backend(engine, unroll_factor)
    encoding = DigitEncoding(2, 2)
    table = list(range(encoding.space))
    for value in range(encoding.space):
        sample = encrypt_digit(secret.lwe_key, value, encoding, rng=rng)
        out = digit_rows(context, [sample], [table], encoding)[0]
        assert decrypt_digit(secret.lwe_key, out, encoding) == value


def test_digit_rows_batch_matches_scalar(rng):
    secret, context = _pbs_backend("double", 1)
    encoding = DigitEncoding(2, 2)
    space = encoding.space
    tables = [
        [(v * v) % space for v in range(space)],
        list(range(space)),
        [(v + 3) % space for v in range(space)],
        [v % encoding.base for v in range(space)],
    ]
    values = [5, 11, 0, 15]
    samples = [encrypt_digit(secret.lwe_key, v, encoding, rng=rng) for v in values]
    batch_out = digit_rows(context, samples, tables, encoding)
    for i, (value, table, sample) in enumerate(zip(values, tables, samples)):
        ref = digit_rows(context, [sample], [table], encoding)[0]
        assert np.array_equal(batch_out.a[i], ref.a)
        assert int(batch_out.b[i]) == int(ref.b)
        assert decrypt_digit(secret.lwe_key, ref, encoding) == table[value]


def test_digit_rows_shared_table(rng):
    secret, context = _pbs_backend("double", 1)
    encoding = DigitEncoding(3)
    table = [(2 * v + 1) % encoding.space for v in range(encoding.space)]
    values = list(range(encoding.space))
    samples = [encrypt_digit(secret.lwe_key, v, encoding, rng=rng) for v in values]
    out = digit_rows(context, samples, [table] * len(samples), encoding)
    decrypted = [
        decrypt_digit(secret.lwe_key, s, encoding) for s in out.to_samples()
    ]
    assert decrypted == [table[v] for v in values]


def test_digit_rows_need_one_op_per_row(rng):
    secret, context = _pbs_backend("double", 1)
    encoding = DigitEncoding(2)
    table = list(range(encoding.space))
    samples = [encrypt_digit(secret.lwe_key, v, encoding, rng=rng) for v in (0, 1, 2)]
    with pytest.raises(ValueError, match="one gate name per row"):
        digit_rows(context, samples, [table, table], encoding)


# --------------------------------------------------------------------------- #
# noise-margin properties per LUT width                                       #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("unroll_factor", UNROLL_FACTORS)
@pytest.mark.parametrize(
    "encoding",
    [DigitEncoding(2), DigitEncoding(2, 2), DigitEncoding(3), DigitEncoding(4)],
    ids=lambda e: f"{e.message_bits}+{e.carry_bits}",
)
def test_margin_admits_supported_widths(encoding, unroll_factor):
    validate_digit_encoding(TEST_PBS, encoding, unroll_factor=unroll_factor)


@pytest.mark.parametrize("unroll_factor", UNROLL_FACTORS)
@pytest.mark.parametrize(
    "encoding",
    [DigitEncoding(3, 2), DigitEncoding(4, 1)],
    ids=lambda e: f"{e.message_bits}+{e.carry_bits}",
)
def test_margin_rejects_narrow_widths(encoding, unroll_factor):
    """Encodings that fit structurally but leave < 4σ of headroom are refused."""
    with pytest.raises(ValueError, match=r"exceeds the 1/\(4P\) decision margin"):
        validate_digit_encoding(TEST_PBS, encoding, unroll_factor=unroll_factor)


def test_margin_rejects_structural_misfits_first():
    # PAPER_110BIT is rated for the 8-ary gate space only.
    with pytest.raises(ValueError, match="rated for message_space=8"):
        validate_digit_encoding(PAPER_110BIT, DigitEncoding(2, 2))


# --------------------------------------------------------------------------- #
# message_space rating: construction and gate-path failure modes              #
# --------------------------------------------------------------------------- #


def test_message_space_must_be_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        dataclasses.replace(TEST_PBS, message_space=5)
    with pytest.raises(ValueError, match="power of two"):
        dataclasses.replace(TEST_PBS, message_space=2)


def test_message_space_capped_by_ring_degree():
    # 2N = 512 torus slots are resolvable at N = 256.
    with pytest.raises(ValueError, match="torus slots resolvable"):
        dataclasses.replace(TEST_PBS, message_space=1024)


def test_gate_bootstrapping_requires_8ary_rating():
    cramped = dataclasses.replace(TEST_PBS, message_space=4)
    assert isinstance(cramped, TFHEParameters)
    with pytest.raises(ValueError, match="needs the 8-ary message space"):
        row_spec(cramped, "nand")


def test_digit_encoding_slots_must_divide_degree():
    # Real parameter sets always have N a power of two >= message_space/2, so
    # the fractional-run guard is exercised with a duck-typed stand-in.
    odd = types.SimpleNamespace(name="odd", message_space=64, N=24)
    with pytest.raises(ValueError, match="fractional"):
        DigitEncoding(4).validate_for(odd)
