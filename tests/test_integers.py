"""Radix-decomposed encrypted integers: arithmetic, bounds, bootstrap costs."""

from __future__ import annotations

import functools

import pytest

from repro.compiler import FheUint, PassManager, trace
from repro.compiler.passes import LUT_PIPELINE, live_gate_count
from repro.runtime.context import FheContext
from repro.tfhe.integers import (
    RadixEvaluator,
    RadixInt,
    decrypt_radix,
    encrypt_radix,
    radix_digits,
    radix_value,
    trivial_radix,
)
from repro.tfhe.lwe import decrypt_digit
from repro.tfhe.params import DigitEncoding, TEST_PBS
from repro.tfhe.transform import DoubleFFTNegacyclicTransform

#: The working encoding: base-4 digits with a full digit of carry head-room,
#: which is what mul/gt/eq's pair packing requires.
ENCODING = DigitEncoding(message_bits=2, carry_bits=2)


@functools.lru_cache(maxsize=1)
def _backend():
    transform = DoubleFFTNegacyclicTransform(TEST_PBS.N)
    return FheContext.generate(TEST_PBS, transform, unroll_factor=1, rng=77)


@pytest.fixture(scope="module")
def backend():
    return _backend()


@pytest.fixture
def evaluator(backend):
    _, context = backend
    return RadixEvaluator(context, ENCODING)


def _bootstraps(evaluator):
    """The context's bootstrap tally, which every radix lookup row lands in."""
    return evaluator.context.batch_evaluator(1).counters.bootstraps


# --------------------------------------------------------------------------- #
# plaintext digit helpers                                                     #
# --------------------------------------------------------------------------- #


def test_radix_digits_roundtrip():
    for value in (0, 1, 37, 200, 255, 1000):
        digits = radix_digits(value, 4, ENCODING)
        assert all(0 <= d < ENCODING.base for d in digits)
        assert radix_value(digits, ENCODING) == value % 256


def test_radix_value_accepts_unnormalised_digits():
    # 5·1 + 7·4 = 33 ≡ 1 (mod 16): digits above the base still recompose.
    assert radix_value([5, 7], ENCODING) == 33 % 16


# --------------------------------------------------------------------------- #
# encryption round-trips and structural validation                            #
# --------------------------------------------------------------------------- #


def test_encrypt_decrypt_radix(backend, rng):
    secret, _ = backend
    for value in (0, 1, 200, 255):
        x = encrypt_radix(secret.lwe_key, value, 4, ENCODING, rng=rng)
        assert x.width == 4
        assert x.is_normalized
        assert decrypt_radix(secret.lwe_key, x) == value


def test_encrypt_radix_reduces_modulo_width(backend, rng):
    secret, _ = backend
    x = encrypt_radix(secret.lwe_key, 300, 4, ENCODING, rng=rng)
    assert decrypt_radix(secret.lwe_key, x) == 300 % 256


def test_trivial_radix_decrypts_without_key_material(backend):
    secret, _ = backend
    x = trivial_radix(123, 4, ENCODING, dimension=TEST_PBS.n)
    assert decrypt_radix(secret.lwe_key, x) == 123


def test_radix_int_validates_bounds(backend, rng):
    secret, _ = backend
    x = encrypt_radix(secret.lwe_key, 9, 2, ENCODING, rng=rng)
    with pytest.raises(ValueError, match="one bound per digit"):
        RadixInt(digits=x.digits, bounds=(3,), encoding=ENCODING)
    with pytest.raises(ValueError, match=r"bounds must lie in \[0, 15\]"):
        RadixInt(digits=x.digits, bounds=(3, 16), encoding=ENCODING)
    with pytest.raises(ValueError, match="at least one digit"):
        RadixInt(digits=[], bounds=(), encoding=ENCODING)


# --------------------------------------------------------------------------- #
# linear operations: correct and bootstrap-free                               #
# --------------------------------------------------------------------------- #


def test_add_is_linear_and_free(backend, evaluator, rng):
    secret, _ = backend
    a = encrypt_radix(secret.lwe_key, 173, 4, ENCODING, rng=rng)
    b = encrypt_radix(secret.lwe_key, 41, 4, ENCODING, rng=rng)
    before = _bootstraps(evaluator)
    total = evaluator.add(a, b)
    assert _bootstraps(evaluator) == before
    assert not total.is_normalized  # bounds grew past B − 1
    assert decrypt_radix(secret.lwe_key, total) == (173 + 41) % 256


def test_add_scalar_is_free(backend, evaluator, rng):
    secret, _ = backend
    a = encrypt_radix(secret.lwe_key, 99, 4, ENCODING, rng=rng)
    before = _bootstraps(evaluator)
    out = evaluator.add_scalar(a, 57)
    assert _bootstraps(evaluator) == before
    assert decrypt_radix(secret.lwe_key, out) == (99 + 57) % 256


def test_scale_by_small_scalar_is_free(backend, evaluator, rng):
    secret, _ = backend
    a = encrypt_radix(secret.lwe_key, 61, 4, ENCODING, rng=rng)
    before = _bootstraps(evaluator)
    out = evaluator.scale(a, 3)
    assert _bootstraps(evaluator) == before
    assert decrypt_radix(secret.lwe_key, out) == (61 * 3) % 256


def test_scale_by_zero_gives_trivial_zero(backend, evaluator, rng):
    secret, _ = backend
    a = encrypt_radix(secret.lwe_key, 61, 4, ENCODING, rng=rng)
    out = evaluator.scale(a, 0)
    assert decrypt_radix(secret.lwe_key, out) == 0


def test_scale_rejects_negative_and_oversized(backend, evaluator, rng):
    secret, _ = backend
    a = encrypt_radix(secret.lwe_key, 61, 4, ENCODING, rng=rng)
    with pytest.raises(ValueError, match="non-negative"):
        evaluator.scale(a, -1)
    with pytest.raises(ValueError, match="overflows the carry budget"):
        evaluator.scale(a, 100)


def test_repeated_adds_propagate_within_budget(backend, evaluator, rng):
    """Chained additions stay correct as automatic propagation kicks in."""
    secret, _ = backend
    values = [201, 17, 88, 140, 255, 3]
    acc = encrypt_radix(secret.lwe_key, values[0], 4, ENCODING, rng=rng)
    for v in values[1:]:
        term = encrypt_radix(secret.lwe_key, v, 4, ENCODING, rng=rng)
        acc = evaluator.add(acc, term)
    assert decrypt_radix(secret.lwe_key, acc) == sum(values) % 256


# --------------------------------------------------------------------------- #
# carry propagation                                                           #
# --------------------------------------------------------------------------- #


def test_propagate_normalises_digits(backend, evaluator, rng):
    secret, _ = backend
    a = encrypt_radix(secret.lwe_key, 173, 4, ENCODING, rng=rng)
    b = encrypt_radix(secret.lwe_key, 90, 4, ENCODING, rng=rng)
    total = evaluator.propagate(evaluator.add(a, b))
    assert total.is_normalized
    assert decrypt_radix(secret.lwe_key, total) == (173 + 90) % 256
    # Normalised means each digit individually decrypts below the base.
    for digit in total.digits:
        assert decrypt_digit(secret.lwe_key, digit, ENCODING) < ENCODING.base


def test_propagate_rejects_bounds_beyond_budget(backend, evaluator, rng):
    secret, _ = backend
    a = encrypt_radix(secret.lwe_key, 9, 2, ENCODING, rng=rng)
    over = RadixInt(
        digits=a.digits, bounds=(15, 3), encoding=ENCODING
    )  # 15 + incoming carry 3 could overflow P − 1 = 15
    with pytest.raises(ValueError, match="propagation budget"):
        evaluator.propagate(over)


def test_propagate_skips_normalised_digits(backend, evaluator, rng):
    secret, _ = backend
    a = encrypt_radix(secret.lwe_key, 13, 4, ENCODING, rng=rng)
    before = _bootstraps(evaluator)
    out = evaluator.propagate(a)
    assert _bootstraps(evaluator) == before  # already normalised: free
    assert decrypt_radix(secret.lwe_key, out) == 13


# --------------------------------------------------------------------------- #
# multiplication                                                              #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("a,b", [(0, 0), (1, 255), (173, 201), (15, 17), (255, 255)])
def test_mul_8bit(backend, evaluator, rng, a, b):
    secret, _ = backend
    xa = encrypt_radix(secret.lwe_key, a, 4, ENCODING, rng=rng)
    xb = encrypt_radix(secret.lwe_key, b, 4, ENCODING, rng=rng)
    out = evaluator.mul(xa, xb)
    assert decrypt_radix(secret.lwe_key, out) == (a * b) % 256


@pytest.mark.parametrize("width,a,b", [(8, 173, 201), (16, 51_213, 47_900)])
def test_mul_bootstrap_count_beats_boolean_baseline(backend, evaluator, rng, width, a, b):
    """A radix multiply pays at most a third of the bootstraps of the boolean
    circuit for ``a * b`` after ``LUT_PIPELINE`` (24 vs 83 at 8 bit, 112 vs
    359 at 16): counted, compiled only, not timed."""
    secret, _ = backend
    boolean = PassManager(passes=LUT_PIPELINE).run(
        trace(lambda x, y: x * y, FheUint(width, "a"), FheUint(width, "b"))
    )
    digits = width // ENCODING.message_bits
    xa = encrypt_radix(secret.lwe_key, a, digits, ENCODING, rng=rng)
    xb = encrypt_radix(secret.lwe_key, b, digits, ENCODING, rng=rng)
    before = _bootstraps(evaluator)
    product = evaluator.mul(xa, xb)
    spent = _bootstraps(evaluator) - before
    assert decrypt_radix(secret.lwe_key, product) == (a * b) % (1 << width)
    assert 3 * spent <= live_gate_count(boolean), (spent, live_gate_count(boolean))


def test_mul_requires_packing_headroom(backend, rng):
    secret, context = backend
    narrow = DigitEncoding(message_bits=2, carry_bits=1)
    evaluator = RadixEvaluator(context, narrow)
    xa = encrypt_radix(secret.lwe_key, 9, 2, narrow, rng=rng)
    xb = encrypt_radix(secret.lwe_key, 5, 2, narrow, rng=rng)
    with pytest.raises(ValueError, match="carry_bits >= message_bits"):
        evaluator.mul(xa, xb)


def test_operand_mismatches_are_rejected(backend, evaluator, rng):
    secret, _ = backend
    xa = encrypt_radix(secret.lwe_key, 9, 2, ENCODING, rng=rng)
    xb = encrypt_radix(secret.lwe_key, 5, 4, ENCODING, rng=rng)
    with pytest.raises(ValueError, match="widths differ"):
        evaluator.add(xa, xb)
    other = DigitEncoding(message_bits=3, carry_bits=0)
    xc = encrypt_radix(secret.lwe_key, 5, 2, other, rng=rng)
    with pytest.raises(ValueError, match="encoding mismatch"):
        evaluator.add(xa, xc)


# --------------------------------------------------------------------------- #
# comparisons                                                                 #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "a,b,expected",
    [(201, 173, 1), (173, 201, 0), (144, 144, 0), (255, 0, 1), (0, 255, 0)],
)
def test_gt(backend, evaluator, rng, a, b, expected):
    secret, _ = backend
    xa = encrypt_radix(secret.lwe_key, a, 4, ENCODING, rng=rng)
    xb = encrypt_radix(secret.lwe_key, b, 4, ENCODING, rng=rng)
    bit = evaluator.gt(xa, xb)
    assert decrypt_digit(secret.lwe_key, bit, ENCODING) == expected


@pytest.mark.parametrize(
    "a,b,expected", [(144, 144, 1), (144, 145, 0), (0, 0, 1), (255, 254, 0)]
)
def test_eq(backend, evaluator, rng, a, b, expected):
    secret, _ = backend
    xa = encrypt_radix(secret.lwe_key, a, 4, ENCODING, rng=rng)
    xb = encrypt_radix(secret.lwe_key, b, 4, ENCODING, rng=rng)
    bit = evaluator.eq(xa, xb)
    assert decrypt_digit(secret.lwe_key, bit, ENCODING) == expected


def test_gt_single_digit(backend, evaluator, rng):
    secret, _ = backend
    xa = encrypt_radix(secret.lwe_key, 3, 1, ENCODING, rng=rng)
    xb = encrypt_radix(secret.lwe_key, 2, 1, ENCODING, rng=rng)
    assert decrypt_digit(secret.lwe_key, evaluator.gt(xa, xb), ENCODING) == 1
    assert decrypt_digit(secret.lwe_key, evaluator.gt(xb, xa), ENCODING) == 0


def test_evaluator_rejects_unratable_encoding(backend):
    _, context = backend
    with pytest.raises(ValueError, match="rated for message_space"):
        RadixEvaluator(context, DigitEncoding(message_bits=3, carry_bits=3))
