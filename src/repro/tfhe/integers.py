"""Radix-decomposed encrypted integers over programmable bootstrapping.

A :class:`RadixInt` holds a little-endian vector of digit ciphertexts, each
encrypting a value in ``[0, P)`` under a :class:`~repro.tfhe.params.DigitEncoding`
with ``B = 2^message_bits`` and carry head-room ``P/B``.  Arithmetic follows
the standard radix recipe:

* **Linear ops are free.**  Addition, scalar addition and small scalings are
  digit-wise LWE additions — no bootstrapping — as long as the tracked
  plaintext *bounds* stay inside the carry budget.
* **Carry propagation is a lookup.**  Once a digit's bound approaches ``P``,
  one programmable bootstrap per digit splits it into ``v mod B`` (kept) and
  ``v div B`` (added to the next digit); both lookups ride one batched blind
  rotation per digit.  Every lookup is a ``("digit", (encoding, table),
  sample)`` row of the context's row path; the ``*_steps`` methods yield the
  carry rounds as such rows, for the scheduler to serve a ``radix_add``.
* **Multiplication packs digit pairs.**  ``p = B·x_i + y_j`` fits one digit
  when ``carry_bits >= message_bits``, so every partial-product low/high digit
  is a single LUT row and *all* of them share one batched blind rotation; the
  rows are then accumulated linearly in carry-budget-sized chunks.
* **Comparison is a sign lookup.**  Per-digit packed compares reduce ``x ? y``
  to trits ``{lt, eq, gt}`` folded most-significant-first through a tiny
  transition LUT.

Every public operation keeps the invariant that digit bounds never exceed
``max_accumulator_bound`` (``P − 1`` minus the largest possible incoming
carry), which is exactly the precondition :meth:`RadixEvaluator.propagate`
needs to renormalise without overflowing the torus slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro.tfhe.gates import Row, run_steps, split_rows
from repro.tfhe.lwe import (
    LweBatch,
    LweKey,
    LweSample,
    decrypt_digit,
    digit_message,
    encrypt_digit,
    lwe_add,
    lwe_add_constant,
    lwe_encrypt_trivial,
    lwe_scale,
)
from repro.tfhe.params import DigitEncoding


def radix_digits(value: int, width: int, encoding: DigitEncoding) -> List[int]:
    """Little-endian base-``B`` digits of ``value`` (reduced mod ``B^width``)."""
    base = encoding.base
    value %= base**width
    return [(value >> (i * encoding.message_bits)) & (base - 1) for i in range(width)]


def radix_value(digits: Sequence[int], encoding: DigitEncoding) -> int:
    """Recompose (possibly unnormalised) digits into an integer mod ``B^width``."""
    base = encoding.base
    total = 0
    for i, d in enumerate(digits):
        total += int(d) * base**i
    return total % base ** len(digits)


@dataclass
class RadixInt:
    """An encrypted unsigned integer: little-endian digit ciphertexts + bounds.

    ``bounds[i]`` is a public upper bound on the plaintext held by digit ``i``
    (fresh digits are bounded by ``B − 1``; linear ops grow the bound).  The
    ciphertext value is ``Σ digit_i · B^i mod B^width`` regardless of whether
    the digits are normalised.
    """

    digits: List[LweSample]
    bounds: Tuple[int, ...]
    encoding: DigitEncoding

    def __post_init__(self) -> None:
        if len(self.digits) != len(self.bounds):
            raise ValueError("one bound per digit required")
        if not self.digits:
            raise ValueError("RadixInt needs at least one digit")
        limit = self.encoding.space - 1
        if any(b < 0 or b > limit for b in self.bounds):
            raise ValueError(f"digit bounds must lie in [0, {limit}]")

    @property
    def width(self) -> int:
        """Number of digits (the integer is reduced mod ``B^width``)."""
        return len(self.digits)

    @property
    def is_normalized(self) -> bool:
        """Whether every digit is provably below the radix ``B``."""
        return all(b < self.encoding.base for b in self.bounds)

    def copy(self) -> "RadixInt":
        return RadixInt(
            digits=[d.copy() for d in self.digits],
            bounds=tuple(self.bounds),
            encoding=self.encoding,
        )


def encrypt_radix(
    key: LweKey,
    value: int,
    width: int,
    encoding: DigitEncoding,
    noise_stddev: Optional[float] = None,
    rng=None,
) -> RadixInt:
    """Encrypt ``value mod B^width`` as ``width`` fresh digit ciphertexts."""
    digits = [
        encrypt_digit(key, d, encoding, noise_stddev=noise_stddev, rng=rng)
        for d in radix_digits(value, width, encoding)
    ]
    return RadixInt(digits=digits, bounds=(encoding.base - 1,) * width, encoding=encoding)


def decrypt_radix(key: LweKey, x: RadixInt) -> int:
    """Decrypt a radix integer (digits need not be normalised)."""
    return radix_value(
        [decrypt_digit(key, d, x.encoding) for d in x.digits], x.encoding
    )


def trivial_radix(value: int, width: int, encoding: DigitEncoding, dimension: int) -> RadixInt:
    """A noiseless public constant in radix form (for accumulator seeds)."""
    digits = [
        lwe_encrypt_trivial(dimension, digit_message(d, encoding))
        for d in radix_digits(value, width, encoding)
    ]
    bounds = tuple(min(d, encoding.base - 1) for d in radix_digits(value, width, encoding))
    return RadixInt(digits=digits, bounds=bounds, encoding=encoding)


class RadixEvaluator:
    """Homomorphic integer arithmetic on :class:`RadixInt` values.

    Needs an evaluation context (a :class:`repro.runtime.context.FheContext`)
    and the digit encoding shared by all operands.  Every lookup row is a
    bootstrap row of the context, tallied in
    ``context.batch_evaluator(1).counters.bootstraps``.
    """

    def __init__(self, context, encoding: DigitEncoding) -> None:
        encoding.validate_for(context.params)
        self.context = context
        self.encoding = encoding

    # -- encoding-derived budgets -------------------------------------------
    @property
    def max_accumulator_bound(self) -> int:
        """Largest digit bound from which carry propagation cannot overflow.

        During propagation digit ``i`` absorbs an incoming carry of at most
        ``⌊(P−1)/B⌋``, and the sum must stay below ``P``.
        """
        space = self.encoding.space
        return space - 1 - (space - 1) // self.encoding.base

    @property
    def _carry_room(self) -> int:
        return self.max_accumulator_bound - (self.encoding.base - 1)

    def _require_carry_room(self, operation: str) -> None:
        if self._carry_room <= 0:
            raise ValueError(
                f"{operation} needs carry head-room: encoding "
                f"{self.encoding.message_bits}+{self.encoding.carry_bits} bits "
                f"cannot hold a digit sum"
            )

    def _require_packing(self, operation: str) -> None:
        if self.encoding.carry_bits < self.encoding.message_bits:
            raise ValueError(
                f"{operation} packs digit pairs as B·x + y and needs "
                f"carry_bits >= message_bits (got "
                f"{self.encoding.carry_bits} < {self.encoding.message_bits})"
            )

    # -- bootstrap plumbing --------------------------------------------------
    def _lookup(self, table: Sequence[int], sample: LweSample) -> Row:
        """The digit row that looks ``sample`` up in ``table``."""
        return ("digit", (self.encoding, tuple(table)), sample)

    def _run_rows(self, rows: List[Row]) -> List[LweSample]:
        """One fused batched blind rotation over ``rows`` on the context's
        row path (one round of a multi-round job)."""
        evaluator = self.context.batch_evaluator(1)
        return evaluator.rows(*split_rows(rows, LweBatch.from_samples)).to_samples()

    # -- carry propagation ---------------------------------------------------
    def propagate(self, x: RadixInt) -> RadixInt:
        """Renormalise all digits to ``[0, B)`` (value unchanged mod ``B^width``).

        Sequential in the carry chain; each unnormalised digit costs two LUT
        rows (``v mod B`` and ``v div B``) sharing one batched blind rotation.
        Digits already known to be below ``B`` with no incoming carry are
        passed through untouched.
        """
        return run_steps(self.propagate_steps(x), self._run_rows)

    def propagate_steps(self, x: RadixInt) -> Generator[List[Row], list, RadixInt]:
        """:meth:`propagate` as a multi-round job: yields each carry round's
        digit rows, is sent their outputs, returns the result."""
        limit = self.max_accumulator_bound
        if any(b > limit for b in x.bounds):
            raise ValueError(
                f"digit bounds {x.bounds} exceed the propagation budget {limit}"
            )
        base, space = self.encoding.base, self.encoding.space
        lo = (self.encoding, tuple(v % base for v in range(space)))
        hi = (self.encoding, tuple(v // base for v in range(space)))
        out: List[LweSample] = []
        out_bounds: List[int] = []
        carry: Optional[LweSample] = None
        carry_bound = 0
        for i, (digit, bound) in enumerate(zip(x.digits, x.bounds)):
            if carry is not None:
                s = lwe_add(digit, carry)
                s_bound = bound + carry_bound
            else:
                s, s_bound = digit, bound
            last = i == x.width - 1
            if s_bound < base:
                out.append(s)
                out_bounds.append(s_bound)
                carry, carry_bound = None, 0
            elif last:
                (low,) = yield [("digit", lo, s)]
                out.append(low)
                out_bounds.append(base - 1)
            else:
                low, carry = yield [("digit", lo, s), ("digit", hi, s)]
                out.append(low)
                out_bounds.append(base - 1)
                carry_bound = s_bound // base
        return RadixInt(digits=out, bounds=tuple(out_bounds), encoding=self.encoding)

    # -- linear ops (no bootstrapping) ---------------------------------------
    def _check_pair(self, x: RadixInt, y: RadixInt, operation: str) -> None:
        if x.encoding != self.encoding or y.encoding != self.encoding:
            raise ValueError(f"{operation}: operand encoding mismatch")
        if x.width != y.width:
            raise ValueError(
                f"{operation}: operand widths differ ({x.width} vs {y.width})"
            )

    def add(self, x: RadixInt, y: RadixInt) -> RadixInt:
        """Homomorphic addition mod ``B^width``.

        Digit-wise LWE addition — zero bootstraps — whenever the combined
        bounds fit the carry budget; otherwise the wider operand(s) are carry
        propagated first.
        """
        return run_steps(self.add_steps(x, y), self._run_rows)

    def add_steps(self, x: RadixInt, y: RadixInt) -> Generator[List[Row], list, RadixInt]:
        """:meth:`add` as a multi-round job (no round when the bounds fit)."""
        self._check_pair(x, y, "add")
        limit = self.max_accumulator_bound
        if max(bx + by for bx, by in zip(x.bounds, y.bounds)) > limit:
            if not x.is_normalized:
                x = yield from self.propagate_steps(x)
            if (
                max(bx + by for bx, by in zip(x.bounds, y.bounds)) > limit
                and not y.is_normalized
            ):
                y = yield from self.propagate_steps(y)
            if max(bx + by for bx, by in zip(x.bounds, y.bounds)) > limit:
                self._require_carry_room("add")
        digits = [lwe_add(a, b) for a, b in zip(x.digits, y.digits)]
        bounds = tuple(bx + by for bx, by in zip(x.bounds, y.bounds))
        return RadixInt(digits=digits, bounds=bounds, encoding=self.encoding)

    def add_scalar(self, x: RadixInt, value: int) -> RadixInt:
        """Add a public integer — pure plaintext digit additions, no bootstraps."""
        scalar_digits = radix_digits(value, x.width, self.encoding)
        limit = self.max_accumulator_bound
        if max(b + d for b, d in zip(x.bounds, scalar_digits)) > limit:
            x = self.propagate(x)
            if max(b + d for b, d in zip(x.bounds, scalar_digits)) > limit:
                self._require_carry_room("add_scalar")
        digits = [
            lwe_add_constant(c, digit_message(d, self.encoding)) if d else c.copy()
            for c, d in zip(x.digits, scalar_digits)
        ]
        bounds = tuple(b + d for b, d in zip(x.bounds, scalar_digits))
        return RadixInt(digits=digits, bounds=bounds, encoding=self.encoding)

    def scale(self, x: RadixInt, scalar: int) -> RadixInt:
        """Multiply by a small public scalar via digit scaling (no bootstraps).

        Requires ``scalar · B − 1`` to fit the carry budget after one
        normalisation; larger constants should go through :meth:`mul`.
        """
        if scalar < 0:
            raise ValueError("scale takes a non-negative scalar")
        if scalar == 0:
            dim = x.digits[0].dimension
            return trivial_radix(0, x.width, self.encoding, dim)
        limit = self.max_accumulator_bound
        if max(x.bounds) * scalar > limit:
            x = self.propagate(x)
        if max(x.bounds) * scalar > limit:
            raise ValueError(
                f"scalar {scalar} overflows the carry budget {limit} "
                f"of a normalised digit"
            )
        digits = [lwe_scale(scalar, d) for d in x.digits]
        bounds = tuple(b * scalar for b in x.bounds)
        return RadixInt(digits=digits, bounds=bounds, encoding=self.encoding)

    # -- multiplication ------------------------------------------------------
    def _pack(self, hi: LweSample, lo: LweSample) -> LweSample:
        """The packed digit ``B·hi + lo`` (both operands normalised)."""
        return lwe_add(lwe_scale(self.encoding.base, hi), lo)

    def mul(self, x: RadixInt, y: RadixInt) -> RadixInt:
        """Homomorphic multiplication mod ``B^width``.

        Every partial-product digit — ``(x_i · y_j) mod B`` at position
        ``i + j`` and ``(x_i · y_j) div B`` at position ``i + j + 1`` — is one
        LUT row over the packed digit ``B·x_i + y_j``, and **all** rows share a
        single batched blind rotation.  The rows are then summed linearly in
        carry-budget-sized chunks with propagation sweeps in between.
        """
        self._check_pair(x, y, "mul")
        self._require_packing("mul")
        self._require_carry_room("mul")
        if not x.is_normalized:
            x = self.propagate(x)
        if not y.is_normalized:
            y = self.propagate(y)
        base, space = self.encoding.base, self.encoding.space
        width = x.width

        lo_mul = [((p // base) * (p % base)) % base for p in range(space)]
        hi_mul = [((p // base) * (p % base)) // base for p in range(space)]
        rows: List[Row] = []
        positions: List[int] = []
        for i in range(width):
            for j in range(width - i):
                packed = self._pack(x.digits[i], y.digits[j])
                rows.append(self._lookup(lo_mul, packed))
                positions.append(i + j)
                if i + j + 1 < width:
                    rows.append(self._lookup(hi_mul, packed))
                    positions.append(i + j + 1)
        products = self._run_rows(rows)

        columns: List[List[LweSample]] = [[] for _ in range(width)]
        for position, sample in zip(positions, products):
            columns[position].append(sample)

        chunk = max(1, self.max_accumulator_bound // (base - 1))
        dim = x.digits[0].dimension
        acc: Optional[RadixInt] = None
        while any(columns):
            layer_digits: List[LweSample] = []
            layer_bounds: List[int] = []
            for position in range(width):
                taken = columns[position][:chunk]
                columns[position] = columns[position][chunk:]
                if not taken:
                    layer_digits.append(
                        lwe_encrypt_trivial(dim, digit_message(0, self.encoding))
                    )
                    layer_bounds.append(0)
                    continue
                total = taken[0]
                for term in taken[1:]:
                    total = lwe_add(total, term)
                layer_digits.append(total)
                layer_bounds.append(len(taken) * (base - 1))
            layer = RadixInt(
                digits=layer_digits, bounds=tuple(layer_bounds), encoding=self.encoding
            )
            acc = layer if acc is None else self.add(acc, layer)
        assert acc is not None
        return self.propagate(acc)

    # -- comparisons ---------------------------------------------------------
    def gt(self, x: RadixInt, y: RadixInt) -> LweSample:
        """Encrypted ``x > y`` as a digit ciphertext of 0 or 1.

        One packed sign LUT per digit (all sharing one batched rotation) maps
        each position to a trit ``{0: lt, 1: eq, 2: gt}``; the trits are then
        folded most-significant-first through ``r' = r if r ≠ eq else s`` —
        one bootstrap per remaining digit.
        """
        self._check_pair(x, y, "gt")
        self._require_packing("gt")
        space = self.encoding.space
        if space < 9:
            raise ValueError(
                "gt folds trits as 3·r + s and needs a plaintext space >= 9"
            )
        if not x.is_normalized:
            x = self.propagate(x)
        if not y.is_normalized:
            y = self.propagate(y)
        base = self.encoding.base

        def trit(a: int, b: int) -> int:
            return 2 if a > b else (1 if a == b else 0)

        sign_table = [trit(p // base, p % base) for p in range(space)]
        packed = [self._pack(xd, yd) for xd, yd in zip(x.digits, y.digits)]
        trits = self._run_rows([self._lookup(sign_table, p) for p in packed])

        # r' = r unless r is still "equal so far", in which case the next trit
        # decides; the final fold collapses straight to the boolean answer.
        fold = [(v % 3 if v // 3 == 1 else v // 3) for v in range(space)]
        fold_final = [1 if (v % 3 if v // 3 == 1 else v // 3) == 2 else 0 for v in range(space)]
        result = trits[-1]
        remaining = list(reversed(trits[:-1]))
        if not remaining:
            final_map = [1 if v == 2 else 0 for v in range(space)]
            (result,) = self._run_rows([self._lookup(final_map, result)])
            return result
        for index, s in enumerate(remaining):
            combined = lwe_add(lwe_scale(3, result), s)
            table = fold_final if index == len(remaining) - 1 else fold
            (result,) = self._run_rows([self._lookup(table, combined)])
        return result

    def eq(self, x: RadixInt, y: RadixInt) -> LweSample:
        """Encrypted ``x == y`` as a digit ciphertext of 0 or 1.

        Per-digit packed equality LUTs (one batched rotation) produce 0/1
        indicators that are *summed linearly*; a final count-equals-width LUT
        collapses the sum — ``width + 1`` bootstraps total for typical widths.
        """
        self._check_pair(x, y, "eq")
        self._require_packing("eq")
        if not x.is_normalized:
            x = self.propagate(x)
        if not y.is_normalized:
            y = self.propagate(y)
        base, space = self.encoding.base, self.encoding.space
        eq_table = [1 if (p // base) == (p % base) else 0 for p in range(space)]
        packed = [self._pack(xd, yd) for xd, yd in zip(x.digits, y.digits)]
        bits = self._run_rows([self._lookup(eq_table, p) for p in packed])
        limit = self.max_accumulator_bound
        while len(bits) > 1:
            group = bits[: min(len(bits), limit)]
            rest = bits[len(group):]
            total = group[0]
            for term in group[1:]:
                total = lwe_add(total, term)
            all_set = [1 if v == len(group) else 0 for v in range(space)]
            (folded,) = self._run_rows([self._lookup(all_set, total)])
            bits = [folded] + rest
        return bits[0]
