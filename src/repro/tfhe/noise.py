"""Analytic noise model (Section 4.3 "Error and Noise", Table 3).

Every homomorphic operation adds noise to the ciphertext; a gate decrypts
correctly as long as the accumulated noise stays below the decision margin of
the plaintext encoding (``1/16`` of the torus for gate bootstrapping, since
the post-gate phases sit at odd multiples of ``1/8`` and the decision is a
sign test).  This module propagates noise *variances* through a bootstrapped
gate, reproducing:

* the per-source comparison of Table 3 (external product, rounding,
  bootstrapping-key and FFT/IFFT noise, as functions of the BKU factor ``m``),
* the decryption-failure-probability claims of Section 4.3 (38-bit DVQTFs are
  enough at small ``m``; 64-bit DVQTFs are needed once the exponentially
  growing bootstrapping-key noise eats the margin at ``m = 5``),

using the standard TFHE variance bookkeeping (Chillotti et al. 2020) extended
with the BKU bundle construction of Figure 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.tfhe.lwe import ROUNDED_MASK_BITS
from repro.tfhe.params import DigitEncoding, TFHEParameters

#: Decision margin of gate bootstrapping on the real torus: phases sit at odd
#: multiples of 1/8, the bootstrapping test vector flips at 0 and +-1/2, so the
#: closest failure boundary is 1/16 away after the linear gate combination is
#: taken into account (the XOR-style gates scale inputs by two, which the
#: per-gate margin below accounts for).
GATE_DECISION_MARGIN = 1.0 / 16.0

#: The largest share of the next bootstrap's mod-switch variance that
#: rounding a reply's mask (:func:`repro.tfhe.lwe.lwe_round_mask`) may add.
REPLY_ROUNDING_SHARE = 0.01


def digit_decision_margin(encoding: DigitEncoding) -> float:
    """Decision margin of a programmable bootstrap over ``2P`` torus slots.

    Digit plaintexts sit at multiples of ``1/(2P)``; the blind rotation reads
    the wrong test-vector slot once the accumulated phase error exceeds half a
    slot, i.e. ``1/(4P)``.
    """
    return 1.0 / (4.0 * encoding.space)


def _erfc(x: float) -> float:
    return math.erfc(x)


@dataclass(frozen=True)
class NoiseBudget:
    """Variance contributions of one bootstrapped TFHE gate."""

    input_variance: float
    modswitch_rounding_variance: float
    blind_rotate_variance: float
    fft_variance: float
    keyswitch_variance: float

    @property
    def total_variance(self) -> float:
        return (
            self.input_variance
            + self.modswitch_rounding_variance
            + self.blind_rotate_variance
            + self.fft_variance
            + self.keyswitch_variance
        )

    @property
    def total_stddev(self) -> float:
        return math.sqrt(self.total_variance)

    def failure_probability(self, margin: float = GATE_DECISION_MARGIN) -> float:
        """Probability that one gate output decrypts incorrectly."""
        sigma = self.total_stddev
        if sigma == 0:
            return 0.0
        return _erfc(margin / (sigma * math.sqrt(2.0)))

    def expected_failures(self, gates: float, margin: float = GATE_DECISION_MARGIN) -> float:
        """Expected number of failures over ``gates`` evaluated gates."""
        return gates * self.failure_probability(margin)


class TfheNoiseModel:
    """Noise-variance propagation for gate bootstrapping with BKU factor ``m``."""

    def __init__(
        self,
        params: TFHEParameters,
        unroll_factor: int = 1,
        fft_error_stddev: float = 0.0,
    ) -> None:
        if unroll_factor < 1:
            raise ValueError("unroll factor must be >= 1")
        self.params = params
        self.unroll_factor = unroll_factor
        #: Standard deviation (on the real torus) of the polynomial-product
        #: error of the transform engine, per backward transform.  Zero for an
        #: exact engine; measured values come from
        #: :func:`repro.core.fft_error.polynomial_product_error`.
        self.fft_error_stddev = fft_error_stddev

    # -- individual sources -------------------------------------------------
    @property
    def iterations(self) -> int:
        """Number of external products per bootstrapping: ``⌈n/m⌉``."""
        return -(-self.params.n // self.unroll_factor)

    @property
    def keys_per_group(self) -> int:
        """TGSW keys per BKU group: ``2^m − 1`` (Figure 5)."""
        return (1 << self.unroll_factor) - 1

    def fresh_lwe_variance(self) -> float:
        """Variance of a freshly encrypted LWE sample."""
        return self.params.lwe.noise_stddev**2

    def gate_input_variance(self, operand_count: int = 2, scale: int = 1) -> float:
        """Variance of the linear combination entering the bootstrapping.

        ``operand_count`` fresh ciphertexts scaled by ``scale`` (2 for the
        XOR/XNOR gates, 1 otherwise).
        """
        return operand_count * (scale**2) * self.fresh_lwe_variance()

    def modswitch_rounding_variance(self) -> float:
        """Variance of the rounding step (Algorithm 1 line 2).

        Each of the ``n`` mask coefficients is rounded to a multiple of
        ``1/2N``; the rounding errors are uniform in ``±1/(4N)`` and only the
        coefficients with ``s_i = 1`` (half of them on average) propagate.
        Grouping ``m`` coefficients per external product does not change the
        number of roundings, but the *accumulated* rounding error that the
        test-vector rotation sees is one per external product, which is the
        ``RO/m`` scaling the paper lists in Table 3.
        """
        n = self.params.n
        N = self.params.N
        per_coefficient = (1.0 / (4.0 * N)) ** 2 / 3.0
        return (n / 2.0 + 1.0) * per_coefficient

    def reply_rounding_variance(self) -> float:
        """Phase variance that :func:`repro.tfhe.lwe.lwe_round_mask` adds.

        Each mask word is rounded to a multiple of ``2^-b`` (``b`` =
        :data:`repro.tfhe.lwe.ROUNDED_MASK_BITS`); the error is uniform over
        one step, variance ``2^-2b / 12``, and as in the mod switch only the
        coefficients with ``s_i = 1`` (half of them on average) propagate.
        """
        step = 2.0**-ROUNDED_MASK_BITS
        return (self.params.n / 2.0) * step**2 / 12.0

    def reply_rounding_fits(self) -> bool:
        """Whether rounding a reply adds at most :data:`REPLY_ROUNDING_SHARE`
        of the variance the next bootstrap's own rounding adds anyway."""
        share = REPLY_ROUNDING_SHARE * self.modswitch_rounding_variance()
        return self.reply_rounding_variance() <= share

    def external_product_variance_per_iteration(self) -> float:
        """Noise added by one external product with a bundle of ``2^m − 1`` keys.

        The standard external-product variance has two terms: the TGSW key
        noise amplified by the decomposition digits, and the decomposition
        (gadget) rounding error.  Scaling a key by ``X^e − 1`` doubles its
        noise variance, and the bundle sums ``2^m − 1`` scaled keys — the
        exponential bootstrapping-key term of Table 3.
        """
        p = self.params
        k, l, N = p.k, p.l, p.N
        bg = p.Bg
        # Mean square of a signed decomposition digit, uniform in [-Bg/2, Bg/2).
        digit_ms = (bg**2) / 12.0
        eps = 1.0 / (2.0 * (bg**l))
        sigma_bk_sq = p.tlwe.noise_stddev**2

        key_term = (k + 1) * l * N * digit_ms * sigma_bk_sq
        decomposition_term = (1 + k * N) * (eps**2)
        if self.unroll_factor == 1:
            bundle_keys = 1.0
            scale_factor = 2.0  # CMux / (X^e - 1) scaling of a single key
        else:
            bundle_keys = float(self.keys_per_group)
            scale_factor = 2.0
        return scale_factor * bundle_keys * key_term + decomposition_term

    def blind_rotate_variance(self) -> float:
        """Total blind-rotation noise: iterations × per-iteration noise."""
        return self.iterations * self.external_product_variance_per_iteration()

    def fft_variance(self) -> float:
        """Noise added by approximate FFT/IFFT errors over one bootstrapping.

        Each external product performs ``k + 1`` backward transforms whose
        polynomial-product error has standard deviation ``fft_error_stddev``
        on the torus; the errors accumulate across iterations.
        """
        per_iteration = (self.params.k + 1) * (self.fft_error_stddev**2)
        return self.iterations * per_iteration

    def keyswitch_variance(self) -> float:
        """Noise added by the final key switch — an upper bound.

        It counts one key sample per digit and each coefficient's whole
        decomposition error.  A zero digit selects no sample (the key has
        none for it: a ``(base − 1)/base`` share of the key term is what a
        uniform mask draws), and a rounding error only reaches the output
        where the input key bit is 1, so the measured variance sits below
        this (``tests/test_keyswitch.py::TestKeySwitchNoise``).
        """
        p = self.params
        ks = p.keyswitch
        big_n = p.k * p.N
        # Key-switching key noise: one sample per input bit and digit.
        key_term = big_n * ks.length * (ks.noise_stddev**2)
        # Precision loss of the digit decomposition.
        precision = 2.0 ** (-ks.base_bits * ks.length)
        decomposition_term = big_n * (precision**2) / 12.0
        return key_term + decomposition_term

    # -- aggregate ----------------------------------------------------------
    def gate_budget(self, operand_count: int = 2, scale: int = 1) -> NoiseBudget:
        """The full noise budget of one bootstrapped gate."""
        return NoiseBudget(
            input_variance=0.0,  # the bootstrapping resets the input noise
            modswitch_rounding_variance=self.modswitch_rounding_variance(),
            blind_rotate_variance=self.blind_rotate_variance(),
            fft_variance=self.fft_variance(),
            keyswitch_variance=self.keyswitch_variance(),
        )

    def pre_bootstrap_margin_ok(self, operand_count: int = 2, scale: int = 1) -> bool:
        """Whether the linear combination entering the bootstrap stays decodable."""
        sigma = math.sqrt(
            self.gate_input_variance(operand_count, scale)
            + self.modswitch_rounding_variance()
        )
        return 4.0 * sigma < GATE_DECISION_MARGIN

    # -- programmable bootstrapping -----------------------------------------
    def digit_budget(self, encoding: DigitEncoding) -> NoiseBudget:
        """Noise budget of one programmable bootstrap of a digit ciphertext.

        The sources are identical to the gate budget — the blind rotation does
        not care what the test vector encodes — but the budget is evaluated
        against the narrower ``1/(4P)`` digit margin by the callers.
        """
        return self.gate_budget()

    def digit_margin_ok(self, encoding: DigitEncoding, sigmas: float = 4.0) -> bool:
        """Whether a freshly bootstrapped digit stays ``sigmas``·σ inside margin.

        The decoding-relevant error is the phase error *entering* the next
        blind rotation: the residual bootstrap output noise plus the mod-switch
        rounding of that rotation.
        """
        budget = self.digit_budget(encoding)
        sigma = math.sqrt(
            budget.total_variance + self.modswitch_rounding_variance()
        )
        return sigmas * sigma < digit_decision_margin(encoding)

    def digit_failure_probability(self, encoding: DigitEncoding) -> float:
        """Per-bootstrap probability of decoding the wrong digit slot."""
        budget = self.digit_budget(encoding)
        sigma = math.sqrt(
            budget.total_variance + self.modswitch_rounding_variance()
        )
        if sigma == 0:
            return 0.0
        return _erfc(digit_decision_margin(encoding) / (sigma * math.sqrt(2.0)))


    # -- Table 3 ------------------------------------------------------------
    def table3_relative_metrics(self) -> Dict[str, float]:
        """The paper's Table 3 scalings, normalised to the ``m = 1`` baseline.

        Returns the relative external-product noise (``δ/m``), relative
        rounding noise (``RO/m``), bootstrapping-key count per group
        (``2^m − 1``) and the per-product FFT error level in dB.
        """
        m = self.unroll_factor
        fft_db = (
            20.0 * math.log10(self.fft_error_stddev)
            if self.fft_error_stddev > 0
            else float("-inf")
        )
        return {
            "external_product_noise_scale": 1.0 / m,
            "rounding_noise_scale": 1.0 / m,
            "bootstrapping_keys_per_group": float(self.keys_per_group),
            "fft_error_db": fft_db,
        }


def validate_digit_encoding(
    params: TFHEParameters,
    encoding: DigitEncoding,
    unroll_factor: int = 1,
    sigmas: float = 4.0,
) -> None:
    """Raise :class:`ValueError` unless ``encoding`` fits ``params``.

    Two checks, in order: the structural fit (``2P`` torus slices within the
    parameter set's rated ``message_space``, digit slots dividing ``N`` —
    :meth:`DigitEncoding.validate_for`), then the analytic noise margin — a
    freshly bootstrapped digit plus the next blind rotation's mod-switch
    rounding must stay ``sigmas``·σ inside the ``1/(4P)`` digit decision
    margin under :class:`TfheNoiseModel`.  This is the single entry point the
    parameter tables and the property tests use to rate an encoding.
    """
    encoding.validate_for(params)
    model = TfheNoiseModel(params, unroll_factor=unroll_factor)
    if not model.digit_margin_ok(encoding, sigmas=sigmas):
        budget = model.digit_budget(encoding)
        sigma = math.sqrt(
            budget.total_variance + model.modswitch_rounding_variance()
        )
        raise ValueError(
            f"digit encoding {encoding.message_bits}+{encoding.carry_bits} "
            f"bits does not fit {params.name}: {sigmas:.0f} sigma noise "
            f"({sigmas * sigma:.2e}) exceeds the 1/(4P) decision margin "
            f"({digit_decision_margin(encoding):.2e}) at m={unroll_factor}"
        )


def max_safe_fft_error(params: TFHEParameters, unroll_factor: int, target_failures: float = 1.0, gates: float = 1.0e8) -> float:
    """Largest per-product FFT error stddev keeping < ``target_failures`` in ``gates``.

    Used to reproduce the Section 4.3 argument: the margin left for FFT error
    shrinks as ``m`` grows because the bootstrapping-key noise grows
    exponentially, which is why 38-bit DVQTFs are enough at ``m = 2`` but
    64-bit DVQTFs are needed at ``m = 5``.
    """
    model = TfheNoiseModel(params, unroll_factor, fft_error_stddev=0.0)
    base_variance = model.gate_budget().total_variance

    # Target per-gate failure probability.
    p_target = target_failures / gates
    # Invert erfc(margin / (sigma sqrt 2)) = p  ->  sigma = margin / (sqrt2 * erfcinv(p))
    # Use a simple bisection on sigma to avoid depending on scipy here.
    margin = GATE_DECISION_MARGIN

    def failure(sigma_total: float) -> float:
        return _erfc(margin / (sigma_total * math.sqrt(2.0)))

    low, high = math.sqrt(base_variance), margin
    if failure(low) > p_target:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if failure(mid) > p_target:
            high = mid
        else:
            low = mid
    sigma_total_max = low
    allowed_fft_variance = sigma_total_max**2 - base_variance
    if allowed_fft_variance <= 0:
        return 0.0
    iterations = model.iterations
    per_product = allowed_fft_variance / (iterations * (params.k + 1))
    return math.sqrt(per_product)
