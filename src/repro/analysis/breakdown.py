"""Figure 1: latency breakdown of TFHE gates.

The figure decomposes each bootstrapped gate's latency into four buckets:
``gate`` (the linear combination of the input ciphertexts), ``other`` (the
non-transform part of the bootstrapping: decomposition, pointwise products,
accumulator updates, sample extraction, key switching) and the ``IFFT`` and
``FFT`` kernels.  The paper's observations are that the bootstrapping costs
about 99 % of a gate and that the transforms cost roughly 80 % of the
bootstrapping, with the forward (IFFT) bucket much larger than the backward
(FFT) bucket because it runs four times as often.

Two reproduction modes are provided:

* :func:`gate_latency_breakdown` — an operation-count model evaluated on the
  paper's 110-bit parameters using per-kernel CPU costs anchored to the
  13.1 ms NAND latency (deterministic; used by the bench);
* :func:`measure_gate_breakdown` — wall-clock measurement of the functional
  simulator on a reduced parameter set, with the transform calls timed through
  a proxy (validates the model's ordering: IFFT > FFT > other > gate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from repro.tfhe.gates import PLAINTEXT_GATES, TFHEGateEvaluator, encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.params import PAPER_110BIT, TEST_SMALL, TFHEParameters
from repro.tfhe.transform import NegacyclicTransform, make_transform
from repro.utils.rng import SeedLike, make_rng
from repro.utils.tables import format_table

#: Per-call CPU cost of one double-precision transform of a degree-1024
#: polynomial, anchored so the NAND total matches the 13.1 ms CPU baseline.
CPU_TRANSFORM_SECONDS = 2.1e-6
#: CPU cost of the non-transform work of one external product (decomposition,
#: pointwise MACs, accumulator update).
CPU_EP_OTHER_SECONDS = 3.4e-6
#: CPU cost of the per-gate epilogue (sample extract + key switch).
CPU_EPILOGUE_SECONDS = 0.85e-3
#: CPU cost of the linear combination ("gate" bucket).
CPU_LINEAR_SECONDS = 8.0e-6


@dataclass(frozen=True)
class GateBreakdown:
    """Latency breakdown of one gate, in seconds per bucket."""

    gate: str
    gate_linear_s: float
    other_s: float
    ifft_s: float
    fft_s: float

    @property
    def total_s(self) -> float:
        return self.gate_linear_s + self.other_s + self.ifft_s + self.fft_s

    @property
    def bootstrap_s(self) -> float:
        return self.other_s + self.ifft_s + self.fft_s

    def percentages(self) -> Dict[str, float]:
        total = self.total_s
        return {
            "gate": 100.0 * self.gate_linear_s / total,
            "other": 100.0 * self.other_s / total,
            "ifft": 100.0 * self.ifft_s / total,
            "fft": 100.0 * self.fft_s / total,
        }

    @property
    def bootstrap_fraction(self) -> float:
        """Fraction of the gate latency spent in the bootstrapping."""
        return self.bootstrap_s / self.total_s

    @property
    def transform_fraction_of_bootstrap(self) -> float:
        """Fraction of the bootstrapping spent in FFT + IFFT kernels."""
        return (self.ifft_s + self.fft_s) / self.bootstrap_s


#: The gates shown in Figure 1.
FIGURE1_GATES = ("and", "or", "nand", "xor", "xnor")


def gate_latency_breakdown(
    params: TFHEParameters = PAPER_110BIT,
    gates: tuple = FIGURE1_GATES,
    unroll_factor: int = 1,
) -> List[GateBreakdown]:
    """Operation-count breakdown on the CPU baseline (deterministic model)."""
    iterations = -(-params.n // unroll_factor)
    forward_per_iteration = (params.k + 1) * params.l
    backward_per_iteration = params.k + 1

    breakdowns = []
    for gate in gates:
        # All bootstrapped two-input gates share the same bootstrapping cost;
        # XOR/XNOR do one extra scaling in the linear part.
        linear = CPU_LINEAR_SECONDS * (1.5 if gate in ("xor", "xnor") else 1.0)
        ifft = iterations * forward_per_iteration * CPU_TRANSFORM_SECONDS
        fft = iterations * backward_per_iteration * CPU_TRANSFORM_SECONDS
        other = iterations * CPU_EP_OTHER_SECONDS + CPU_EPILOGUE_SECONDS
        breakdowns.append(
            GateBreakdown(
                gate=gate, gate_linear_s=linear, other_s=other, ifft_s=ifft, fft_s=fft
            )
        )
    return breakdowns


class _TimingTransformProxy(NegacyclicTransform):
    """Wraps a transform and accumulates wall-clock time per direction."""

    def __init__(self, inner: NegacyclicTransform) -> None:
        super().__init__(inner.degree)
        self.inner = inner
        self.forward_seconds = 0.0
        self.backward_seconds = 0.0

    def forward(self, coeffs):
        start = time.perf_counter()
        result = self.inner.forward(coeffs)
        self.forward_seconds += time.perf_counter() - start
        return result

    def backward(self, spectrum):
        start = time.perf_counter()
        result = self.inner.backward(spectrum)
        self.backward_seconds += time.perf_counter() - start
        return result

    def spectrum_add(self, a, b):
        return self.inner.spectrum_add(a, b)

    def spectrum_mul(self, a, b):
        return self.inner.spectrum_mul(a, b)

    def spectrum_expand(self, spectrum, axis):
        return self.inner.spectrum_expand(spectrum, axis)

    def spectrum_contract(self, stack, operand):
        return self.inner.spectrum_contract(stack, operand)


def measure_gate_breakdown(
    params: TFHEParameters = TEST_SMALL,
    gate: str = "nand",
    transform_kind: str = "double",
    rng: SeedLike = 0,
) -> GateBreakdown:
    """Wall-clock breakdown of one gate on the functional simulator."""
    rng = make_rng(rng)
    proxy = _TimingTransformProxy(make_transform(transform_kind, params.N))
    secret, cloud = generate_keys(params, proxy, unroll_factor=1, rng=rng)
    evaluator = TFHEGateEvaluator(cloud)
    _ = evaluator.context.rotator  # warm the spectrum cache outside the timed window
    ca, cb = encrypt_bit(secret, 1, rng), encrypt_bit(secret, 0, rng)

    proxy.forward_seconds = 0.0
    proxy.backward_seconds = 0.0
    start = time.perf_counter()
    linear_probe_start = time.perf_counter()
    evaluator.constant(1)  # negligible, used to estimate per-call overhead
    linear_estimate = time.perf_counter() - linear_probe_start

    evaluator.gate(gate, ca, cb)
    total = time.perf_counter() - start

    ifft = proxy.forward_seconds
    fft = proxy.backward_seconds
    other = max(total - ifft - fft - linear_estimate, 0.0)
    return GateBreakdown(
        gate=gate, gate_linear_s=linear_estimate, other_s=other, ifft_s=ifft, fft_s=fft
    )


def render_figure1(breakdowns: List[GateBreakdown] | None = None) -> str:
    """Text rendering of Figure 1 (percentages per gate)."""
    breakdowns = breakdowns or gate_latency_breakdown()
    rows = []
    for b in breakdowns:
        pct = b.percentages()
        rows.append(
            [
                b.gate.upper(),
                f"{pct['gate']:.1f}",
                f"{pct['other']:.1f}",
                f"{pct['ifft']:.1f}",
                f"{pct['fft']:.1f}",
                f"{b.total_s * 1e3:.2f}",
            ]
        )
    return format_table(
        ["gate", "gate %", "other %", "IFFT %", "FFT %", "total (ms)"],
        rows,
        title="Figure 1: TFHE gate latency breakdown (CPU cost model).",
    )
