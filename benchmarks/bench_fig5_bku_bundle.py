"""Figures 4-5: bootstrapping-key unrolling truth table and bundle construction."""

from repro.arch.memory import bootstrapping_key_bytes
from repro.core.bku import UnrolledBlindRotator
from repro.tfhe.keys import generate_bootstrapping_key, generate_secret_key, indicator_message
from repro.tfhe.params import PAPER_110BIT, TEST_TINY
from repro.tfhe.tgsw import tgsw_transform
from repro.tfhe.transform import NaiveNegacyclicTransform
from repro.utils.tables import format_table
import numpy as np


def test_fig4_truth_table(benchmark, record_result):
    """Figure 4: which indicator (and therefore which key) each bit pattern selects."""
    benchmark(lambda: [indicator_message([1, 0], p) for p in range(1, 4)])
    rows = []
    for s1 in (0, 1):
        for s2 in (0, 1):
            selected = [
                pattern
                for pattern in range(1, 4)
                if indicator_message([s1, s2], pattern) == 1
            ]
            term = {1: "X^-a(2i-1)", 2: "X^-a(2i)", 3: "X^-a(2i-1)-a(2i)"}
            rows.append(
                [s1, s2, selected[0] if selected else 0, term.get(selected[0], "1") if selected else "1"]
            )
    text = format_table(
        ["s_2i-1", "s_2i", "selected key", "rotation term"],
        rows,
        title="Figure 4: the truth table of X^(-a_2i-1 s_2i-1 - a_2i s_2i).",
    )
    record_result("fig4_truth_table", text)


def test_fig5_bundle_construction(benchmark, record_result):
    """Times one bundle construction + external product at m = 2 (tiny ring)."""
    params = TEST_TINY
    transform = NaiveNegacyclicTransform(params.N)
    secret = generate_secret_key(params, rng=1)
    key = generate_bootstrapping_key(secret, transform, 2, rng=2)
    spectra = [tgsw_transform(sample, transform) for sample in key]
    rotator = UnrolledBlindRotator(spectra, params, 2, transform)
    bara = (np.arange(params.n, dtype=np.int64) % (2 * params.N))[None]  # one row

    bundle = benchmark(rotator.build_bundle, rotator.groups[0], bara)
    assert bundle.rows == (params.k + 1) * params.l

    rows = [
        [m, (1 << m) - 1, f"{bootstrapping_key_bytes(PAPER_110BIT, m, transformed=False) / 2**20:.1f} MiB"]
        for m in (1, 2, 3, 4, 5)
    ]
    text = format_table(
        ["m", "TGSW keys per group", "bootstrapping key size (110-bit params)"],
        rows,
        title="Figure 5: BKU key material grows as 2^m - 1 per group of m key bits.",
    )
    record_result("fig5_bku_bundle", text)
