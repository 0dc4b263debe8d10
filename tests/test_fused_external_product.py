"""Bit-identity of the fused external product and the blind-rotation step kernel.

The fused external product (packed ``(rows, k+1, N/2)`` key tensors, one
stacked forward / ``spectrum_contract`` / stacked backward) and the one
blind-rotation step kernel built on it (``X^p·ACC`` read as a window of
``[ACC, −ACC, ACC]``, shared :class:`~repro.tfhe.tgsw.BootstrapWorkspace`
scratch) must be **bit-identical** to the per-digit-plane oracle loop for
every engine, every batch width and both rotators.  These tests pin that down
against the oracles under ``tests/`` (the external product, CMux and classical
rotation of ``tgsw_oracle``; the BKU rotator against the per-(row, col)
oracle of ``bku_oracle``; the key switch against the digit-by-digit oracle of
``keyswitch_oracle``; whole bootstraps against ``bootstrap_oracle``),
including rotation edge powers, per-row test vectors, workspace aliasing
across calls and the logical transform counters.  One sample is a one-row
batch: the kernels have no other entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from bku_oracle import rotate_batch_oracle
from bootstrap_oracle import bootstrap_oracle
from keyswitch_oracle import keyswitch_apply_batch_oracle, keyswitch_apply_oracle
from tgsw_oracle import (
    cmux_blind_rotate_oracle,
    cmux_oracle,
    external_product_oracle,
    buffer_count,
    gadget_decompose,
    poly_add,
    poly_mul_by_xk,
    poly_sub,
    rotate_rows_oracle,
    sample_extract_oracle,
    tlwe_batch_add,
    tlwe_batch_sub,
)
from repro.core.bku import UnrolledBlindRotator
from repro.tfhe.bootstrap import CmuxBlindRotator, encode_lut, make_test_vector
from repro.tfhe.gates import MU
from repro.tfhe.keys import generate_bootstrapping_key, generate_keys, generate_secret_key
from repro.tfhe.keyswitch import keyswitch_apply_batch
from repro.tfhe.lwe import (
    LweBatch,
    decrypt_digit,
    encrypt_digit,
    gate_message,
    lwe_encrypt,
)
from repro.tfhe.params import TEST_PBS, TEST_TINY, DigitEncoding
from repro.tfhe.tgsw import (
    BootstrapWorkspace,
    gadget_decompose_rows,
    tgsw_batch_cmux_rotate,
    tgsw_batch_external_product,
    tgsw_encrypt,
    tgsw_transform,
)
from repro.tfhe.tlwe import (
    TlweBatch,
    TlweSample,
    tlwe_batch_rotate,
    tlwe_batch_sample_extract,
    tlwe_encrypt,
    tlwe_key_generate,
)
from repro.tfhe import transform as transform_module
from repro.tfhe.torus import torus32_from_int64
from repro.tfhe.transform import (
    DoubleFFTNegacyclicTransform,
    NegacyclicTransform,
    available_engines,
    make_transform,
)

PARAMS = TEST_TINY
ENGINES = ("naive", "double", "approx")
#: Rotation edge powers: identity, boundary, negacyclic wrap, full cycle.
EDGE_POWERS = (0, 1, PARAMS.N - 1, PARAMS.N, PARAMS.N + 3, 2 * PARAMS.N - 1, 2 * PARAMS.N)
#: The step-kernel suite: every engine, plus ``pass-through`` (``double``'s
#: arithmetic reached through the generic ``contract_accumulate``) × the
#: one-row slice path and two gather widths, powers drawn from the window
#: edges with zero rows mixed in.
KERNEL_ENGINES = ENGINES + ("pass-through",)
KERNEL_WIDTHS = (1, 2, 7)
KERNEL_POWERS = (0, 1, PARAMS.N - 1, PARAMS.N, PARAMS.N + 1, 2 * PARAMS.N - 1)


def poly_mul_by_xk_minus_one(poly: np.ndarray, power: int) -> np.ndarray:
    """``(X^power − 1)·poly`` on the torus, by definition: the difference the
    step kernel must hand to the external product."""
    return poly_sub(poly_mul_by_xk(poly, power), poly)


def _random_batch(rng, width: int, params=PARAMS) -> TlweBatch:
    return TlweBatch(
        rng.integers(-(2**31), 2**31, (width, params.k + 1, params.N)).astype(np.int32)
    )


def _sample_equal(a, b) -> bool:
    return bool(np.array_equal(np.asarray(a.data), np.asarray(b.data)))


def _row(sample: TlweSample) -> TlweBatch:
    """A one-row view of ``sample``: how a single ciphertext enters a kernel."""
    return TlweBatch(sample.data[None])


def _lwe_row(sample) -> LweBatch:
    return LweBatch(a=sample.a[None], b=np.asarray(sample.b)[None])


def _product(selector, sample, transform, workspace=None) -> TlweSample:
    """The fused external product of one sample."""
    return tgsw_batch_external_product(selector, _row(sample), transform, workspace)[0]


def _step(selector, sample, power, transform, workspace=None) -> TlweSample:
    """One blind-rotation step of one sample."""
    return tgsw_batch_cmux_rotate(selector, _row(sample), [power], transform, workspace)[0]


@pytest.fixture(scope="module", params=ENGINES)
def setup(request):
    transform = make_transform(request.param, PARAMS.N)
    key = tlwe_key_generate(PARAMS.tlwe, rng=51)
    selector = tgsw_transform(
        tgsw_encrypt(key, 1, PARAMS.tgsw, transform, rng=52), transform
    )
    rng = np.random.default_rng(53)
    message = rng.integers(-(2**31), 2**31, PARAMS.N).astype(np.int32)
    tlwe = tlwe_encrypt(key, message, transform, rng=54)
    return transform, key, selector, tlwe


class TestExternalProductBitIdentity:
    def test_one_row_matches_oracle(self, setup):
        transform, _, selector, tlwe = setup
        fused = _product(selector, tlwe, transform)
        reference = external_product_oracle(selector, tlwe, transform)
        assert _sample_equal(fused, reference)

    def test_batch_matches_oracle_row_by_row(self, setup):
        transform, key, selector, _ = setup
        batch = TlweBatch.from_samples(
            [
                tlwe_encrypt(
                    key,
                    np.full(PARAMS.N, np.int32(1000 * (i + 1)), dtype=np.int32),
                    transform,
                    rng=60 + i,
                )
                for i in range(3)
            ]
        )
        fused = tgsw_batch_external_product(selector, batch, transform)
        reference = external_product_oracle(selector, batch, transform)
        assert np.array_equal(fused.data, reference.data)
        for i in range(batch.batch_size):
            row = external_product_oracle(selector, batch[i], transform)
            assert np.array_equal(fused.data[i], row.data)

    def test_cmux_through_the_fused_product_matches_oracle(self, setup):
        transform, _, selector, tlwe = setup
        if_true = _row(tlwe)
        if_false = TlweBatch(np.roll(if_true.data, 7, axis=-1).astype(np.int32))
        difference = tlwe_batch_sub(if_true, if_false)
        fused = tlwe_batch_add(
            tgsw_batch_external_product(selector, difference, transform), if_false
        )
        reference = cmux_oracle(selector, if_true, if_false, transform)
        assert _sample_equal(fused, reference)


class TestCmuxRotateEdgePowers:
    @pytest.mark.parametrize("power", EDGE_POWERS)
    def test_fused_rotate_step_matches_rotate_plus_cmux(self, setup, power):
        transform, _, selector, tlwe = setup
        fused = _step(selector, tlwe, power, transform)
        rotated = TlweSample(poly_mul_by_xk(tlwe.data, power))
        reference = cmux_oracle(selector, rotated, tlwe, transform)
        assert _sample_equal(fused, reference)

    def test_batch_rotate_step_matches_reference(self, setup):
        transform, key, selector, _ = setup
        batch = TlweBatch.from_samples(
            [
                tlwe_encrypt(
                    key,
                    np.full(PARAMS.N, np.int32(7000 + i), dtype=np.int32),
                    transform,
                    rng=70 + i,
                )
                for i in range(len(EDGE_POWERS))
            ]
        )
        powers = np.array(EDGE_POWERS, dtype=np.int64)
        fused = tgsw_batch_cmux_rotate(selector, batch, powers, transform)
        rotated = TlweBatch(rotate_rows_oracle(batch.data, powers))
        reference = cmux_oracle(selector, rotated, batch, transform)
        assert np.array_equal(fused.data, reference.data)


def _unrolled_rotator(engine, unroll_factor: int = 2) -> UnrolledBlindRotator:
    secret = generate_secret_key(PARAMS, rng=91)
    key = generate_bootstrapping_key(secret, engine, unroll_factor, rng=92)
    spectra = [tgsw_transform(sample, engine) for sample in key]
    return UnrolledBlindRotator(spectra, PARAMS, unroll_factor, engine)


class TestBlindRotationBitIdentity:
    def test_cmux_rotator_fused_vs_reference(self, setup):
        transform, _, _, _ = setup
        secret, cloud = generate_keys(
            PARAMS, make_transform(transform.engine_kind, PARAMS.N), rng=81
        )
        rotator = cloud.default_context().rotator
        assert isinstance(rotator, CmuxBlindRotator)
        rng = np.random.default_rng(82)
        bara = rng.integers(0, 2 * PARAMS.N, PARAMS.n, dtype=np.int64)
        acc = _random_batch(rng, 1)
        fused = rotator.rotate_batch(acc.copy(), bara[None])
        reference = cmux_blind_rotate_oracle(rotator, acc.copy(), bara[None])
        assert _sample_equal(fused, reference)

        batch_bara = rng.integers(0, 2 * PARAMS.N, (3, PARAMS.n), dtype=np.int64)
        batch = _random_batch(rng, 3)
        fused_batch = rotator.rotate_batch(batch.copy(), batch_bara)
        reference_batch = cmux_blind_rotate_oracle(rotator, batch.copy(), batch_bara)
        assert np.array_equal(fused_batch.data, reference_batch.data)

    def test_unrolled_rotator_fused_vs_reference(self, setup):
        transform, _, _, _ = setup
        engine = make_transform(transform.engine_kind, PARAMS.N)
        rotator = _unrolled_rotator(engine)
        rng = np.random.default_rng(93)
        bara = rng.integers(0, 2 * PARAMS.N, PARAMS.n, dtype=np.int64)
        acc = _random_batch(rng, 1)
        fused = rotator.rotate_batch(acc.copy(), bara[None])
        reference = rotate_batch_oracle(rotator, acc.copy(), bara[None])
        assert _sample_equal(fused, reference)

        batch_bara = rng.integers(0, 2 * PARAMS.N, (2, PARAMS.n), dtype=np.int64)
        batch = TlweBatch(
            rng.integers(-(2**31), 2**31, (2, PARAMS.k + 1, PARAMS.N)).astype(np.int32)
        )
        fused_batch = rotator.rotate_batch(batch.copy(), batch_bara)
        reference_batch = rotate_batch_oracle(rotator, batch.copy(), batch_bara)
        assert np.array_equal(fused_batch.data, reference_batch.data)


class _PassThroughEngine(NegacyclicTransform):
    """An ad-hoc engine delegating every primitive to a ``double`` engine.

    It overrides nothing of ``contract_accumulate``, so the step kernel must
    reach it through the base class's generic composition.
    """

    def __init__(self, degree: int) -> None:
        super().__init__(degree)
        self.base = DoubleFFTNegacyclicTransform(degree)
        self.stats = self.base.stats

    def forward(self, coeffs):
        return self.base.forward(coeffs)

    def backward(self, spectrum):
        return self.base.backward(spectrum)

    def spectrum_add(self, a, b):
        return self.base.spectrum_add(a, b)

    def spectrum_mul(self, a, b):
        return self.base.spectrum_mul(a, b)

    def spectrum_contract(self, stack, operand):
        return self.base.spectrum_contract(stack, operand)


def _step_engine(kind: str):
    if kind == "pass-through":
        return _PassThroughEngine(PARAMS.N)
    return make_transform(kind, PARAMS.N)


@pytest.fixture(scope="module", params=KERNEL_ENGINES)
def kernel_setup(request):
    """One engine's transform, a TGSW selector and a full cloud key."""
    transform = _step_engine(request.param)
    key = tlwe_key_generate(PARAMS.tlwe, rng=131)
    selector = tgsw_transform(
        tgsw_encrypt(key, 1, PARAMS.tgsw, transform, rng=132), transform
    )
    secret, cloud = generate_keys(PARAMS, transform, rng=133)
    return transform, selector, secret, cloud


def _edge_powers(rng, shape) -> np.ndarray:
    """Powers drawn from the window edges; zero is one draw in six."""
    return rng.choice(np.array(KERNEL_POWERS, dtype=np.int64), size=shape)


class TestStepKernel:
    """The one blind-rotation step kernel vs the reference, every width."""

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    def test_step_matches_reference_at_every_edge_power(self, kernel_setup, width):
        transform, selector, _, _ = kernel_setup
        rng = np.random.default_rng(140 + width)
        batch = _random_batch(rng, width)
        # Slide the edge powers across the rows so every row sees every edge
        # and zero / non-zero rows share a batch.
        for offset in range(len(KERNEL_POWERS)):
            powers = np.array(
                [KERNEL_POWERS[(offset + row) % len(KERNEL_POWERS)] for row in range(width)],
                dtype=np.int64,
            )
            stepped = tgsw_batch_cmux_rotate(selector, batch, powers, transform)
            reference = cmux_oracle(
                selector, TlweBatch(rotate_rows_oracle(batch.data, powers)), batch, transform
            )
            assert np.array_equal(stepped.data, reference.data), powers
            if width > 1:
                zero_rows = powers % (2 * PARAMS.N) == 0
                assert np.array_equal(stepped.data[zero_rows], batch.data[zero_rows])

    def test_one_row_step_matches_oracle_at_any_power(self, kernel_setup):
        transform, selector, _, _ = kernel_setup
        rng = np.random.default_rng(150)
        sample = TlweSample(_random_batch(rng, 1).data[0])
        for power in EDGE_POWERS + (-1, -PARAMS.N - 2, 3 * PARAMS.N + 1):
            stepped = _step(selector, sample, power, transform)
            rotated = TlweSample(poly_mul_by_xk(sample.data, power))
            reference = cmux_oracle(selector, rotated, sample, transform)
            assert _sample_equal(stepped, reference), power

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    def test_rotator_matches_reference(self, kernel_setup, width):
        _, _, _, cloud = kernel_setup
        rotator = cloud.default_context().rotator
        assert isinstance(rotator, CmuxBlindRotator)
        rng = np.random.default_rng(160 + width)
        bara = _edge_powers(rng, (width, PARAMS.n))
        bara[:, 3] = 0  # a step every row skips
        bara[0, :2] = 0  # leading zero rows inside active steps
        batch = _random_batch(rng, width)
        fused = rotator.rotate_batch(batch.copy(), bara)
        reference = cmux_blind_rotate_oracle(rotator, batch.copy(), bara)
        assert np.array_equal(fused.data, reference.data)
        for row in range(width):
            alone = rotator.rotate_batch(
                TlweBatch(batch.data[row : row + 1].copy()), bara[row : row + 1]
            )
            assert np.array_equal(alone.data[0], fused.data[row])

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    def test_gate_bootstrap_both_entry_points_agree(self, kernel_setup, width):
        _, _, secret, cloud = kernel_setup
        samples = [
            lwe_encrypt(secret.lwe_key, gate_message(i % 2), rng=170 + i)
            for i in range(width)
        ]
        refresh = cloud.default_context().batch_evaluator(1).bootstrap_rows
        vector = make_test_vector(cloud.params, int(MU))
        batched = refresh(LweBatch.from_samples(samples), vector)
        for row, sample in enumerate(samples):
            scalar = refresh(LweBatch.from_samples([sample]), vector)[0]
            assert np.array_equal(batched.a[row], scalar.a)
            assert np.int32(batched.b[row]) == np.int32(scalar.b)


class TestPerRowTestVectors:
    """Per-row LUT test vectors ride the same step kernel."""

    ENCODING = DigitEncoding(message_bits=2)
    TABLES = ([3, 0, 2, 1], [0, 1, 2, 3], [1, 1, 0, 2], [2, 3, 3, 0], [0, 0, 0, 0])

    @pytest.fixture(scope="class", params=ENGINES)
    def pbs(self, request):
        transform = make_transform(request.param, TEST_PBS.N)
        return generate_keys(TEST_PBS, transform, rng=181)

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    def test_digit_rows_match_reference(self, pbs, width):
        secret, cloud = pbs
        context = cloud.default_context()
        digits = [(3 * row + 1) % self.ENCODING.space for row in range(width)]
        tables = [self.TABLES[row % len(self.TABLES)] for row in range(width)]
        samples = [
            encrypt_digit(secret.lwe_key, digit, self.ENCODING, rng=190 + row)
            for row, digit in enumerate(digits)
        ]
        batch = LweBatch.from_samples(samples)
        rows = context.batch_evaluator(1).rows
        fused = rows([(self.ENCODING, tuple(table)) for table in tables], [batch])
        vectors = np.stack(
            [encode_lut(TEST_PBS, table, self.ENCODING.message_bits) for table in tables]
        )
        reference = bootstrap_oracle(
            batch, vectors, context.rotator, cloud.keyswitch_key, TEST_PBS
        )
        assert np.array_equal(fused.a, reference.a)
        assert np.array_equal(fused.b, reference.b)
        for row, (sample, table, digit) in enumerate(zip(samples, tables, digits)):
            scalar = rows([(self.ENCODING, tuple(table))], [LweBatch.from_samples([sample])])[0]
            assert np.array_equal(fused.a[row], scalar.a)
            assert np.int32(fused.b[row]) == np.int32(scalar.b)
            assert decrypt_digit(secret.lwe_key, scalar, self.ENCODING) == table[digit]


class TestWorkspace:
    def test_results_independent_of_workspace_reuse(self, setup):
        transform, key, selector, tlwe = setup
        workspace = BootstrapWorkspace()
        first_fresh = _product(selector, tlwe, transform)
        first_shared = _product(selector, tlwe, transform, workspace)
        assert _sample_equal(first_fresh, first_shared)
        other = tlwe_encrypt(
            key, np.full(PARAMS.N, np.int32(-12345), dtype=np.int32), transform, rng=95
        )
        second_shared = _product(selector, other, transform, workspace)
        second_fresh = _product(selector, other, transform)
        assert _sample_equal(second_fresh, second_shared)

    def test_outputs_do_not_alias_workspace_buffers(self, setup):
        transform, key, selector, tlwe = setup
        workspace = BootstrapWorkspace()
        first = _product(selector, tlwe, transform, workspace)
        snapshot = first.data.copy()
        other = tlwe_encrypt(
            key, np.full(PARAMS.N, np.int32(31337), dtype=np.int32), transform, rng=96
        )
        # A second call of the same shape reuses every workspace buffer; the
        # first result must remain untouched.
        _product(selector, other, transform, workspace)
        _step(selector, other, 5, transform, workspace)
        assert np.array_equal(first.data, snapshot)

    def test_footprint_stabilises_across_same_shape_calls(self, setup):
        transform, _, selector, tlwe = setup
        workspace = BootstrapWorkspace()
        _step(selector, tlwe, 3, transform, workspace)
        count, nbytes = buffer_count(workspace), workspace.nbytes
        assert count > 0
        assert nbytes > 0
        for power in (1, PARAMS.N - 1, PARAMS.N):
            _step(selector, tlwe, power, transform, workspace)
        assert (buffer_count(workspace), workspace.nbytes) == (count, nbytes)

    def test_scratch_memory_tracks_the_widest_batch_not_the_number_of_widths(self, setup):
        transform, _, selector, _ = setup
        rng = np.random.default_rng(113)

        def footprint_after(widths) -> int:
            workspace = BootstrapWorkspace()
            for width in widths:
                tgsw_batch_external_product(
                    selector, _random_batch(rng, width), transform, workspace
                )
            return workspace.nbytes

        # Many distinct batch widths (a long-lived server under varying
        # load), ascending, descending and shuffled: one pool per family,
        # sized to the widest — never one buffer set per width.
        widest = footprint_after([24])
        assert footprint_after(range(1, 25)) == widest
        assert footprint_after(range(24, 0, -1)) == widest
        assert footprint_after(rng.permutation(np.arange(1, 25))) == widest


def _workspace_arrays(workspace: BootstrapWorkspace):
    return workspace._pools.values()


class TestStepWorkspace:
    def test_two_widths_through_one_workspace_do_not_alias_or_clobber(self, setup):
        transform, _, selector, _ = setup
        workspace = BootstrapWorkspace()
        rng = np.random.default_rng(200)
        wide, narrow = _random_batch(rng, 3), _random_batch(rng, 1)
        wide_powers = np.array([1, 0, PARAMS.N + 1], dtype=np.int64)
        first = tgsw_batch_cmux_rotate(selector, wide, wide_powers, transform, workspace)
        first_snapshot = first.data.copy()
        second = tgsw_batch_cmux_rotate(
            selector, narrow, np.array([2 * PARAMS.N - 1]), transform, workspace
        )
        second_snapshot = second.data.copy()
        # Same shapes again: every workspace buffer of both widths is rewritten.
        tgsw_batch_cmux_rotate(selector, narrow, np.array([5]), transform, workspace)
        tgsw_batch_cmux_rotate(selector, wide, wide_powers[::-1], transform, workspace)
        for result, snapshot in ((first, first_snapshot), (second, second_snapshot)):
            assert np.array_equal(result.data, snapshot)
            assert not any(
                np.shares_memory(result.data, buffer)
                for buffer in _workspace_arrays(workspace)
            )
        assert np.array_equal(
            first.data,
            tgsw_batch_cmux_rotate(selector, wide, wide_powers, transform).data,
        )

    def test_rotator_results_survive_a_later_rotation_of_another_width(self, setup):
        transform, _, _, _ = setup
        _, cloud = generate_keys(
            PARAMS, make_transform(transform.engine_kind, PARAMS.N), rng=201
        )
        rotator = cloud.default_context().rotator
        rng = np.random.default_rng(202)
        batch, single = _random_batch(rng, 2), _random_batch(rng, 1)
        bara = rng.integers(0, 2 * PARAMS.N, (2, PARAMS.n), dtype=np.int64)
        first = rotator.rotate_batch(batch, bara)
        snapshot = first.data.copy()
        second = rotator.rotate_batch(single, bara[1:])
        assert np.array_equal(first.data, snapshot)
        for result in (first, second):
            assert not any(
                np.shares_memory(result.data, buffer)
                for buffer in _workspace_arrays(rotator.workspace)
            )

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    def test_nbytes_accounts_for_the_step_buffers(self, setup, width):
        transform, _, selector, _ = setup
        workspace = BootstrapWorkspace()
        batch = _random_batch(np.random.default_rng(203), width)
        powers = np.arange(1, width + 1, dtype=np.int64)
        tgsw_batch_cmux_rotate(selector, batch, powers, transform, workspace)
        block = width * (PARAMS.k + 1) * PARAMS.N * 4  # one (B, k+1, N) uint32 array
        decompose = block + PARAMS.l * block + block * PARAMS.l  # shifted, scratch, digits
        rotation = 3 * block  # [ACC, −ACC, ACC]
        step = decompose + rotation
        slack = 4 * BootstrapWorkspace.ALIGNMENT  # each buffer starts on a cache line
        assert step <= workspace._pools["step"].nbytes <= step + slack
        families = {"step", "transform"} if transform.engine_kind == "double" else {"step"}
        assert set(workspace._pools) == families
        before = workspace.nbytes
        tgsw_batch_cmux_rotate(selector, batch, powers[::-1], transform, workspace)
        assert workspace.nbytes == before
        # A plain external product of the same shape decomposes in its own
        # family and shares the engine's.
        tgsw_batch_external_product(selector, batch, transform, workspace)
        assert decompose <= workspace._pools["decompose"].nbytes <= decompose + slack
        assert set(workspace._pools) == families | {"decompose"}


#: Every registered engine, plus an unregistered proxy.
STEP_ENGINES = available_engines() + ("pass-through",)


class TestStepKernelAgainstTheEnginesOwnPrimitives:
    """The step is the engine's own forward → contract → backward, plus ACC.

    Whatever body ``contract_accumulate`` resolves to for an engine — the
    workspace-buffered one of ``double``, the generic composition every other
    engine takes — its output must equal that engine's public primitives
    applied to the decomposed ``(X^p − 1)·ACC``, counting ``(k+1)·l``
    forward and ``k+1`` backward polynomials per row.
    """

    @staticmethod
    def _selector(engine):
        key = tlwe_key_generate(PARAMS.tlwe, rng=230)
        return tgsw_transform(tgsw_encrypt(key, 1, PARAMS.tgsw, engine, rng=231), engine)

    @staticmethod
    def _expected(engine, selector, batch, powers):
        difference = np.stack(
            [poly_mul_by_xk_minus_one(row, int(p)) for row, p in zip(batch.data, powers)]
        )
        digits = gadget_decompose_rows(difference, PARAMS.tgsw).copy()
        spectra = engine.forward(digits)
        coeffs = engine.backward(engine.spectrum_contract(spectra, selector.tensor))
        return poly_add(torus32_from_int64(coeffs), batch.data)

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    @pytest.mark.parametrize("kind", STEP_ENGINES)
    def test_step_equals_primitives_plus_add_back(self, kind, width):
        engine = _step_engine(kind)
        selector = self._selector(engine)
        rng = np.random.default_rng(232 + width)
        batch = _random_batch(rng, width)
        powers = rng.choice(KERNEL_POWERS, width)
        expected = self._expected(engine, selector, batch, powers)
        workspace = BootstrapWorkspace()
        engine.reset_stats()
        stepped = tgsw_batch_cmux_rotate(selector, batch, powers, engine, workspace)
        rows, cols = (PARAMS.k + 1) * PARAMS.l, PARAMS.k + 1
        stats = engine.stats
        assert (stats.forward_polys, stats.backward_polys) == (rows * width, cols * width)
        assert stepped.data.dtype == np.int32
        assert np.array_equal(stepped.data, expected)
        # Same again through the warm workspace, and with a throw-away one.
        again = tgsw_batch_cmux_rotate(selector, batch, powers, engine, workspace)
        assert np.array_equal(again.data, expected)
        assert np.array_equal(
            tgsw_batch_cmux_rotate(selector, batch, powers, engine).data, expected
        )

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    def test_np_fft_fallback_is_bit_identical(self, monkeypatch, width):
        engine = make_transform("double", PARAMS.N)
        selector = self._selector(engine)
        rng = np.random.default_rng(240 + width)
        batch = _random_batch(rng, width)
        powers = rng.choice(KERNEL_POWERS[1:], width)
        fast = tgsw_batch_cmux_rotate(selector, batch, powers, engine)
        product = tgsw_batch_external_product(selector, batch, engine)
        monkeypatch.setattr(transform_module, "_pocketfft_gufuncs", None)
        assert np.array_equal(
            tgsw_batch_cmux_rotate(selector, batch, powers, engine).data, fast.data
        )
        assert np.array_equal(
            tgsw_batch_external_product(selector, batch, engine).data, product.data
        )
        assert np.array_equal(
            self._expected(engine, selector, batch, powers), fast.data
        )


class TestBootstrapCounters:
    """Engine counters per bootstrap: ``(k+1)·l`` forward and ``k+1`` backward
    polynomials per row and active step, as the per-digit-plane oracle counts."""

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    def test_counts_per_blind_rotation(self, width):
        transform = make_transform("double", PARAMS.N)
        _, cloud = generate_keys(PARAMS, transform, rng=210)
        rotator = cloud.default_context().rotator
        rng = np.random.default_rng(211)
        bara = rng.integers(1, 2 * PARAMS.N, (width, PARAMS.n), dtype=np.int64)
        bara[:, 5] = 0  # skipped by every row: no transforms at this step
        bara[0, 7] = 0  # a zero row: costs the step unless it is the only row
        active = PARAMS.n - (2 if width == 1 else 1)
        rows, cols = (PARAMS.k + 1) * PARAMS.l, PARAMS.k + 1
        batch = _random_batch(rng, width)

        def counts(run):
            transform.reset_stats()
            run()
            return transform.stats.forward_polys, transform.stats.backward_polys

        expected = (active * rows * width, active * cols * width)
        assert counts(lambda: rotator.rotate_batch(batch, bara)) == expected
        assert counts(lambda: cmux_blind_rotate_oracle(rotator, batch, bara)) == expected

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    def test_counts_per_unrolled_blind_rotation(self, width):
        """One external product per group, plus one factor polynomial per row
        and non-vanishing pattern — what the per-(row, col) oracle counts."""
        transform = make_transform("double", PARAMS.N)
        rotator = _unrolled_rotator(transform)
        rng = np.random.default_rng(212)
        bara = rng.integers(1, 2 * PARAMS.N, (width, PARAMS.n), dtype=np.int64)
        bara[:, 2:4] = 0  # every pattern of the second group vanishes
        rows, cols = (PARAMS.k + 1) * PARAMS.l, PARAMS.k + 1
        groups = len(rotator.groups)
        batch = _random_batch(rng, width)

        def counts(run):
            transform.reset_stats()
            run()
            return transform.stats.forward_polys, transform.stats.backward_polys

        fused = counts(lambda: rotator.rotate_batch(batch, bara))
        assert fused == counts(lambda: rotate_batch_oracle(rotator, batch, bara))
        assert fused == ((groups * rows + 3 * (groups - 1)) * width, groups * cols * width)


class TestLogicalCounters:
    @pytest.mark.parametrize("kind", ENGINES)
    def test_external_product_reports_per_polynomial_transforms(self, kind):
        transform = make_transform(kind, PARAMS.N)
        key = tlwe_key_generate(PARAMS.tlwe, rng=97)
        selector = tgsw_transform(
            tgsw_encrypt(key, 1, PARAMS.tgsw, transform, rng=98), transform
        )
        tlwe = tlwe_encrypt(
            key, np.full(PARAMS.N, np.int32(77), dtype=np.int32), transform, rng=99
        )
        rows = (PARAMS.k + 1) * PARAMS.l
        cols = PARAMS.k + 1
        transform.reset_stats()
        _product(selector, tlwe, transform)
        # One stacked forward/backward, counted per polynomial: one per
        # digit plane, one per output column (the Figure-1 breakdown's unit).
        assert transform.stats.forward_polys == rows
        assert transform.stats.backward_polys == cols

    def test_fused_rotate_step_counts_match_reference_counts(self):
        transform = make_transform("double", PARAMS.N)
        reference_engine = make_transform("double", PARAMS.N)
        key = tlwe_key_generate(PARAMS.tlwe, rng=101)
        selector = tgsw_transform(
            tgsw_encrypt(key, 1, PARAMS.tgsw, transform, rng=102), transform
        )
        selector_ref = tgsw_transform(
            tgsw_encrypt(key, 1, PARAMS.tgsw, reference_engine, rng=102),
            reference_engine,
        )
        tlwe = tlwe_encrypt(
            key, np.full(PARAMS.N, np.int32(5), dtype=np.int32), transform, rng=103
        )
        transform.reset_stats()
        reference_engine.reset_stats()
        _step(selector, tlwe, 9, transform)
        rotated = TlweSample(poly_mul_by_xk(tlwe.data, 9))
        cmux_oracle(selector_ref, rotated, tlwe, reference_engine)
        assert transform.stats == reference_engine.stats


class TestDigitStack:
    def test_gadget_decompose_rows_matches_per_block_reference(self):

        rng = np.random.default_rng(104)
        for batch_shape in ((), (3,)):
            data = rng.integers(
                -(2**31), 2**31, batch_shape + (PARAMS.k + 1, PARAMS.N)
            ).astype(np.int32)
            stack = gadget_decompose_rows(data, PARAMS.tgsw)
            for block in range(PARAMS.k + 1):
                digits = gadget_decompose(data[..., block, :], PARAMS.tgsw)
                for j in range(PARAMS.l):
                    row = block * PARAMS.l + j
                    assert np.array_equal(stack[row], digits[j])

    def test_step_kernel_decomposes_the_rotated_difference(self):
        # The step hands ``window − ACC`` to the fused external product, so a
        # step must equal "external product of (X^p − 1)·ACC, plus ACC".
        transform = make_transform("double", PARAMS.N)
        key = tlwe_key_generate(PARAMS.tlwe, rng=114)
        selector = tgsw_transform(
            tgsw_encrypt(key, 1, PARAMS.tgsw, transform, rng=115), transform
        )
        rng = np.random.default_rng(105)
        data = rng.integers(-(2**31), 2**31, (PARAMS.k + 1, PARAMS.N)).astype(np.int32)
        for power in EDGE_POWERS:
            stepped = _step(selector, TlweSample(data), power, transform)
            difference = TlweSample(poly_mul_by_xk_minus_one(data, power))
            product = _product(selector, difference, transform)
            assert np.array_equal(stepped.data, poly_add(product.data, data)), power


class TestVectorisedTlwe:
    @pytest.mark.parametrize("power", EDGE_POWERS)
    def test_tlwe_batch_rotate_matches_per_row_loop(self, power):
        rng = np.random.default_rng(106)
        batch = _random_batch(rng, 3)
        powers = np.array([power, -power, power + 5], dtype=np.int64)
        vectorised = tlwe_batch_rotate(batch, powers)
        assert vectorised.data.dtype == np.int32
        assert np.array_equal(vectorised.data, rotate_rows_oracle(batch.data, powers))
        assert not np.shares_memory(vectorised.data, batch.data)

    @pytest.mark.parametrize("index", [0, 1, PARAMS.N - 1])
    def test_batch_sample_extract_matches_scalar(self, index):
        rng = np.random.default_rng(111)
        batch = TlweBatch(
            rng.integers(-(2**31), 2**31, (3, PARAMS.k + 1, PARAMS.N)).astype(np.int32)
        )
        extracted = tlwe_batch_sample_extract(batch, index=index)
        for i in range(batch.batch_size):
            scalar = sample_extract_oracle(batch[i], index=index)
            assert np.array_equal(extracted.a[i], scalar.a)
            assert np.int32(extracted.b[i]) == np.int32(scalar.b)


class TestKeyswitchGather:
    @pytest.fixture(scope="class")
    def cloud(self):
        return generate_keys(PARAMS, make_transform("naive", PARAMS.N), rng=112)

    def test_one_shot_gather_matches_per_level_reference(self, cloud):
        secret, cloud_key = cloud
        for i in range(4):
            sample = lwe_encrypt(
                secret.extracted_key, gate_message(i % 2), rng=120 + i
            )
            fused = keyswitch_apply_batch(cloud_key.keyswitch_key, _lwe_row(sample))[0]
            reference = keyswitch_apply_oracle(cloud_key.keyswitch_key, sample)
            assert np.array_equal(fused.a, reference.a)
            assert np.int32(fused.b) == np.int32(reference.b)

    def test_chunked_batch_matches_scalar_and_reference(self, cloud):
        secret, cloud_key = cloud
        samples = [
            lwe_encrypt(secret.extracted_key, gate_message(i % 2), rng=200 + i)
            for i in range(70)  # > the 64-row chunk, exercises the chunked path
        ]
        batch = LweBatch.from_samples(samples)
        switched = keyswitch_apply_batch(cloud_key.keyswitch_key, batch)
        reference = keyswitch_apply_batch_oracle(cloud_key.keyswitch_key, batch)
        assert np.array_equal(switched.a, reference.a)
        assert np.array_equal(switched.b, reference.b)
        for i, sample in enumerate(samples):
            alone = keyswitch_apply_batch(cloud_key.keyswitch_key, _lwe_row(sample))[0]
            assert np.array_equal(switched.a[i], alone.a)
            assert np.int32(switched.b[i]) == np.int32(alone.b)
