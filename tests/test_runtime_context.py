"""FheContext: spectrum-cached cloud keys and the context-backed evaluators.

The two load-bearing properties of the runtime refactor:

* gate outputs through a context (cached key spectra) are **bit-identical**
  to the oracle bootstrap of ``bootstrap_oracle`` against a bootstrapping
  key re-transformed from its coefficient-domain material for every gate —
  checked exhaustively over all ten gate kinds and all four input
  combinations;
* each cloud-key TGSW sample is ``forward()``-transformed **exactly once per
  context**, proven by the engine's invocation counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from bootstrap_oracle import bootstrap_oracle
from repro.runtime import FheContext
from repro.tfhe.bootstrap import CmuxBlindRotator, make_test_vector
from repro.tfhe.circuits import decrypt_integer, encrypt_integer
from repro.tfhe.executor import CircuitExecutor
from repro.tfhe.gates import (
    MU,
    PLAINTEXT_GATES,
    TFHEGateEvaluator,
    decrypt_bit,
    encrypt_bit,
)
from repro.tfhe.keys import TFHECloudKey, generate_keys
from repro.tfhe.keyswitch import KeySwitchKey
from repro.tfhe.lwe import LweBatch, lwe_add, lwe_encrypt_trivial, lwe_negate, lwe_scale
from repro.tfhe.netlist import adder_netlist
from repro.tfhe.params import PAPER_110BIT, TEST_TINY
from repro.tfhe.tgsw import TgswSample, tgsw_transform
from repro.tfhe.transform import DoubleFFTNegacyclicTransform, NaiveNegacyclicTransform


def _uncached_gate(cloud, name, ca, cb):
    """Reference path: re-transform the key material and bootstrap through the oracle."""
    engine = NaiveNegacyclicTransform(cloud.params.N)
    rotator = CmuxBlindRotator(
        [tgsw_transform(sample, engine) for sample in cloud.bootstrapping_key],
        engine,
    )
    from repro.tfhe.gates import MIXED_GATE_SPECS

    offset, coef_a, coef_b = MIXED_GATE_SPECS[name]
    combined = lwe_encrypt_trivial(ca.dimension, np.int32(offset * int(MU)))
    combined = lwe_add(combined, lwe_scale(coef_a, ca))
    combined = lwe_add(combined, lwe_scale(coef_b, cb))
    return bootstrap_oracle(
        LweBatch.from_samples([combined]),
        make_test_vector(cloud.params, int(MU)),
        rotator,
        cloud.keyswitch_key,
        cloud.params,
    )[0]


class TestCachedSpectraBitIdentical:
    @pytest.mark.parametrize("name", sorted(PLAINTEXT_GATES))
    def test_all_gates_all_inputs_match_uncached_path(self, name, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        context = FheContext(cloud, engine=NaiveNegacyclicTransform(cloud.params.N))
        evaluator = TFHEGateEvaluator(context)
        for bit_a in (0, 1):
            for bit_b in (0, 1):
                ca = encrypt_bit(secret, bit_a, rng=11 + bit_a)
                cb = encrypt_bit(secret, bit_b, rng=17 + bit_b)
                cached = evaluator.gate(name, ca, cb)
                uncached = _uncached_gate(cloud, name, ca, cb)
                assert np.array_equal(cached.a, uncached.a)
                assert np.int32(cached.b) == np.int32(uncached.b)
                assert decrypt_bit(secret, cached) == PLAINTEXT_GATES[name](
                    bit_a, bit_b
                )


class TestSpectrumCacheCounters:
    def test_classical_key_rows_transformed_exactly_once(self):
        params = TEST_TINY
        engine = DoubleFFTNegacyclicTransform(params.N)
        secret, cloud = generate_keys(params, engine, unroll_factor=1, rng=31)

        fresh = DoubleFFTNegacyclicTransform(params.N)
        context = FheContext(cloud, engine=fresh)
        assert fresh.stats.forward_polys == 0  # lazily built

        _ = context.rotator
        # Every polynomial of all n key rows is cached now: (k+1)·l TLWE
        # rows of k+1 polynomials each per TGSW sample.
        rows = (params.k + 1) * params.l
        key_polys = len(cloud.bootstrapping_key) * rows * (params.k + 1)
        assert fresh.stats.forward_polys == key_polys
        assert context.cached_tgsw_samples == params.n

        evaluator = TFHEGateEvaluator(context)
        per_gate = params.n * rows  # decomposition IFFTs, one per digit plane
        ca, cb = encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 0, rng=2)
        evaluator.nand(ca, cb)
        assert fresh.stats.forward_polys == key_polys + per_gate
        evaluator.xor(ca, cb)
        # The second gate adds only its own decomposition transforms — the
        # cloud-key rows were transformed exactly once for this context.
        assert fresh.stats.forward_polys == key_polys + 2 * per_gate

    def test_unrolled_key_rows_transformed_exactly_once(self):
        params = TEST_TINY
        engine = NaiveNegacyclicTransform(params.N)
        secret, cloud = generate_keys(params, engine, unroll_factor=2, rng=32)

        fresh = NaiveNegacyclicTransform(params.N)
        context = FheContext(cloud, engine=fresh)
        _ = context.rotator
        key_samples = len(cloud.bootstrapping_key)
        assert key_samples == 3 * ((params.n + 1) // 2)  # (2^2-1) per group
        # Every polynomial of every key sample, plus the identity gadget h.
        per_sample = (params.k + 1) * params.l * (params.k + 1)
        assert fresh.stats.forward_polys == (key_samples + 1) * per_sample
        baseline = fresh.stats.forward_polys

        evaluator = TFHEGateEvaluator(context)
        ca, cb = encrypt_bit(secret, 1, rng=3), encrypt_bit(secret, 1, rng=4)
        out = evaluator.and_(ca, cb)
        first_gate = fresh.stats.forward_polys - baseline
        out2 = evaluator.and_(ca, cb)
        second_gate = fresh.stats.forward_polys - baseline - first_gate
        assert first_gate == second_gate  # no hidden key re-transforms
        assert decrypt_bit(secret, out) == 1
        assert np.array_equal(out.a, out2.a)


class TestContextSurface:
    def test_default_context_is_memoised(self, tiny_keys_naive):
        _, cloud = tiny_keys_naive
        assert cloud.default_context() is cloud.default_context()
        assert cloud.default_context().rotator is cloud.default_context().rotator

    def test_evaluators_share_the_context(self, tiny_keys_naive):
        _, cloud = tiny_keys_naive
        context = cloud.default_context()
        assert TFHEGateEvaluator(cloud).context is context
        assert TFHEGateEvaluator(context).context is context
        assert context.batch_evaluator(4) is context.batch_evaluator(4)
        assert context.batch_evaluator(4) is not context.batch_evaluator(8)

    def test_executor_for_context_uses_cached_evaluator(self, tiny_keys_naive):
        _, cloud = tiny_keys_naive
        context = cloud.default_context()
        executor = CircuitExecutor.for_context(context, 4)
        assert executor.evaluator is context.batch_evaluator(4)

    def test_evaluator_dispatch_does_not_build_the_cache(self):
        # Building evaluators (and a circuit executor) must stay free of the
        # spectrum-cache side effect: a server doing only linear operations
        # never pays the key-transform cost.
        secret, context = FheContext.generate(
            TEST_TINY, NaiveNegacyclicTransform(TEST_TINY.N), rng=8
        )
        evaluator = TFHEGateEvaluator(context)
        evaluator.not_(evaluator.constant(1))
        CircuitExecutor.for_context(context, 1)
        assert not context.spectra_cached

    def test_generate_classmethod(self):
        secret, context = FheContext.generate(
            TEST_TINY, NaiveNegacyclicTransform(TEST_TINY.N), rng=7
        )
        assert not context.spectra_cached  # lazy until first gate
        out = TFHEGateEvaluator(context).or_(
            encrypt_bit(secret, 0, rng=1), encrypt_bit(secret, 1, rng=2)
        )
        assert context.spectra_cached
        assert decrypt_bit(secret, out) == 1

    def test_circuits_run_on_a_context(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        context = cloud.default_context()
        a = encrypt_integer(secret, 5, 4, rng=41)
        b = encrypt_integer(secret, 6, 4, rng=42)
        executor = CircuitExecutor.for_context(context, 1)
        total = executor.run_samples(adder_netlist(4), {"a": a, "b": b})["sum"]
        assert decrypt_integer(secret, total) == 11

    def test_context_bootstrap_matches_evaluator(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        context = cloud.default_context()
        ca, cb = encrypt_bit(secret, 1, rng=5), encrypt_bit(secret, 1, rng=6)
        combined = lwe_encrypt_trivial(ca.dimension, np.int32(int(MU)))
        combined = lwe_add(lwe_add(combined, lwe_negate(ca)), lwe_negate(cb))
        vector = make_test_vector(cloud.params, int(MU))
        refresh = context.batch_evaluator(1).bootstrap_rows
        direct = refresh(LweBatch.from_samples([combined]), vector)[0]
        via_gate = TFHEGateEvaluator(context).nand(ca, cb)
        assert np.array_equal(direct.a, via_gate.a)
        assert np.int32(direct.b) == np.int32(via_gate.b)

    def test_engine_degree_mismatch_rejected(self, tiny_keys_naive):
        _, cloud = tiny_keys_naive
        with pytest.raises(ValueError, match="ring degree"):
            FheContext(cloud, engine=NaiveNegacyclicTransform(2 * cloud.params.N))

    def test_key_without_spec_needs_explicit_engine(self):
        params = TEST_TINY
        engine = NaiveNegacyclicTransform(params.N)
        _, cloud = generate_keys(params, engine, rng=9)
        cloud.transform_spec = None
        cloud._engine = None
        cloud._context = None
        with pytest.raises(ValueError, match="transform spec"):
            FheContext(cloud)
        # but an explicit engine still works
        FheContext(cloud, engine=engine)

    def test_release_drops_derived_state_and_rebuilds_lazily(self):
        engine = DoubleFFTNegacyclicTransform(TEST_TINY.N)
        secret, cloud = generate_keys(TEST_TINY, engine, rng=33, eager=False)
        context = FheContext(cloud)
        ca, cb = encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
        before = TFHEGateEvaluator(context).nand(ca, cb)
        workspace, evaluator = context.workspace, context.batch_evaluator(1)
        engine = context.engine

        context.release()
        assert not context.spectra_cached and context.cached_tgsw_samples == 0
        assert context.workspace is not workspace
        assert context.batch_evaluator(1) is not evaluator
        assert context.engine is engine  # a release is not a failover

        after = TFHEGateEvaluator(context).nand(ca, cb)  # same contract as after failover()
        assert context.cached_tgsw_samples == TEST_TINY.n
        assert np.array_equal(after.a, before.a) and np.int32(after.b) == np.int32(before.b)

    def test_a_paper_context_is_154_927_104_bytes(self):
        """TGSW coefficients 30 965 760 + key-switching table 62 029 824 (no
        digit-0 samples) + spectra 61 931 520, on a zero key of paper shape."""
        params = PAPER_110BIT
        n_in, ks = params.k * params.N, params.keyswitch
        rows = (params.k + 1) * params.l
        coefficients = np.zeros((params.n, rows, params.k + 1, params.N), dtype=np.int32)
        cloud = TFHECloudKey(
            params=params,
            keyswitch_key=KeySwitchKey(
                params=ks,
                data=np.zeros((n_in, ks.length, ks.base - 1, params.n + 1), dtype=np.int32),
                input_dimension=n_in,
                output_dimension=params.n,
            ),
            unroll_factor=1,
            transform_spec=None,
            bootstrapping_key=[TgswSample(data=row, params=params.tgsw) for row in coefficients],
        )
        context = FheContext(cloud, engine=DoubleFFTNegacyclicTransform(params.N))
        assert context.resident_bytes == 30_965_760 + 62_029_824
        context.rotator
        assert context.resident_bytes == 154_927_104

    def test_resident_bytes_is_the_shape_arithmetic(self):
        engine = DoubleFFTNegacyclicTransform(TEST_TINY.N)
        _, cloud = generate_keys(TEST_TINY, engine, rng=34, eager=False)
        context = FheContext(cloud)
        key_bytes = cloud.keyswitch_key.data.nbytes + sum(
            sample.data.nbytes for sample in cloud.bootstrapping_key
        )
        assert context.resident_bytes == key_bytes  # no spectra yet
        spectra = sum(s.tensor.nbytes for s in context.rotator.bootstrapping_key)
        assert context.resident_bytes == key_bytes + spectra
        context.release()
        assert context.resident_bytes == key_bytes
