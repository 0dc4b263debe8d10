"""Tests for the TFHE-gate-to-DFG compiler."""

from collections import Counter

import pytest

from repro.arch.gate_compiler import compile_gate_dfg, gate_workloads
from repro.arch.ops import OpType
from repro.runtime import FheContext
from repro.tfhe.bootstrap import modswitch_batch
from repro.tfhe.gates import decrypt_bit, encrypt_bit, gate_affine_batch
from repro.tfhe.keys import generate_keys, group_indices
from repro.tfhe.lwe import LweBatch
from repro.tfhe.params import PAPER_110BIT, TEST_SMALL
from repro.tfhe.transform import make_transform


def count_by_op(dfg):
    """Node counts per operation type."""
    return Counter(node.op for node in dfg.nodes())


class TestWorkloads:
    def test_iteration_count(self):
        assert gate_workloads(PAPER_110BIT, 1).iterations == 630
        assert gate_workloads(PAPER_110BIT, 2).iterations == 315
        assert gate_workloads(PAPER_110BIT, 3).iterations == 210

    def test_bundle_patterns(self):
        assert gate_workloads(PAPER_110BIT, 1).bundle_patterns == 1
        assert gate_workloads(PAPER_110BIT, 4).bundle_patterns == 15

    def test_transform_butterflies_match_formula(self):
        # N/2 = 512-point transform: 256 butterflies per stage, 9 stages.
        assert gate_workloads(PAPER_110BIT, 1).transform_butterflies == 256 * 9

    def test_bk_bytes_grow_with_m(self):
        w1 = gate_workloads(PAPER_110BIT, 1)
        w3 = gate_workloads(PAPER_110BIT, 3)
        assert w3.bk_bytes_per_iteration > w1.bk_bytes_per_iteration

    def test_invalid_unroll_rejected(self):
        with pytest.raises(ValueError):
            gate_workloads(PAPER_110BIT, 0)


class TestCompiledGraph:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_graph_is_acyclic_and_consistent(self, m):
        dfg = compile_gate_dfg(TEST_SMALL, unroll_factor=m)
        dfg.validate()

    def test_transform_counts_per_iteration(self):
        params = TEST_SMALL
        dfg = compile_gate_dfg(params, unroll_factor=1)
        counts = count_by_op(dfg)
        iterations = params.n
        assert counts[OpType.IFFT] == iterations * (params.k + 1) * params.l
        assert counts[OpType.FFT] == iterations * (params.k + 1)

    def test_forward_to_backward_ratio_matches_paper(self):
        """The paper quotes an FFT:IFFT invocation ratio of roughly 1:3-4."""
        counts = count_by_op(compile_gate_dfg(PAPER_110BIT, unroll_factor=1))
        ratio = counts[OpType.IFFT] / counts[OpType.FFT]
        assert 2.5 <= ratio <= 4.5

    def test_bundle_nodes_scale_with_m(self):
        c2 = count_by_op(compile_gate_dfg(TEST_SMALL, unroll_factor=2))
        c3 = count_by_op(compile_gate_dfg(TEST_SMALL, unroll_factor=3))
        per_iter_2 = c2[OpType.TGSW_SCALE] / gate_workloads(TEST_SMALL, 2).iterations
        per_iter_3 = c3[OpType.TGSW_SCALE] / gate_workloads(TEST_SMALL, 3).iterations
        assert per_iter_2 == 3
        assert per_iter_3 == 7

    def test_keyswitch_optional(self):
        with_ks = count_by_op(compile_gate_dfg(TEST_SMALL, include_keyswitch=True))
        without_ks = count_by_op(compile_gate_dfg(TEST_SMALL, include_keyswitch=False))
        assert OpType.KEYSWITCH in with_ks
        assert OpType.KEYSWITCH not in without_ks

    def test_memory_traffic_optional(self):
        with_mem = count_by_op(compile_gate_dfg(TEST_SMALL, include_memory_traffic=True))
        without_mem = count_by_op(compile_gate_dfg(TEST_SMALL, include_memory_traffic=False))
        assert OpType.HBM_TRANSFER in with_mem
        assert OpType.HBM_TRANSFER not in without_mem

    def test_node_count_shrinks_with_m_initially(self):
        n1 = len(compile_gate_dfg(PAPER_110BIT, unroll_factor=1))
        n2 = len(compile_gate_dfg(PAPER_110BIT, unroll_factor=2))
        assert n2 < n1


class TestModelAgainstTheKernel:
    """:func:`gate_workloads` against the transforms one NAND really runs.

    The model charges every one of its ``iterations`` external products
    ``(k+1)·l`` forward transforms (the decomposed digits) and ``k+1``
    backward ones, per polynomial — the unit the engines count in.  The
    kernel skips a step whose rotation amounts ``ā_i`` (``Z_{2N}`` after the
    mod switch) are all zero — the step would multiply by ``X^0 − 1 = 0`` —
    so the count is the model's less those steps, computed here from the
    operands.  ``copies`` rows of the same NAND in one batch cost ``copies``
    times one row.
    """

    @staticmethod
    def _counted_nand(kind, unroll_factor, copies=1):
        params = TEST_SMALL
        secret, cloud = generate_keys(
            params, make_transform(kind, params.N), unroll_factor=unroll_factor,
            rng=80 + unroll_factor, eager=False,
        )
        ca, cb = encrypt_bit(secret, 1, rng=0), encrypt_bit(secret, 0, rng=1)
        combined = gate_affine_batch(
            "nand", LweBatch.from_samples([ca]), LweBatch.from_samples([cb])
        )
        _, bara = modswitch_batch(combined, params.N)
        idle = sum(
            1 for group in group_indices(params.n, unroll_factor) if not bara[0, list(group)].any()
        )
        engine = make_transform(kind, params.N)
        context = FheContext(cloud, engine=engine)
        context.rotator  # the key's spectra, outside the count
        engine.reset_stats()
        out = context.batch_evaluator(1).gate_rows(
            ["nand"] * copies,
            LweBatch.from_samples([ca] * copies),
            LweBatch.from_samples([cb] * copies),
        )
        assert [decrypt_bit(secret, sample) for sample in out.to_samples()] == [1] * copies
        work = gate_workloads(params, unroll_factor)
        ran = work.iterations - idle
        model = (ran * (params.k + 1) * params.l, ran * (params.k + 1))
        return (engine.stats.forward_polys, engine.stats.backward_polys), model, idle

    @pytest.mark.parametrize("kind", ["double", "approx"])
    def test_one_nand_at_m1_runs_what_the_model_counts(self, kind):
        counted, model, idle = self._counted_nand(kind, 1)
        assert idle == 1  # these operands exercise the skip
        assert counted == model == (186, 62)  # 32 steps, 1 idle: 31 × 6, 31 × 2

    @pytest.mark.parametrize("copies", [1, 4])
    @pytest.mark.parametrize("kind", ["double", "approx"])
    def test_a_batch_of_nands_counts_every_row(self, kind, copies):
        counted, _, _ = self._counted_nand(kind, 1, copies)
        assert counted == (186 * copies, 62 * copies)

    @pytest.mark.xfail(
        strict=True,
        reason="each BKU bundle still costs a forward transform per pattern: "
        "+49 % forward at m = 2, +109 % at m = 3 (ROADMAP item 2)",
    )
    @pytest.mark.parametrize("m", [2, 3])
    def test_one_nand_at_m_above_1_runs_what_the_model_counts(self, m):
        counted, model, _ = self._counted_nand("double", m)
        assert counted == model
