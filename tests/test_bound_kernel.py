"""The bound step kernel: what a workspace caches per shape, and what it must not.

A blind rotation fetches one kernel object per ``(B, k+1, N)`` shape,
parameter set and engine from its :class:`BootstrapWorkspace` and calls it per
step.  These tests pin the binding itself — reuse across interleaved widths
and a pool regrowth, isolation between contexts and between engines sharing a
workspace, the engine seam under an injected mid-rotation fault — against
rotations through fresh workspaces, which share nothing.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from tgsw_oracle import buffer_count
from repro.runtime.chaos import FlakyEngine
from repro.runtime.context import FheContext
from repro.runtime.scheduler import BatchScheduler
from repro.tfhe.bootstrap import CmuxBlindRotator
from repro.tfhe.gates import encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import LweBatch
from repro.tfhe.params import TEST_TINY
from repro.tfhe.tgsw import (
    BootstrapWorkspace,
    _StepKernel,
    tgsw_batch_external_product,
)
from repro.tfhe.tlwe import TlweBatch
from repro.tfhe.transform import (
    DoubleFFTNegacyclicTransform,
    EngineFault,
    available_engines,
    make_transform,
)

PARAMS = TEST_TINY
ROWS, COLS = (PARAMS.k + 1) * PARAMS.l, PARAMS.k + 1


@pytest.fixture(scope="module")
def keys():
    return generate_keys(PARAMS, DoubleFFTNegacyclicTransform(PARAMS.N), rng=700, eager=False)


def _inputs(width, seed):
    rng = np.random.default_rng(seed)
    accumulators = TlweBatch(
        rng.integers(-(2**31), 2**31, (width, PARAMS.k + 1, PARAMS.N)).astype(np.int32)
    )
    bara = rng.integers(0, 2 * PARAMS.N, (width, PARAMS.n), dtype=np.int64)
    return accumulators, bara


def _fresh(rotator, accumulators, bara):
    """The same rotation through a workspace nothing else has touched."""
    clean = CmuxBlindRotator(rotator.bootstrapping_key, rotator.transform)
    return clean.rotate_batch(accumulators, bara).data


class TestKernelReuse:
    def test_interleaved_widths_and_a_regrowth_match_fresh_workspaces(self, keys):
        _, cloud = keys
        rotator = FheContext(cloud).rotator
        workspace = rotator.workspace
        pools = []
        for turn, width in enumerate((1, 32, 1, 7, 40, 7, 1)):
            accumulators, bara = _inputs(width, seed=710 + turn)
            got = rotator.rotate_batch(accumulators, bara).data
            assert np.array_equal(got, _fresh(rotator, accumulators, bara))
            assert not any(np.shares_memory(got, pool) for pool in workspace._pools.values())
            pools.append(dict(workspace._pools))
        # 1 → 32 and 7 → 40 outgrew the pools; every other turn ran in place.
        grew = [after["step"] is not before["step"] for before, after in zip(pools, pools[1:])]
        assert grew == [True, False, False, True, False, False]

    def test_the_kernel_is_fetched_not_rebuilt(self, keys):
        _, cloud = keys
        rotator = FheContext(cloud).rotator
        accumulators, bara = _inputs(3, seed=720)
        rotator.rotate_batch(accumulators, bara)
        fetch = lambda params=PARAMS.tgsw: _StepKernel.fetch(
            rotator.workspace, rotator.transform, params, accumulators.data.shape
        )
        kernel = fetch()
        rotator.rotate_batch(accumulators, bara)
        assert fetch() is kernel
        # An equal parameter set deserialised elsewhere finds the same kernel.
        twin = type(PARAMS.tgsw)(PARAMS.tgsw.decomp_length, PARAMS.tgsw.decomp_base_bits)
        assert twin is not PARAMS.tgsw
        assert fetch(twin) is kernel

    def test_a_regrowth_leaves_no_kernel_pinning_the_outgrown_pool(self, keys):
        _, cloud = keys
        rotator = FheContext(cloud).rotator
        workspace = rotator.workspace
        rotator.rotate_batch(*_inputs(2, seed=730))
        outgrown = weakref.ref(workspace._pools["transform"])
        steps = workspace._pools["step"]
        # A wider external product regrows "transform" but not "step": the
        # step kernel, bound to views of the old transform pool, must go too.
        wide, _ = _inputs(16, seed=731)
        selector = rotator.bootstrapping_key[0]
        tgsw_batch_external_product(selector, wide, rotator.transform, workspace)
        assert workspace._pools["step"] is steps
        gc.collect()
        assert outgrown() is None
        accumulators, bara = _inputs(2, seed=732)
        got = rotator.rotate_batch(accumulators, bara).data
        assert np.array_equal(got, _fresh(rotator, accumulators, bara))

    def test_engines_sharing_a_workspace_keep_their_own_kernels(self, keys):
        _, cloud = keys
        workspace = BootstrapWorkspace()
        key = FheContext(cloud).rotator.bootstrapping_key
        first, second = (DoubleFFTNegacyclicTransform(PARAMS.N) for _ in range(2))
        rotators = [CmuxBlindRotator(key, engine, workspace) for engine in (first, second)]
        accumulators, bara = _inputs(2, seed=740)
        active = int(bara.any(axis=0).sum())
        want = _fresh(rotators[0], accumulators, bara)
        for rotator in rotators + rotators:
            rotator.transform.reset_stats()
            assert np.array_equal(rotator.rotate_batch(accumulators, bara).data, want)
            # Each engine counted its own rotation, not its neighbour's.
            assert rotator.transform.stats.forward_polys == active * ROWS * 2
        assert buffer_count(workspace) == 2  # one "step" pool, one "transform" pool


def test_two_contexts_alternating_calls_never_see_each_others_buffers(keys):
    _, cloud = keys
    contexts = [FheContext(cloud), FheContext(cloud)]
    results = [[], []]
    for turn in range(6):
        side, rotation = turn % 2, turn // 2
        accumulators, bara = _inputs((1, 5, 2)[rotation], seed=750 + rotation)
        results[side].append(contexts[side].rotator.rotate_batch(accumulators, bara).data)
    # Both sides ran the same three rotations, interleaved.
    for mine, theirs in zip(*results):
        assert np.array_equal(mine, theirs)
    pools = [list(context.workspace._pools.values()) for context in contexts]
    assert not any(np.shares_memory(a, b) for a in pools[0] for b in pools[1])


class TestEngineSeamUnderFaults:
    """Every step still crosses ``contract_accumulate`` of whatever engine (or
    proxy) the rotator holds, one call per step, in order."""

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("fault_step", [1, 5, PARAMS.n])
    def test_a_fault_on_the_kth_step_raises_from_inside_the_rotation(
        self, keys, width, fault_step
    ):
        _, cloud = keys
        base = DoubleFFTNegacyclicTransform(PARAMS.N)
        key = FheContext(cloud, base).rotator.bootstrapping_key
        accumulators, bara = _inputs(width, seed=760)
        bara[:, :] = np.maximum(bara, 1)  # every step active
        want = CmuxBlindRotator(key, base).rotate_batch(accumulators, bara).data
        flaky = FlakyEngine(base, fail_on_call=fault_step)
        rotator = CmuxBlindRotator(key, flaky)
        base.reset_stats()
        with pytest.raises(EngineFault, match=f"transform call {fault_step}"):
            rotator.rotate_batch(accumulators, bara)
        assert flaky.calls == fault_step
        # The steps that ran are accounted for, the faulted one is not.
        ran = fault_step - 1
        stats = base.stats
        assert (stats.forward_polys, stats.backward_polys) == (
            ran * ROWS * width, ran * COLS * width
        )
        # One-shot fault: the same rotator, workspace and kernel then complete.
        base.reset_stats()
        assert np.array_equal(rotator.rotate_batch(accumulators, bara).data, want)
        assert flaky.calls == fault_step + PARAMS.n
        assert stats.forward_polys == PARAMS.n * ROWS * width

    def test_scheduler_failover_replays_a_mid_rotation_fault_bit_identically(self, keys):
        secret, cloud = keys
        operands = [
            (encrypt_bit(secret, a, rng=770 + 2 * i), encrypt_bit(secret, b, rng=771 + 2 * i))
            for i, (a, b) in enumerate([(1, 1), (1, 0), (0, 1), (0, 0)])
        ]
        scheduler = BatchScheduler()
        scheduler.register_client("chaos", cloud)
        context = scheduler.client_context("chaos")
        # n forwards build the spectrum cache; the fault lands on step 6.
        flaky = FlakyEngine(context.engine, fail_on_call=PARAMS.n + 6)
        context.engine = flaky
        faulted_workspace = context.workspace
        session = scheduler.session("chaos")
        handles = [session.submit_gate("nand", ca, cb) for ca, cb in operands]
        scheduler.flush()
        assert flaky.faults_raised == 1 and flaky.calls == PARAMS.n + 6
        assert scheduler.stats.engine_failovers == 1
        # The same kind, on a fresh engine object.
        assert context.engine is not flaky and context.engine.engine_kind == "double"
        assert context.workspace is not faulted_workspace
        assert faulted_workspace.nbytes == 0  # released, not left to the GC
        want = FheContext(cloud).batch_evaluator(len(operands)).gate_rows(
            ["nand"] * len(operands),
            LweBatch.from_samples([ca for ca, _ in operands]),
            LweBatch.from_samples([cb for _, cb in operands]),
        )
        for row, handle in enumerate(handles):
            got = handle.result()
            assert np.array_equal(got.a, want.a[row])
            assert np.int32(got.b) == want.b[row]


@pytest.mark.parametrize("kind", available_engines())
def test_a_released_context_frees_its_workspace_without_a_gc_pass(kind):
    """The base binder's closure points back at the workspace it was bound in;
    ``release`` clears the workspace so that cycle does not hold the pools."""
    engine = make_transform(kind, PARAMS.N)
    _, cloud = generate_keys(PARAMS, engine, rng=780, eager=False)
    context = FheContext(cloud, engine)
    gc.collect()
    gc.disable()
    try:
        context.rotator.rotate_batch(*_inputs(2, seed=781))
        pools = [weakref.ref(pool) for pool in context.workspace._pools.values()]
        assert pools
        context.release()
        assert all(ref() is None for ref in pools)
    finally:
        gc.enable()

