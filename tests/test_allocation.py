"""The bootstrap hot path allocates its result and nothing that scales with work.

``tracemalloc`` sees NumPy's data allocations, so a traced peak is the most
memory a kernel held at once beyond what existed when tracing started.  These
tests pin the three places scratch used to scale: the key switch's
``(B, n_in·t, n_out + 1)`` gather, the blind-rotation step's per-step
temporaries, and one workspace buffer set per batch width — and that the
digit-row callers of the bootstrap run in that same workspace.  Beside them,
under ``sys.setprofile``, the per-step Python a warm rotation makes around its
ufuncs: the bound step kernel is fetched once per call, not per step.
"""

from __future__ import annotations

import collections
import sys
import tracemalloc

import numpy as np
import pytest

from repro.runtime.context import FheContext
from repro.tfhe import keyswitch
from repro.tfhe.bootstrap import CmuxBlindRotator
from repro.tfhe.gates import encrypt_bit_batch
from repro.tfhe.integers import RadixEvaluator, encrypt_radix
from repro.tfhe.keys import generate_keys
from repro.tfhe.keyswitch import KeySwitchKey, keyswitch_apply_batch
from repro.tfhe.lwe import LweBatch, encrypt_digit
from repro.tfhe.params import PAPER_110BIT, TEST_PBS, TEST_SMALL, TEST_TINY, DigitEncoding
from repro.tfhe.tgsw import BootstrapWorkspace
from repro.tfhe.tlwe import TlweBatch
from repro.tfhe.transform import make_transform


#: A ufunc call that cannot take NumPy's contiguous fast path mallocs iterator
#: buffers for its duration: at most ``bufsize`` elements per operand however
#: large the arrays are, so a constant allowance covers them.
UFUNC_BUFFERS = 3 * 16 * np.getbufsize()


def _traced_peak(run) -> int:
    """Peak bytes ``run()`` held beyond the memory live when it started."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - before


@pytest.fixture(scope="module")
def paper_shaped_key() -> KeySwitchKey:
    """A ``paper-110bit``-shaped key-switching key (zeros: 62 MB of untouched
    pages — the accumulation's memory behaviour does not depend on the values)."""
    params = PAPER_110BIT
    n_in, n_out = params.k * params.N, params.n
    ks = params.keyswitch
    data = np.zeros((n_in, ks.length, ks.base - 1, n_out + 1), dtype=np.int32)
    return KeySwitchKey(params=ks, data=data, input_dimension=n_in, output_dimension=n_out)


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("with_workspace", [False, True], ids=["own-block", "workspace"])
def test_keyswitch_peak_is_a_block_plus_rows_per_ciphertext(
    paper_shaped_key, batch, with_workspace
):
    ks = paper_shaped_key
    n_in, width = ks.input_dimension, ks.output_dimension + 1
    rng = np.random.default_rng(300 + batch)
    extracted = LweBatch(
        a=rng.integers(-(2**31), 2**31, (batch, n_in)).astype(np.int32),
        b=rng.integers(-(2**31), 2**31, batch).astype(np.int32),
    )
    workspace = BootstrapWorkspace() if with_workspace else None
    keyswitch_apply_batch(ks, extracted, workspace)  # warm: table view, workspace block
    peak = _traced_peak(lambda: keyswitch_apply_batch(ks, extracted, workspace))
    block = 0 if with_workspace else 4 * keyswitch.KEYSWITCH_BLOCK_WORDS
    # Per ciphertext: the flat row indices (n_in·t intp) and a handful of
    # (n_out + 1)-word rows (total, partial, result) — never the ≈ 20 MB
    # (n_in·t, n_out + 1) gather the one-shot `take` materialised.
    per_ciphertext = 8 * n_in * ks.params.length + 8 * 4 * width + 8 * n_in
    bound = block + batch * per_ciphertext + UFUNC_BUFFERS
    assert peak <= bound
    assert bound < batch * 4 * n_in * ks.params.length * width // 10


def _rotation_inputs(params, steps_key, width, seed):
    rng = np.random.default_rng(seed)
    accumulators = TlweBatch(
        rng.integers(-(2**31), 2**31, (width, params.k + 1, params.N)).astype(np.int32)
    )
    bara = rng.integers(1, 2 * params.N, (width, len(steps_key)), dtype=np.int64)
    return accumulators, bara


@pytest.mark.parametrize("width", [1, 96])
def test_rotate_batch_peak_is_a_few_accumulators_whatever_the_step_count(width):
    params = TEST_SMALL
    transform = make_transform("double", params.N)
    _, cloud = generate_keys(params, transform, rng=310)
    key = FheContext(cloud).rotator.bootstrapping_key
    accumulator_bytes = width * (params.k + 1) * params.N * 4
    peaks = []
    for steps in (len(key) // 8, len(key)):
        rotator = CmuxBlindRotator(key[:steps], transform)
        accumulators, bara = _rotation_inputs(params, key[:steps], width, seed=311)
        rotator.rotate_batch(accumulators, bara)  # warm the workspace pools
        peaks.append(_traced_peak(lambda: rotator.rotate_batch(accumulators, bara)))
    short, long = peaks
    # Live at once: the step's result, the accumulator it replaces, and (for
    # a batch) the per-row window gather — plus the hoisted (steps, B) window
    # offsets.  Every transform intermediate is workspace memory.
    offsets = 3 * 8 * width * len(key)
    bound = 3 * accumulator_bytes + offsets + UFUNC_BUFFERS
    assert long <= bound
    assert long - short <= offsets + 1024  # eight times the steps, the same peak
    if width > 1:
        # The bound means something: one step's row-product tensor alone —
        # a fresh array per step before the workspace held it — exceeds it.
        rows, cols = (params.k + 1) * params.l, params.k + 1
        assert rows * width * cols * (params.N // 2) * 16 > bound


def test_workspace_footprint_tracks_the_widest_batch_through_a_context():
    params = TEST_TINY
    transform = make_transform("double", params.N)
    secret, cloud = generate_keys(params, transform, rng=320)

    def footprint_after(widths) -> int:
        context = FheContext(cloud)
        for width in widths:
            bits = [(row * 7 + width) % 2 for row in range(width)]
            ca = encrypt_bit_batch(secret, bits, rng=321 + width)
            cb = encrypt_bit_batch(secret, bits[::-1], rng=421 + width)
            context.batch_evaluator(width).gate_rows(["nand"] * width, ca, cb)
        return context.workspace.nbytes

    widest = footprint_after([32])
    assert footprint_after(range(1, 33)) == widest
    assert footprint_after([1, 32, 1, 7]) == widest
    # By arithmetic over the three families' layouts at B = 32: the bound
    # kernels are views into these pools, never a second copy of a buffer.
    block = 32 * (params.k + 1) * params.N * 4  # one (B, k+1, N) uint32 array
    rows, half = (params.k + 1) * params.l, params.N // 2
    step = (3 + 1 + 2 * params.l) * block  # window, shifted, planes, digit stack
    complexes = 2 * rows * 32 * half + (rows + 2) * 32 * (params.k + 1) * half
    transform = 16 * complexes + 2 * block  # ... and the int64 coefficients
    assert widest == step + transform + 4 * keyswitch.KEYSWITCH_BLOCK_WORDS


def _profiled_calls(run) -> collections.Counter:
    """Python-level calls ``run()`` makes, by qualified name (``sys.setprofile``
    ``call`` events: functions and methods defined in Python, not C builtins
    or ufuncs)."""
    calls: collections.Counter = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("width", [1, 3])
def test_a_warm_rotation_resolves_its_kernel_once_not_once_per_step(width):
    """The per-step Python around the ufuncs cannot grow back unnoticed: a step
    is the kernel's ``step``, the engine's bound contraction, and nothing
    that looks anything up (14 calls per step before the kernel was bound,
    two of them ``BootstrapWorkspace.buffers``)."""
    params = TEST_TINY
    transform = make_transform("double", params.N)
    _, cloud = generate_keys(params, transform, rng=350)
    rotator = FheContext(cloud).rotator
    accumulators, bara = _rotation_inputs(params, rotator.bootstrapping_key, width, seed=351)
    rotator.rotate_batch(accumulators, bara)  # warm: pools, bound kernel
    calls = _profiled_calls(lambda: rotator.rotate_batch(accumulators, bara))
    steps = params.n
    assert calls["_StepKernel.step"] == steps
    assert sum(calls.values()) <= 6 * steps + 16
    assert calls["BootstrapWorkspace.buffers"] == 1
    per_step = {name for name, count in calls.items() if count >= steps}
    contract = "DoubleFFTNegacyclicTransform._contraction_over.<locals>.contract"
    assert per_step == {"_StepKernel.step", contract}


def test_every_array_a_bound_kernel_holds_is_a_view_into_the_pools():
    params, width = TEST_TINY, 5
    transform = make_transform("double", params.N)
    _, cloud = generate_keys(params, transform, rng=360)
    rotator = FheContext(cloud).rotator
    accumulators, bara = _rotation_inputs(params, rotator.bootstrapping_key, width, seed=361)
    rotator.rotate_batch(accumulators, bara)
    workspace = rotator.workspace
    (kernel,) = [entry for key, entry in workspace._entries.items() if key[0] == "step"]
    held = [getattr(kernel, name) for cls in type(kernel).__mro__[:-1] for name in cls.__slots__]
    held += [cell.cell_contents for cell in kernel.contract.__closure__]
    arrays = [value for value in held if isinstance(value, np.ndarray)]
    assert len(arrays) > 20
    outside = [
        array
        for array in arrays
        if not any(np.shares_memory(array, pool) for pool in workspace._pools.values())
    ]
    # Constant data only: the gather index, the shift table, the twist tables.
    assert sum(array.nbytes for array in outside) <= 8 * width + 4 * params.l + 32 * params.N


@pytest.mark.parametrize("caller", ["digit_rows", "RadixEvaluator.propagate"])
def test_warm_digit_bootstraps_borrow_the_context_gather_block(caller):
    """The parameters are small enough that everything a digit bootstrapping
    allocates itself — accumulators, row indices, results — is a fraction of
    the key switch's gather block, so a peak below one block means no block
    was allocated: the call ran in the one its context already owns."""
    params, encoding = TEST_PBS, DigitEncoding(message_bits=2, carry_bits=2)
    secret, context = FheContext.generate(params, make_transform("double", params.N), rng=330)
    if caller == "digit_rows":
        rows = LweBatch.from_samples(
            encrypt_digit(secret.lwe_key, value, encoding, rng=331 + value)
            for value in (1, 6, 11, 12)
        )
        square = (encoding, tuple(v * v % encoding.space for v in range(encoding.space)))
        run = lambda: context.batch_evaluator(1).rows([square] * 4, [rows])
    else:
        radix = RadixEvaluator(context, encoding)
        x = encrypt_radix(secret.lwe_key, 0b111011, 3, encoding, rng=340)
        doubled = radix.add(x, x)  # every digit above the base: three sweeps
        run = lambda: radix.propagate(doubled)
    run()  # warm: spectrum cache, test vectors, workspace pools
    assert _traced_peak(run) < 4 * keyswitch.KEYSWITCH_BLOCK_WORDS
