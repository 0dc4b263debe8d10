"""LWE key switching.

After ``SampleExtract`` the bootstrapped ciphertext lives under the extracted
ring key of dimension ``k·N``; the ``KeySwitch`` step (last line of
Algorithm 1) converts it back to the original ``n``-dimensional LWE key so the
output of one gate can feed the next.

The key-switching key encrypts, for every bit ``i`` of the input key, every
digit position ``j`` and every digit value ``v``, the torus element
``v · key_in[i] / base^j``.  Switching decomposes each mask coefficient of the
input sample into ``t`` base-``2^basebit`` digits and subtracts the matching
key-switching samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tfhe.lwe import LweBatch, LweKey, LweSample
from repro.tfhe.params import KeySwitchParams
from repro.tfhe.torus import torus32_from_int64
from repro.utils.rng import SeedLike, make_rng


@dataclass
class KeySwitchKey:
    """Key-switching key from an input LWE key to an output LWE key.

    ``data`` has shape ``(n_in, t, base, n_out + 1)``: the last axis packs the
    mask ``a`` (first ``n_out`` entries) and the body ``b`` (last entry) of
    each key-switching sample.
    """

    params: KeySwitchParams
    data: np.ndarray
    input_dimension: int
    output_dimension: int
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def table(self) -> np.ndarray:
        """``data`` as C-contiguous ``(n_in·t·base, n_out + 1)`` sample rows.

        Row ``(i·t + j)·base + v`` is sample ``(i, j, v)``.  A view of a
        contiguous key; a key built on a non-contiguous ``data`` is copied
        once, here, not on every switch.
        """
        if self._table is None:
            data = np.ascontiguousarray(self.data)
            self._table = data.reshape(-1, data.shape[-1])
        return self._table


def keyswitch_key_generate(
    input_key: LweKey,
    output_key: LweKey,
    params: KeySwitchParams,
    rng: SeedLike = None,
) -> KeySwitchKey:
    """Generate the key-switching key ``KS_{input_key -> output_key}``."""
    rng = make_rng(rng)
    n_in = input_key.dimension
    n_out = output_key.dimension
    base = params.base
    t = params.length

    data = np.zeros((n_in, t, base, n_out + 1), dtype=np.int32)
    in_bits = input_key.key.astype(np.int64)
    out_bits = output_key.key.astype(np.int64)

    # Vectorised generation: sample all masks and noises in one shot.
    a = rng.integers(
        low=-(2**31), high=2**31, size=(n_in, t, base, n_out), dtype=np.int64
    )
    noise = np.round(
        rng.normal(0.0, params.noise_stddev, size=(n_in, t, base)) * (2.0**32)
    ).astype(np.int64)

    digit_values = np.arange(base, dtype=np.int64)
    for j in range(t):
        shift = 32 - params.base_bits * (j + 1)
        if shift < 0:
            raise ValueError("key-switch decomposition exceeds 32 bits")
        # message[i, v] = v * key_in[i] * 2^shift
        message = (digit_values[None, :] * in_bits[:, None]) << shift
        phase = a[:, j, :, :] @ out_bits
        b = torus32_from_int64(phase + noise[:, j, :] + message)
        data[:, j, :, :n_out] = torus32_from_int64(a[:, j, :, :])
        data[:, j, :, n_out] = b
    return KeySwitchKey(
        params=params, data=data, input_dimension=n_in, output_dimension=n_out
    )


#: int32 words of the gather block of :func:`_keyswitch_totals` (512 KiB): big
#: enough that a block's few NumPy calls vanish against its gather, small
#: enough to stay cache-resident between the gather and the reduction.
KEYSWITCH_BLOCK_WORDS = 1 << 17


def _block_layout(shape: tuple) -> list:
    """The gather block as a workspace layout: one flat int32 buffer."""
    return [(shape, np.int32)]


def _keyswitch_totals(ks: KeySwitchKey, a: np.ndarray, workspace=None) -> np.ndarray:
    """Sum mod ``2^32`` of the key-switching samples selected by the digits of ``a``.

    ``a`` is a ``(B, n_in)`` int32 mask array; the result is the
    ``(B, n_out + 1)`` **uint32** total.  Callers only ever use the total
    mod ``2^32``, so the wrapping uint32 accumulation is exact.

    The digits of every coefficient become flat row indices into
    :attr:`KeySwitchKey.table` once, digit-major: ``(n_in·t, B)``.  The rows
    are then gathered a block at a time into one fixed-size buffer (the
    ``workspace``'s, else a fresh one) as ``(run, ciphertexts, n_out + 1)``
    and reduced over their long first axis into the total, so each add spans
    a whole group of ciphertext rows rather than one key row, and peak memory
    is the block plus ``O(B)`` rows — never the ``(n_in·t, B, n_out + 1)``
    gather.
    """
    params = ks.params
    base_bits = params.base_bits
    t = params.length
    table = ks.table
    width = table.shape[1]
    batch, n_in = a.shape

    # Round the mask coefficients to the precision kept by the decomposition;
    # the wrapping uint32 add is the re-reduction mod 2^32 that coefficients
    # near the torus wrap-around (a ≈ 2^32 − 1) need.
    rounded = np.asarray(a).astype(np.uint32)
    if 32 - base_bits * t - 1 >= 0:
        rounded += np.uint32(1 << (32 - base_bits * t - 1))
    shifts = np.arange(32 - base_bits, 32 - base_bits * (t + 1), -base_bits, dtype=np.uint32)
    index = np.empty((n_in, t, batch), dtype=np.intp)
    np.right_shift(rounded.T[:, None, :], shifts[:, None], out=index)
    index &= params.base - 1
    index += np.arange(0, n_in * t * params.base, params.base, dtype=np.intp).reshape(n_in, t, 1)
    index = index.reshape(n_in * t, batch)

    if workspace is None:
        block = np.empty(KEYSWITCH_BLOCK_WORDS, dtype=np.int32)
    else:
        (block,) = workspace.buffers("keyswitch", (KEYSWITCH_BLOCK_WORDS,), _block_layout)
    capacity = block.size // width  # table rows one block holds
    group = min(batch, capacity)  # ciphertexts per block ...
    run = capacity // group  # ... and table rows of each
    totals = np.zeros((batch, width), dtype=np.uint32)
    partial = np.empty((group, width), dtype=np.uint32)
    for first in range(0, batch, group):
        rows = index[:, first : first + group]
        total = totals[first : first + group]
        subtotal = partial[: rows.shape[1]]
        for start in range(0, n_in * t, run):
            chosen = rows[start : start + run]
            gathered = block[: chosen.size * width].reshape(chosen.shape + (width,))
            # Indices are in range by construction; any mode but "raise"
            # lets `take` write straight into `out` unbuffered.
            table.take(chosen, axis=0, out=gathered, mode="clip")
            np.add.reduce(gathered.view(np.uint32), axis=0, dtype=np.uint32, out=subtotal)
            total += subtotal
    return totals


def _keyswitch_totals_reference(ks: KeySwitchKey, a: np.ndarray) -> np.ndarray:
    """The historical per-digit-level accumulation (ground truth).

    Kept verbatim as the reference of the blocked accumulation in
    :func:`_keyswitch_totals` (integer addition is exact, so the two agree
    mod ``2^32``).
    """
    params = ks.params
    base_bits = params.base_bits
    t = params.length
    mask = params.base - 1
    rounding = 1 << (32 - base_bits * t - 1) if 32 - base_bits * t - 1 >= 0 else 0
    a_in = ((a.astype(np.int64) & 0xFFFFFFFF) + rounding) & 0xFFFFFFFF

    rows = np.arange(ks.input_dimension)
    totals = np.zeros(a_in.shape[:-1] + (ks.output_dimension + 1,), dtype=np.int64)
    for j in range(t):
        shift = 32 - base_bits * (j + 1)
        digits = ((a_in >> shift) & mask).astype(np.int64)  # (..., n_in)
        selected = ks.data[rows, j, digits]  # (..., n_in, n_out + 1)
        totals += selected.sum(axis=-2, dtype=np.int64)
    return totals


def keyswitch_apply_reference(ks: KeySwitchKey, sample: LweSample) -> LweSample:
    """Key switch through the historical per-level loop (test/bench baseline)."""
    if sample.dimension != ks.input_dimension:
        raise ValueError("sample dimension does not match key-switching key")
    n_out = ks.output_dimension
    totals = _keyswitch_totals_reference(ks, sample.a)
    a_out = torus32_from_int64(-totals[:n_out])
    b_out = torus32_from_int64(int(np.int64(sample.b)) - int(totals[n_out]))
    return LweSample(a=a_out, b=np.int32(b_out))


def keyswitch_apply_batch_reference(ks: KeySwitchKey, batch: LweBatch) -> LweBatch:
    """Batched key switch through the historical per-level loop (baseline)."""
    if batch.dimension != ks.input_dimension:
        raise ValueError("sample dimension does not match key-switching key")
    n_out = ks.output_dimension
    totals = _keyswitch_totals_reference(ks, batch.a)  # (B, n_out + 1)
    a_out = torus32_from_int64(-totals[..., :n_out])
    b_out = torus32_from_int64(batch.b.astype(np.int64) - totals[..., n_out])
    return LweBatch(a=a_out, b=b_out)


def keyswitch_apply(ks: KeySwitchKey, sample: LweSample, workspace=None) -> LweSample:
    """Switch ``sample`` (under the input key) to the output key.

    :func:`keyswitch_apply_batch` on a one-row view.
    """
    switched = keyswitch_apply_batch(
        ks, LweBatch(a=sample.a[None], b=np.asarray(sample.b)[None]), workspace
    )
    return LweSample(a=switched.a[0], b=np.int32(switched.b[0]))


def keyswitch_apply_batch(ks: KeySwitchKey, batch: LweBatch, workspace=None) -> LweBatch:
    """Switch a whole batch of samples through one blocked accumulation.

    ``workspace`` (a :class:`repro.tfhe.tgsw.BootstrapWorkspace`) lends the
    gather block; without one the call allocates its own.  Bit-identical to
    applying :func:`keyswitch_apply_reference` to every row.
    """
    if batch.dimension != ks.input_dimension:
        raise ValueError("sample dimension does not match key-switching key")
    n_out = ks.output_dimension
    totals = _keyswitch_totals(ks, batch.a, workspace)  # (B, n_out + 1) uint32
    a_out = np.negative(totals[:, :n_out]).view(np.int32)
    b_out = (np.asarray(batch.b).astype(np.uint32) - totals[:, n_out]).view(np.int32)
    return LweBatch(a=a_out, b=b_out)
