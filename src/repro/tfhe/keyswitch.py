"""LWE key switching.

After ``SampleExtract`` the bootstrapped ciphertext lives under the extracted
ring key of dimension ``k·N``; the ``KeySwitch`` step (last line of
Algorithm 1) converts it back to the original ``n``-dimensional LWE key so the
output of one gate can feed the next.

The key-switching key encrypts, for every bit ``i`` of the input key, every
digit position ``j`` and every non-zero digit value ``v = 1 … base − 1``, the
torus element ``v · key_in[i] / base^(j+1)``.  Switching decomposes each mask
coefficient of the input sample into ``t`` base-``2^basebit`` digits and
subtracts the matching key-switching samples; a zero digit contributes
nothing, so it has no sample (as in the TFHE library), which keeps the key a
quarter smaller at ``base = 4`` and adds no key noise for a zero digit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tfhe.lwe import LweBatch, LweKey
from repro.tfhe.params import KeySwitchParams
from repro.tfhe.torus import torus32_from_int64
from repro.utils.rng import SeedLike, make_rng


@dataclass
class KeySwitchKey:
    """Key-switching key from an input LWE key to an output LWE key.

    ``data`` has shape ``(n_in, t, base − 1, n_out + 1)``: entry
    ``[i, j, v − 1]`` is the sample of digit value ``v ≥ 1``, and its last
    axis packs the mask ``a`` (first ``n_out`` entries) and the body ``b``
    (last entry).  Digit 0 has no sample.
    """

    params: KeySwitchParams
    data: np.ndarray
    input_dimension: int
    output_dimension: int
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def table(self) -> np.ndarray:
        """``data`` as C-contiguous ``(n_in·t·(base − 1), n_out + 1)`` sample rows.

        Row ``(i·t + j)·(base − 1) + v − 1`` is the sample of digit ``v`` at
        ``(i, j)``.  A view of a contiguous key; a key built on a
        non-contiguous ``data`` is copied once, here, not on every switch.
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
    digits = params.base - 1  # v = 1 … base − 1; digit 0 has no sample
    t = params.length

    data = np.zeros((n_in, t, digits, n_out + 1), dtype=np.int32)
    in_bits = input_key.key.astype(np.int64)
    out_bits = output_key.key.astype(np.int64)

    # Vectorised generation: sample all masks and noises in one shot.
    a = rng.integers(
        low=-(2**31), high=2**31, size=(n_in, t, digits, n_out), dtype=np.int64
    )
    noise = np.round(
        rng.normal(0.0, params.noise_stddev, size=(n_in, t, digits)) * (2.0**32)
    ).astype(np.int64)

    digit_values = np.arange(1, params.base, dtype=np.int64)
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
    :attr:`KeySwitchKey.table` once, digit-major: ``(n_in·t, B)``.  A zero
    digit has no sample, so it points at table row 0 — a quarter of the
    reads at ``base = 4`` hit that one cache-resident row — and ``table[0]``
    times each ciphertext's count of zero digits is subtracted from its
    total at the end (exact mod ``2^32``).  The table stays a view of
    ``data``: no zero row is appended, which would copy the key.  The rows
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
    index = index.reshape(n_in * t, batch)
    nonzero = index != 0
    zero_count = n_in * t - np.add.reduce(nonzero.view(np.uint8), axis=0, dtype=np.uint32)
    # Digit v ≥ 1 at (i, j) is row (i·t + j)·(base − 1) + v − 1; digit 0 is row 0.
    per_position = params.base - 1  # table rows of one (i, j)
    index += np.arange(-1, n_in * t * per_position - 1, per_position, dtype=np.intp)[:, None]
    index *= nonzero
    del nonzero

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
    totals -= zero_count[:, None] * table[0].view(np.uint32)
    return totals


def keyswitch_apply_batch(ks: KeySwitchKey, batch: LweBatch, workspace=None) -> LweBatch:
    """Switch a whole batch of samples through one blocked accumulation.

    ``workspace`` (a :class:`repro.tfhe.tgsw.BootstrapWorkspace`) lends the
    gather block; without one the call allocates its own.  Exact: each row
    equals, mod ``2^32``, the integer sum over its non-zero digits' samples
    (``tests/keyswitch_oracle.py`` spells that sum out).
    """
    if batch.dimension != ks.input_dimension:
        raise ValueError("sample dimension does not match key-switching key")
    n_out = ks.output_dimension
    totals = _keyswitch_totals(ks, batch.a, workspace)  # (B, n_out + 1) uint32
    a_out = np.negative(totals[:, :n_out]).view(np.int32)
    b_out = (np.asarray(batch.b).astype(np.uint32) - totals[:, n_out]).view(np.int32)
    return LweBatch(a=a_out, b=b_out)
