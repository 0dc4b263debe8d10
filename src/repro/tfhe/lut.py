"""Boolean lookup tables over the gate-bootstrapping encoding.

A ``lut`` netlist node evaluates an arbitrary k-input boolean function in a
*single* bootstrapping, replacing the cone of 2-input gates that would
otherwise compute it.  Inputs are ordinary gate ciphertexts (messages at
``±1/8``), so the only degree of freedom before the blind rotation is an
affine combination with small integer weights::

    combined = offset/8 + Σ w_i · c_i        (c_i encrypts (2·b_i − 1)/8)

The phase of ``combined`` lands on one of the eight torus slices
``t(b) = (offset + Σ w_i·(2·b_i − 1)) mod 8`` and the test polynomial assigns
an output bit to each slice.  Because the blind rotation is negacyclic, the
slices ``t`` and ``t + 4`` are forced to carry *complementary* outputs — not
every truth table admits weights that respect this, so the spec search simply
reports infeasible tables and the compiler leaves those cones as plain gates.
The classic wins are feasible: XOR3 (weights ``2,2,2``), MAJ3 (``1,1,1``),
and with them a full adder in two bootstrappings instead of five —
``lutify`` lowers ``adder_netlist(8)`` to 16 bootstrappings at depth 8.

The searched weight/offset space reproduces the affine forms of all stock
gates (every entry of :data:`repro.tfhe.gates.MIXED_GATE_SPECS` is the arity-2
special case), and the weight cost ``Σ w_i²`` — the input-noise amplification
factor — is minimised and capped so lut rows keep the gate decision margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import List, Optional, Tuple

import numpy as np

from repro.tfhe.params import TFHEParameters

#: Largest lut arity the netlist layer accepts (truth tables stay ≤ 16 bits).
MAX_LUT_ARITY = 4

#: Cap on the input-noise amplification ``Σ w_i²`` of a lut row.  XOR — the
#: noisiest stock gate — costs 8; XOR4 (weights ``2,2,2,2``) costs 16, which
#: still clears the gate margin on every shipped parameter set.
MAX_WEIGHT_COST = 16


@dataclass(frozen=True)
class BooleanLutSpec:
    """A realisable k-input boolean LUT: affine weights plus slice outputs.

    ``slices[t]`` is the output bit produced when the combined phase lands on
    torus slice ``t/8``; the negacyclic constraint ``slices[t+4] = 1 −
    slices[t]`` holds by construction.
    """

    table: int
    arity: int
    weights: Tuple[int, ...]
    offset_eighths: int
    slices: Tuple[int, ...]

    @property
    def weight_cost(self) -> int:
        """Input-noise amplification factor ``Σ w_i²`` of the affine stage."""
        return sum(w * w for w in self.weights)


@lru_cache(maxsize=None)
def _candidates(arity: int) -> Tuple[Tuple[Tuple[int, ...], int, Tuple[int, ...]], ...]:
    """All (weights, offset, slice-masks) candidates for one arity.

    ``slice_masks[t]`` is the bitmask of input combinations whose phase lands
    on slice ``t`` — precomputed once per arity so per-table feasibility is a
    handful of mask comparisons per candidate.  Candidates are ordered by
    weight cost (then lexicographically) so the first feasible hit is also the
    lowest-noise realisation, deterministically.
    """
    weight_range = range(-3, 4)
    combos = []
    for weights in product(weight_range, repeat=arity):
        cost = sum(w * w for w in weights)
        if cost == 0 or cost > MAX_WEIGHT_COST:
            continue
        combos.append((cost, weights))
    combos.sort()
    out = []
    for cost, weights in combos:
        for offset in range(8):
            masks = [0] * 8
            for index in range(1 << arity):
                t = offset
                for i, w in enumerate(weights):
                    t += w * (2 * ((index >> i) & 1) - 1)
                masks[t % 8] |= 1 << index
            out.append((weights, offset, tuple(masks)))
    return tuple(out)


@lru_cache(maxsize=None)
def boolean_lut_spec(table: int, arity: int) -> Optional[BooleanLutSpec]:
    """The cheapest affine realisation of ``table``, or ``None`` if infeasible.

    Deterministic and memoised per ``(table, arity)``.
    """
    if not 1 <= arity <= MAX_LUT_ARITY:
        raise ValueError(f"lut arity must lie in [1, {MAX_LUT_ARITY}]")
    size = 1 << arity
    if not 0 <= table < (1 << size):
        raise ValueError(f"truth table for {arity} inputs must fit {size} bits")
    for weights, offset, masks in _candidates(arity):
        slices: List[Optional[int]] = [None] * 8
        feasible = True
        for t in range(8):
            mask = masks[t]
            if not mask:
                continue
            hits = table & mask
            if hits == 0:
                bit = 0
            elif hits == mask:
                bit = 1
            else:
                feasible = False
                break
            slices[t] = bit
        if not feasible:
            continue
        for t in range(4):
            a, b = slices[t], slices[t + 4]
            if a is not None and b is not None and a == b:
                feasible = False
                break
        if not feasible:
            continue
        for t in range(4):
            a, b = slices[t], slices[t + 4]
            if a is None and b is None:
                slices[t], slices[t + 4] = 0, 1
            elif a is None:
                slices[t] = 1 - b
            elif b is None:
                slices[t + 4] = 1 - a
        return BooleanLutSpec(
            table=table,
            arity=arity,
            weights=weights,
            offset_eighths=offset,
            slices=tuple(slices),
        )
    return None


def lut_test_vector(params: TFHEParameters, spec: BooleanLutSpec) -> np.ndarray:
    """The slice-valued test polynomial realising ``spec`` on this ring.

    Coefficient ``j`` covers phases around ``j/(2N)``; the owning eighth-slice
    is ``t(j) = round(4j/N)``, where ``t = 4`` picks up the negacyclic
    complement of slice 0 (the construction guarantees ``slices[4] = 1 −
    slices[0]``, so the wrap is consistent).
    """
    return _lut_test_vector_cached(params.N, spec.slices)


@lru_cache(maxsize=None)
def _lut_test_vector_cached(degree: int, slices: Tuple[int, ...]) -> np.ndarray:
    from repro.tfhe.gates import MU

    j = np.arange(degree, dtype=np.int64)
    t = (4 * j + degree // 2) // degree  # in [0, 4]
    bits = np.array(slices, dtype=np.int64)[t]
    vector = np.where(bits != 0, np.int64(MU), -np.int64(MU)).astype(np.int32)
    vector.setflags(write=False)
    return vector
