"""The ledger's workloads and the seeded inputs each one sends.

A workload fixes the parameter set, the dispatcher, how many connections
keep how many requests outstanding, and the kind of request.  ``--seed``
drives key generation, the plaintext operands and the gate mix; the server
only ever sees the generated ciphertexts.  Each connection draws from its
own seeded stream, so the n-th request of a connection is the same bytes on
every run of a seed whatever the timing of the replies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.compiler import LUT_PIPELINE, optimize, simulate
from repro.tfhe.circuits import bits_to_int, int_to_bits
from repro.tfhe.executor import schedule_circuit
from repro.tfhe.gates import (
    PLAINTEXT_GATES,
    decrypt_bit,
    decrypt_bit_batch,
    encrypt_bit,
    encrypt_bit_batch,
)
from repro.tfhe.keys import generate_cloud_key, generate_secret_key
from repro.tfhe.netlist import adder_netlist
from repro.tfhe.params import get_parameters
from repro.tfhe.serialize import circuit_to_json

#: The ten two-input bootstrapped gates, in a fixed order the seed indexes.
GATE_NAMES = tuple(sorted(PLAINTEXT_GATES))
#: Pre-encrypted operands per run (the streams draw pairs from this pool).
POOL_BITS = 64
POOL_WORDS = 16
ADDER_WIDTH = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: str
    workers: int  # 0 = inline dispatcher
    connections: int
    outstanding: int  # requests each connection keeps in flight
    kind: str  # "nand" | "gate_mix" | "circuit"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "gate_latency_paper",
            "paper-110bit NAND, one in flight: the paper's Fig. 9 gate latency; "
            ">85% of an op is the bootstrap kernel, so only kernel gains show",
            "paper-110bit", 0, 1, 1, "nand",
        ),
        Workload(
            "gate_stream_small",
            "test-small gate mix, 2x16 in flight: the kernel is cheap, so npz "
            "marshalling, framing, admission and coalescing are most of each op",
            "test-small", 0, 2, 16, "gate_mix",
        ),
        Workload(
            "circuit_lut_medium",
            "test-medium LUT-lowered 8-bit adder, 2x1 circuits in flight: narrow "
            "mixed gate/LUT levels with per-row test vectors and circuit JSON on the wire",
            "test-medium", 0, 2, 1, "circuit",
        ),
        Workload(
            "gate_stream_medium_pool",
            "test-medium gate mix through WorkerPool(2), 2x8 in flight: the only "
            "path through shared-memory key segments and pickled rows over pipes",
            "test-medium", 2, 2, 8, "gate_mix",
        ),
    )
}


class Inputs:
    """Keys, pre-encrypted operand pools and per-connection request streams."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.params = get_parameters(workload.params)
        rng = np.random.default_rng([seed, 0])
        self.secret = generate_secret_key(self.params, rng)
        # eager=False: the generator only serialises the key, it never bootstraps.
        self.cloud = generate_cloud_key(self.secret, rng=rng, eager=False)
        self.circuit = None
        self.circuit_obj: Optional[Dict[str, Any]] = None
        if workload.kind == "circuit":
            self.reference = adder_netlist(ADDER_WIDTH)
            self.circuit = optimize(self.reference, passes=LUT_PIPELINE)
            self.circuit_obj = json.loads(circuit_to_json(self.circuit))
            self.bootstraps_per_op = schedule_circuit(self.circuit).gate_count
            self.words = [
                (int(a), int(b))
                for a, b in rng.integers(0, 2**ADDER_WIDTH, size=(POOL_WORDS, 2))
            ]
            self.sums = [
                simulate(self.reference, {"a": a, "b": b})["sum"] for a, b in self.words
            ]
            self.batches = [
                encrypt_bit_batch(
                    self.secret,
                    int_to_bits(a, ADDER_WIDTH) + int_to_bits(b, ADDER_WIDTH),
                    rng,
                )
                for a, b in self.words
            ]
        else:
            self.bootstraps_per_op = 1
            self.bits = [int(b) for b in rng.integers(0, 2, size=POOL_BITS)]
            self.samples = [encrypt_bit(self.secret, b, rng) for b in self.bits]

    def stream(self, connection: int) -> "RequestStream":
        return RequestStream(self, connection)


class RequestStream:
    """One connection's seeded, endless sequence of requests.

    ``next()`` returns ``(op, header fields, artifacts, expected)``: the wire
    op name, its extra header fields, the ciphertext artifacts of the body and
    the plaintext the decrypted reply must equal.
    """

    def __init__(self, inputs: Inputs, connection: int) -> None:
        self.inputs = inputs
        self.rng = np.random.default_rng([inputs.seed, 1, connection])
        self._draws: List[Tuple[int, int, int]] = []

    def _draw(self) -> Tuple[int, int, int]:
        if not self._draws:  # refill in blocks: one vectorised draw per 1024 ops
            block = self.rng.integers(0, 2**31 - 1, size=(1024, 3))
            self._draws = [tuple(int(v) for v in row) for row in block[::-1]]
        return self._draws.pop()

    def next(self) -> Tuple[str, Dict[str, Any], list, Any]:
        inputs = self.inputs
        g, i, j = self._draw()
        kind = inputs.workload.kind
        if kind == "circuit":
            index = i % POOL_WORDS
            return (
                "circuit",
                {"circuit": inputs.circuit_obj},
                [inputs.batches[index]],
                inputs.sums[index],
            )
        name = "nand" if kind == "nand" else GATE_NAMES[g % len(GATE_NAMES)]
        i %= POOL_BITS
        j %= POOL_BITS
        expected = PLAINTEXT_GATES[name](inputs.bits[i], inputs.bits[j])
        return "gate", {"gate": name}, [inputs.samples[i], inputs.samples[j]], expected

    def decrypt(self, artifact) -> Any:
        """The plaintext of one reply artifact (a bit, or the adder's sum)."""
        secret = self.inputs.secret
        if self.inputs.workload.kind == "circuit":
            return bits_to_int(decrypt_bit_batch(secret, artifact))
        return decrypt_bit(secret, artifact)
