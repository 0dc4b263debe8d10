"""BatchScheduler: cross-session coalescing of gate, circuit and radix-add jobs."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.runtime import BatchScheduler, FheContext
from repro.runtime.chaos import FlakyEngine
from repro.runtime.context import same_cloud_key
from repro.runtime.scheduler import InlineDispatcher, JobAborted
from repro.telemetry import Telemetry
from repro.tfhe.circuits import bits_to_int, encrypt_integer
from repro.tfhe.executor import schedule_circuit
from repro.tfhe.gates import (
    PLAINTEXT_GATES,
    TFHEGateEvaluator,
    decrypt_bit,
    decrypt_bits,
    encrypt_bit,
)
from repro.tfhe.keys import generate_cloud_key, generate_keys, generate_secret_key
from repro.tfhe.netlist import adder_netlist
from repro.tfhe.integers import RadixEvaluator, RadixInt, decrypt_radix, encrypt_radix
from repro.tfhe.params import TEST_PBS, TEST_TINY, DigitEncoding
from repro.tfhe.serialize import from_bytes, to_bytes
from repro.tfhe.transform import DoubleFFTNegacyclicTransform, NaiveNegacyclicTransform


@pytest.fixture()
def scheduler(tiny_keys_naive):
    _, cloud = tiny_keys_naive
    scheduler = BatchScheduler()
    scheduler.register_client("alice", cloud)
    return scheduler


class TestGateCoalescing:
    def test_one_flush_one_batched_call(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        names = ["nand", "and", "or", "xor", "nor", "xnor"]
        sessions = [scheduler.session("alice") for _ in names]
        cases = []
        for i, (session, name) in enumerate(zip(sessions, names)):
            bit_a, bit_b = i & 1, (i >> 1) & 1
            handle = session.submit_gate(
                name,
                encrypt_bit(secret, bit_a, rng=100 + i),
                encrypt_bit(secret, bit_b, rng=200 + i),
            )
            cases.append((name, bit_a, bit_b, handle))
        assert scheduler.pending_jobs == len(names)
        rows = scheduler.flush()
        assert rows == len(names)
        assert scheduler.stats.batched_calls == 1  # all six jobs, one sweep
        assert scheduler.stats.max_rows_per_call == len(names)
        assert scheduler.pending_jobs == 0
        for name, bit_a, bit_b, handle in cases:
            assert decrypt_bit(secret, handle.result()) == PLAINTEXT_GATES[name](
                bit_a, bit_b
            )

    def test_coalesced_rows_bit_identical_to_scalar_evaluator(
        self, scheduler, tiny_keys_naive
    ):
        secret, cloud = tiny_keys_naive
        evaluator = TFHEGateEvaluator(cloud)
        session = scheduler.session("alice")
        ca, cb = encrypt_bit(secret, 1, rng=31), encrypt_bit(secret, 0, rng=32)
        handles = {
            name: session.submit_gate(name, ca, cb) for name in ("nand", "xor", "oryn")
        }
        scheduler.flush()
        for name, handle in handles.items():
            expected = evaluator.gate(name, ca, cb)
            got = handle.result()
            assert np.array_equal(got.a, expected.a), name
            assert np.int32(got.b) == np.int32(expected.b), name

    def test_chained_handles_schedule_in_rounds(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        session = scheduler.session("alice")
        ca, cb = encrypt_bit(secret, 1, rng=41), encrypt_bit(secret, 0, rng=42)
        first = session.submit_gate("nand", ca, cb)  # = 1
        second = session.submit_gate("and", first, ca)  # = 1
        third = session.submit_gate("xor", second, first)  # = 0
        with pytest.raises(RuntimeError, match="flush"):
            first.result()
        scheduler.flush()
        # Three dependent gates cannot share a bootstrap: three rounds.
        assert scheduler.stats.batched_calls == 3
        assert decrypt_bit(secret, first.result()) == 1
        assert decrypt_bit(secret, second.result()) == 1
        assert decrypt_bit(secret, third.result()) == 0

    def test_not_on_ciphertext_is_free(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        session = scheduler.session("alice")
        flipped = session.not_(encrypt_bit(secret, 1, rng=43))
        assert decrypt_bit(secret, flipped) == 0  # resolved without any flush
        assert scheduler.stats.batched_calls == 0

    def test_max_rows_per_call_chunks(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        scheduler = BatchScheduler(max_rows_per_call=2)
        scheduler.register_client("alice", cloud)
        session = scheduler.session("alice")
        handles = [
            session.submit_gate(
                "nand",
                encrypt_bit(secret, 1, rng=50 + i),
                encrypt_bit(secret, 1, rng=60 + i),
            )
            for i in range(5)
        ]
        scheduler.flush()
        assert scheduler.stats.batched_calls == 3  # ceil(5 / 2)
        assert scheduler.stats.max_rows_per_call == 2
        for handle in handles:
            assert decrypt_bit(secret, handle.result()) == 0


class TestMultiTenant:
    def test_jobs_group_per_client_key(self, tiny_keys_naive):
        secret_a, cloud_a = tiny_keys_naive
        engine = NaiveNegacyclicTransform(TEST_TINY.N)
        secret_b, cloud_b = generate_keys(TEST_TINY, engine, rng=77)
        scheduler = BatchScheduler()
        scheduler.register_client("alice", cloud_a)
        scheduler.register_client("bob", FheContext(cloud_b))
        ha = scheduler.session("alice").submit_gate(
            "and",
            encrypt_bit(secret_a, 1, rng=1),
            encrypt_bit(secret_a, 1, rng=2),
        )
        hb = scheduler.session("bob").submit_gate(
            "or",
            encrypt_bit(secret_b, 0, rng=3),
            encrypt_bit(secret_b, 1, rng=4),
        )
        scheduler.flush()
        # Different keys can never share a bootstrapping call.
        assert scheduler.stats.batched_calls == 2
        assert decrypt_bit(secret_a, ha.result()) == 1
        assert decrypt_bit(secret_b, hb.result()) == 1

    def test_cross_client_handles_rejected(self, tiny_keys_naive):
        secret_a, cloud_a = tiny_keys_naive
        engine = NaiveNegacyclicTransform(TEST_TINY.N)
        secret_b, cloud_b = generate_keys(TEST_TINY, engine, rng=78)
        scheduler = BatchScheduler()
        scheduler.register_client("alice", cloud_a)
        scheduler.register_client("bob", cloud_b)
        alice_handle = scheduler.session("alice").submit_gate(
            "nand",
            encrypt_bit(secret_a, 1, rng=1),
            encrypt_bit(secret_a, 1, rng=2),
        )
        bob_session = scheduler.session("bob")
        with pytest.raises(ValueError, match="different clients"):
            bob_session.submit_gate(
                "and", alice_handle, encrypt_bit(secret_b, 1, rng=3)
            )
        with pytest.raises(ValueError, match="different clients"):
            bob_session.submit_circuit(
                adder_netlist(1),
                {"a": [alice_handle], "b": [encrypt_bit(secret_b, 1, rng=4)]},
            )
        scheduler.flush()
        assert decrypt_bit(secret_a, alice_handle.result()) == 0

    def test_register_and_lookup_validation(self, scheduler, tiny_keys_naive):
        _, cloud = tiny_keys_naive
        with pytest.raises(ValueError, match="already registered"):
            scheduler.register_client("alice", cloud)
        with pytest.raises(KeyError, match="unknown client"):
            scheduler.session("mallory")

    def test_unknown_gate_rejected(self, scheduler):
        session = scheduler.session("alice")
        with pytest.raises(ValueError, match="unknown gate"):
            session.submit_gate("nandy", None, None)


class TestCircuitJobs:
    def test_sessions_advance_levels_in_lockstep(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        width = 4
        circuit = adder_netlist(width)
        depth = schedule_circuit(circuit).depth
        cases = [(5, 7), (9, 3)]
        handles = []
        for i, (a_val, b_val) in enumerate(cases):
            session = scheduler.session("alice")
            handles.append(
                session.submit_circuit(
                    circuit,
                    {
                        "a": encrypt_integer(secret, a_val, width, rng=300 + i),
                        "b": encrypt_integer(secret, b_val, width, rng=400 + i),
                    },
                )
            )
        scheduler.flush()
        # Both jobs walk the same schedule, so each dependency level of the
        # two adders shares one mixed-gate batched bootstrapping.
        assert scheduler.stats.batched_calls == depth
        for (a_val, b_val), handle in zip(cases, handles):
            total = bits_to_int(decrypt_bits(secret, handle.result()["sum"]))
            assert total == a_val + b_val

    def test_gate_and_circuit_jobs_share_calls(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        width = 3
        circuit = adder_netlist(width)
        depth = schedule_circuit(circuit).depth
        circuit_handle = scheduler.session("alice").submit_circuit(
            circuit,
            {
                "a": encrypt_integer(secret, 3, width, rng=500),
                "b": encrypt_integer(secret, 2, width, rng=501),
            },
        )
        gate_handle = scheduler.session("alice").submit_gate(
            "nand",
            encrypt_bit(secret, 1, rng=502),
            encrypt_bit(secret, 1, rng=503),
        )
        scheduler.flush()
        # The single gate rode along with the circuit's first level.
        assert scheduler.stats.batched_calls == depth
        assert decrypt_bit(secret, gate_handle.result()) == 0
        total = bits_to_int(decrypt_bits(secret, circuit_handle.result()["sum"]))
        assert total == 5

    def test_circuit_inputs_must_be_resolved(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        session = scheduler.session("alice")
        pending = session.submit_gate(
            "and", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
        )
        with pytest.raises(ValueError, match="pending job handles"):
            session.submit_circuit(
                adder_netlist(1),
                {"a": [pending], "b": [encrypt_bit(secret, 1, rng=3)]},
            )


class TestRadixAddJobs:
    """A radix add is a multi-round job: each carry round of the propagation
    its bounds force is one round of digit rows on the scheduler."""

    ENCODING = DigitEncoding(message_bits=2, carry_bits=2)

    @pytest.fixture(scope="class")
    def pbs_keys(self):
        return generate_keys(TEST_PBS, unroll_factor=1, rng=71, eager=False)

    def _operand(self, secret, value, rng, bound):
        x = encrypt_radix(secret.lwe_key, value, 4, self.ENCODING, rng=rng)
        return RadixInt(x.digits, bounds=(bound,) * 4, encoding=self.ENCODING)

    def test_the_first_carry_round_carries_a_gate(self, pbs_keys):
        """Bounds of 9 on both operands force x's propagation: 2+2+2+1 digit
        rows in 4 carry rounds; the gate rides the first."""
        secret, cloud = pbs_keys
        scheduler = BatchScheduler()
        scheduler.register_client("alice", cloud)
        session = scheduler.session("alice")
        x, y = self._operand(secret, 57, 1, 9), self._operand(secret, 123, 2, 9)
        total = session.submit_radix_add(x, y)
        gate = session.submit_gate(
            "nand", encrypt_bit(secret, 1, rng=3), encrypt_bit(secret, 1, rng=4)
        )
        assert scheduler.flush() == 8
        assert scheduler.stats.batched_calls == 4
        assert scheduler.stats.max_rows_per_call == 3
        assert scheduler.stats.jobs_completed == 2
        assert decrypt_bit(secret, gate.result()) == 0
        assert decrypt_radix(secret.lwe_key, total.result()) == (57 + 123) % 4**4
        oracle = RadixEvaluator(FheContext(cloud), self.ENCODING).add(x, y)
        assert to_bytes(total.result()) == to_bytes(oracle)

    def test_an_operand_over_budget_fails_its_handle_not_the_flush(self, pbs_keys):
        """y's bound of 14 exceeds the propagation budget of 12, and the add
        finds out only after x's carry rounds ran: the handle fails with the
        budget's ValueError, the flush returns and the gate beside it
        resolves."""
        secret, cloud = pbs_keys
        scheduler = BatchScheduler()
        scheduler.register_client("alice", cloud)
        session = scheduler.session("alice")
        x, y = self._operand(secret, 57, 1, 9), self._operand(secret, 123, 2, 14)
        total = session.submit_radix_add(x, y)
        gate = session.submit_gate(
            "and", encrypt_bit(secret, 1, rng=3), encrypt_bit(secret, 1, rng=4)
        )
        assert scheduler.flush() == 8
        assert decrypt_bit(secret, gate.result()) == 1
        with pytest.raises(ValueError, match="propagation budget 12"):
            total.result()
        assert (scheduler.stats.jobs_completed, scheduler.stats.jobs_aborted) == (1, 1)
        assert scheduler.pending_jobs == 0


class TestLutJobs:
    """submit_lut rows coalesce with gates and circuits via the
    mixed-test-vector bootstrapping path."""

    def test_lut_job_resolves_majority(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        session = scheduler.session("alice")
        bits = [1, 0, 1]
        handle = session.submit_lut(
            0xE8, [encrypt_bit(secret, b, rng=600 + i) for i, b in enumerate(bits)]
        )
        scheduler.flush()
        assert decrypt_bit(secret, handle.result()) == 1  # MAJ3(1, 0, 1)

    def test_lut_rows_bit_identical_to_scalar_evaluator(
        self, scheduler, tiny_keys_naive
    ):
        secret, cloud = tiny_keys_naive
        evaluator = TFHEGateEvaluator(cloud)
        inputs = [encrypt_bit(secret, b, rng=610 + i) for i, b in enumerate((1, 1, 0))]
        handle = scheduler.session("alice").submit_lut(0x96, inputs)
        scheduler.flush()
        expected = evaluator.lut(0x96, inputs)
        got = handle.result()
        assert np.array_equal(got.a, expected.a)
        assert np.int32(got.b) == np.int32(expected.b)

    def test_infeasible_table_fails_at_submit(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        session = scheduler.session("alice")
        inputs = [encrypt_bit(secret, 0, rng=620 + i) for i in range(4)]
        with pytest.raises(ValueError, match="no.*single-bootstrap"):
            session.submit_lut(0x1669, inputs)
        assert scheduler.pending_jobs == 0  # nothing was enqueued

    def test_gates_and_luts_share_one_call(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        session = scheduler.session("alice")
        lut_handle = session.submit_lut(
            0x96, [encrypt_bit(secret, b, rng=630 + i) for i, b in enumerate((1, 1, 1))]
        )
        gate_handle = session.submit_gate(
            "xor", encrypt_bit(secret, 1, rng=640), encrypt_bit(secret, 0, rng=641)
        )
        rows = scheduler.flush()
        assert rows == 2
        assert scheduler.stats.batched_calls == 1  # one mixed fused rotation
        assert decrypt_bit(secret, lut_handle.result()) == 1  # XOR3(1,1,1)
        assert decrypt_bit(secret, gate_handle.result()) == 1

    def test_chained_lut_handles(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        session = scheduler.session("alice")
        first = session.submit_gate(
            "and", encrypt_bit(secret, 1, rng=650), encrypt_bit(secret, 1, rng=651)
        )
        second = session.submit_lut(
            0xE8,
            [first, encrypt_bit(secret, 1, rng=652), encrypt_bit(secret, 0, rng=653)],
        )
        scheduler.flush()
        assert scheduler.stats.batched_calls == 2  # dependency forces two rounds
        assert decrypt_bit(secret, second.result()) == 1  # MAJ3(1, 1, 0)

    def test_luts_coalesce_with_lut_pipelined_circuits(
        self, scheduler, tiny_keys_naive
    ):
        from repro.compiler.passes import LUT_PIPELINE, PassManager

        secret, _ = tiny_keys_naive
        width = 3
        circuit = PassManager(passes=LUT_PIPELINE, verify=True, trials=8, rng=6).run(
            adder_netlist(width)
        )
        depth = schedule_circuit(circuit).depth
        circuit_handle = scheduler.session("alice").submit_circuit(
            circuit,
            {
                "a": encrypt_integer(secret, 5, width, rng=660),
                "b": encrypt_integer(secret, 6, width, rng=661),
            },
        )
        lut_handle = scheduler.session("alice").submit_lut(
            0x6996,
            [encrypt_bit(secret, b, rng=670 + i) for i, b in enumerate((1, 0, 1, 1))],
        )
        scheduler.flush()
        # The standalone lut rode along with the circuit's first level.
        assert scheduler.stats.batched_calls == depth
        assert decrypt_bit(secret, lut_handle.result()) == 1  # parity of 3 ones
        total = bits_to_int(decrypt_bits(secret, circuit_handle.result()["sum"]))
        assert total == 11


class TestZeroLevelCircuitJobs:
    """Optimized circuits can shrink to zero bootstrapped levels; the
    scheduler must resolve them without a flush and still keep honest
    stats when they coalesce with real work."""

    @staticmethod
    def _constant_only_circuit():
        from repro.tfhe.netlist import Circuit

        c = Circuit("const_out")
        c.inputs("a", 2)
        c.output("out", [c.constant(1), c.constant(0)])
        return c

    @staticmethod
    def _passthrough_circuit():
        from repro.tfhe.netlist import Circuit

        c = Circuit("passthrough")
        a = c.inputs("a", 2)
        c.output("out", [c.copy(a[0]), c.not_(a[1])])
        return c

    def test_constant_only_outputs_resolve_at_submit(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        session = scheduler.session("alice")
        handle = session.submit_circuit(
            self._constant_only_circuit(),
            {"a": encrypt_integer(secret, 2, 2, rng=900)},
        )
        assert handle.done  # zero bootstrapped levels: no flush needed
        assert scheduler.stats.jobs_completed == 1
        assert scheduler.pending_jobs == 0
        assert scheduler.flush() == 0  # nothing left to bootstrap
        bits = [decrypt_bit(secret, bit) for bit in handle.result()["out"]]
        assert bits == [1, 0]

    def test_copy_not_only_outputs_resolve_at_submit(self, scheduler, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        session = scheduler.session("alice")
        handle = session.submit_circuit(
            self._passthrough_circuit(),
            {"a": encrypt_integer(secret, 0b01, 2, rng=901)},
        )
        assert handle.done
        assert scheduler.stats.jobs_completed == 1
        bits = [decrypt_bit(secret, bit) for bit in handle.result()["out"]]
        assert bits == [1, 1]  # copy(1), not(0)

    def test_optimizer_shrunk_traced_circuit_resolves_at_submit(
        self, scheduler, tiny_keys_naive
    ):
        from repro.compiler import FheUint4, fhe_select, optimize, trace

        secret, _ = tiny_keys_naive
        circuit = optimize(
            trace(lambda a: fhe_select(a == a, 5, 1), FheUint4("a")), verify=True
        )
        assert schedule_circuit(circuit).depth == 0
        session = scheduler.session("alice")
        handle = session.submit_circuit(
            circuit, {"a": encrypt_integer(secret, 7, 4, rng=902)}
        )
        assert handle.done
        assert bits_to_int(decrypt_bits(secret, handle.result()["out"])) == 5

    def test_mixed_gate_and_zero_level_circuit_coalescing(
        self, scheduler, tiny_keys_naive
    ):
        # One session's circuit collapses to zero levels while another
        # session's gates still need bootstraps: the flush must batch only
        # the real rows and complete every job exactly once in the stats.
        secret, _ = tiny_keys_naive
        shrunk = scheduler.session("alice")
        gates = scheduler.session("alice")
        circuit_handle = shrunk.submit_circuit(
            self._constant_only_circuit(),
            {"a": encrypt_integer(secret, 1, 2, rng=903)},
        )
        gate_handles = [
            gates.submit_gate(
                "and",
                encrypt_bit(secret, 1, rng=910 + i),
                encrypt_bit(secret, 1, rng=920 + i),
            )
            for i in range(3)
        ]
        assert circuit_handle.done
        assert scheduler.pending_jobs == 3
        rows = scheduler.flush()
        assert rows == 3  # the zero-level circuit contributed no rows
        assert scheduler.stats.batched_calls == 1
        assert scheduler.stats.jobs_completed == 4
        for handle in gate_handles:
            assert decrypt_bit(secret, handle.result()) == 1
        bits = [decrypt_bit(secret, bit) for bit in circuit_handle.result()["out"]]
        assert bits == [1, 0]

    def test_zero_level_job_between_flushes_of_chained_work(
        self, scheduler, tiny_keys_naive
    ):
        # A chained gate (operand is a pending handle) forces two rounds in
        # one flush; a zero-level circuit submitted alongside must neither
        # add rows nor deadlock the round loop.
        secret, _ = tiny_keys_naive
        session = scheduler.session("alice")
        first = session.submit_gate(
            "and",
            encrypt_bit(secret, 1, rng=930),
            encrypt_bit(secret, 1, rng=931),
        )
        chained = session.submit_gate(
            "or", first, encrypt_bit(secret, 0, rng=932)
        )
        zero = session.submit_circuit(
            self._passthrough_circuit(),
            {"a": encrypt_integer(secret, 0b10, 2, rng=933)},
        )
        assert zero.done
        rows = scheduler.flush()
        assert rows == 2  # the two chained gates, one per round
        assert decrypt_bit(secret, chained.result()) == 1
        assert scheduler.stats.jobs_completed == 3


# --------------------------------------------------------------------------- #
# one resident context per distinct cloud key                                 #
# --------------------------------------------------------------------------- #


def _wire_copy(cloud):
    """A byte-identical key in fresh arrays — what a second upload decodes to."""
    return from_bytes(to_bytes(cloud))


def _gate_operands(secret, seed):
    return encrypt_bit(secret, 1, rng=seed), encrypt_bit(secret, 0, rng=seed + 1)


class TestResidentKeys:
    def test_identical_keys_share_one_context_and_one_call(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        tel = Telemetry()
        shared = BatchScheduler(telemetry=tel)
        context = shared.register_client("a", cloud)
        assert shared.register_client("b", _wire_copy(cloud)) is context
        assert shared.client_context("a") is shared.client_context("b")
        assert len(shared.residents) == 1

        operands = {"a": _gate_operands(secret, 700), "b": _gate_operands(secret, 710)}
        handles = {
            cid: shared.session(cid).submit_gate("nand", *operands[cid])
            for cid in ("a", "b")
        }
        assert shared.flush() == 2
        assert shared.stats.batched_calls == 1
        snap = tel.registry.snapshot()
        assert snap["fhe_batched_calls_total"]["series"][0]["value"] == 1
        (widths,) = snap["fhe_rows_per_call"]["series"]
        assert (widths["count"], widths["sum"]) == (1, 2)

        # A row's output does not depend on which other rows share its call.
        for cid in ("a", "b"):
            alone = BatchScheduler()
            alone.register_client(cid, cloud)
            want = alone.session(cid).submit_gate("nand", *operands[cid])
            alone.flush()
            got = handles[cid].result()
            assert np.array_equal(got.a, want.result().a)
            assert np.int32(got.b) == np.int32(want.result().b)
            assert decrypt_bit(secret, got) == 1

    def test_a_prebuilt_context_is_shared_by_identity_only(self, tiny_keys_naive):
        _, cloud = tiny_keys_naive
        scheduler = BatchScheduler()
        prebuilt = FheContext(cloud)
        assert scheduler.register_client("a", prebuilt) is prebuilt
        assert scheduler.register_client("b", prebuilt) is prebuilt
        # A second context over the key is not "the same object"...
        assert scheduler.register_client("c", FheContext(cloud)) is not prebuilt
        assert len(scheduler.residents) == 2
        # ...while the key itself is held already, whoever built its context.
        assert scheduler.register_client("d", cloud) is prebuilt
        assert len(scheduler.residents) == 2

    def test_different_keys_and_unrollings_do_not_share(self):
        engine = DoubleFFTNegacyclicTransform(TEST_TINY.N)
        secret = generate_secret_key(TEST_TINY, rng=90)
        cloud = generate_cloud_key(secret, engine, 1, rng=91, eager=False)
        _, other = generate_keys(TEST_TINY, engine, rng=92, eager=False)
        unrolled = generate_cloud_key(secret, engine, 2, rng=91, eager=False)
        scheduler = BatchScheduler()
        contexts = [
            scheduler.register_client("base", cloud),
            scheduler.register_client("other-key", other),
            scheduler.register_client("unrolled", unrolled),
        ]
        assert len({id(context) for context in contexts}) == 3
        assert len(scheduler.residents) == 3

    def test_the_same_key_always_lands_on_one_resident(self):
        # Nothing but the key's arrays decides: not who registers, not when,
        # not which engine the resident runs on by now.
        _, cloud = generate_keys(
            TEST_TINY, DoubleFFTNegacyclicTransform(TEST_TINY.N), rng=93, eager=False
        )
        scheduler = BatchScheduler()
        first = scheduler.register_client("a", _wire_copy(cloud))
        assert scheduler.register_client("b", _wire_copy(cloud)) is first
        engine = first.engine
        first.failover("injected")
        assert first.engine is not engine
        assert scheduler.register_client("c", _wire_copy(cloud)) is first
        assert len(scheduler.residents) == 1
        # A different key of the same kind gets its own resident, on its
        # own engine of that kind.
        _, other = generate_keys(
            TEST_TINY, DoubleFFTNegacyclicTransform(TEST_TINY.N), rng=94, eager=False
        )
        fresh = scheduler.register_client("d", _wire_copy(other))
        assert fresh is not first
        assert fresh.engine.engine_kind == "double"
        assert len(scheduler.residents) == 2

    def test_same_cloud_key_is_exact_and_compares_cheapest_first(
        self, tiny_keys_naive, monkeypatch
    ):
        _, cloud = tiny_keys_naive
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(
            np, "array_equal", lambda x, y: compared.append(x.nbytes) or array_equal(x, y)
        )
        twin = _wire_copy(cloud)
        assert same_cloud_key(cloud, twin)
        # every TGSW sample, then the (largest) key-switching table
        assert len(compared) == TEST_TINY.n + 1 and compared[-1] == max(compared)

        twin.keyswitch_key.data[-1, -1, -1, -1] ^= 1  # the very last word compared
        assert not same_cloud_key(cloud, twin)
        del compared[:]
        _, other = generate_keys(TEST_TINY, NaiveNegacyclicTransform(TEST_TINY.N), rng=79)
        assert not same_cloud_key(cloud, other)
        assert len(compared) == 1  # a different key is told apart at its first sample
        del compared[:]
        assert not same_cloud_key(cloud, dataclasses.replace(cloud, unroll_factor=2))
        assert not compared  # ...and a different shape of key before any array

    def test_handles_do_not_cross_clients_of_one_key(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        scheduler = BatchScheduler()
        scheduler.register_client("a", cloud)
        scheduler.register_client("b", _wire_copy(cloud))
        handle = scheduler.session("a").submit_gate("nand", *_gate_operands(secret, 720))
        with pytest.raises(ValueError, match="different clients"):
            scheduler.session("b").submit_gate("and", handle, handle)
        scheduler.flush()

    def test_forced_deregistration_aborts_only_that_clients_jobs(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        scheduler = BatchScheduler()
        scheduler.register_client("a", cloud)
        scheduler.register_client("b", _wire_copy(cloud))
        doomed = [
            scheduler.session("a").submit_gate("nand", *_gate_operands(secret, 730 + 2 * i))
            for i in range(2)
        ]
        kept = scheduler.session("b").submit_gate("or", *_gate_operands(secret, 740))
        scheduler.deregister_client("a", force=True)
        assert scheduler.pending_jobs == 1
        assert scheduler.flush() == 1
        for handle in doomed:
            with pytest.raises(JobAborted):
                handle.result()
        assert decrypt_bit(secret, kept.result()) == 1
        assert scheduler.stats.jobs_aborted == 2
        assert scheduler.client_context("b").spectra_cached  # the key stayed resident

    def test_deregistration_racing_the_dispatch_spares_the_other_sharer(
        self, tiny_keys_naive
    ):
        secret, cloud = tiny_keys_naive

        class DeregisterMidDispatch(InlineDispatcher):
            def run_rows(self, *args, **kwargs):
                scheduler.deregister_client("a", force=True)
                return super().run_rows(*args, **kwargs)

        scheduler = BatchScheduler(dispatcher=DeregisterMidDispatch())
        scheduler.register_client("a", cloud)
        scheduler.register_client("b", _wire_copy(cloud))
        doomed = scheduler.session("a").submit_gate("nand", *_gate_operands(secret, 750))
        kept = scheduler.session("b").submit_gate("nand", *_gate_operands(secret, 752))
        assert scheduler.flush() == 2  # both rows were already in the call
        with pytest.raises(JobAborted):
            doomed.result()
        assert decrypt_bit(secret, kept.result()) == 1
        assert scheduler.pending_jobs == 0
        assert (scheduler.stats.jobs_completed, scheduler.stats.jobs_aborted) == (1, 1)

    def test_engine_failover_on_a_shared_key_replays_the_round_once(self):
        engine = DoubleFFTNegacyclicTransform(TEST_TINY.N)
        secret, cloud = generate_keys(TEST_TINY, engine, rng=93, eager=False)
        operands = {"a": _gate_operands(secret, 760), "b": _gate_operands(secret, 770)}
        bare = TFHEGateEvaluator(FheContext(cloud))
        scheduler = BatchScheduler()
        context = scheduler.register_client("a", cloud)
        scheduler.register_client("b", _wire_copy(cloud))
        flaky = FlakyEngine(context.engine, fail_on_call=3)
        context.engine = flaky
        faulted_workspace = context.workspace
        handles = {
            cid: scheduler.session(cid).submit_gate("xor", *operands[cid])
            for cid in ("a", "b")
        }
        assert scheduler.flush() == 2
        assert scheduler.stats.engine_failovers == 1
        assert scheduler.stats.batched_calls == 1  # the faulted attempt issued none
        assert scheduler.client_context("b") is context
        assert context.engine is not flaky and context.engine.engine_kind == "double"
        assert context.workspace is not faulted_workspace
        assert faulted_workspace.nbytes == 0
        for cid in ("a", "b"):
            want = bare.gate("xor", *operands[cid])
            got = handles[cid].result()
            assert np.array_equal(got.a, want.a)
            assert np.int32(got.b) == np.int32(want.b)


class TestKeyMemoryLeavesWithItsLastClient:
    """Checked with the cyclic collector off: the evaluators point back at the
    context, so only ``release()`` — not refcounting alone — frees it."""

    @pytest.fixture(autouse=True)
    def _no_cyclic_gc(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_context_and_key_die_at_the_last_deregistration(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        scheduler = BatchScheduler()
        scheduler.register_client("a", _wire_copy(cloud))
        scheduler.register_client("b", _wire_copy(cloud))
        context_ref = weakref.ref(scheduler.client_context("a"))
        key_ref = weakref.ref(scheduler.client_context("a").cloud_key)
        for cid in ("a", "b"):
            scheduler.session(cid).submit_gate("nand", *_gate_operands(secret, 780))
        scheduler.flush()
        assert context_ref().spectra_cached

        scheduler.deregister_client("a")  # the first registrant leaves
        assert context_ref() is not None and key_ref() is not None
        assert context_ref().spectra_cached
        scheduler.deregister_client("b")
        assert scheduler.residents == []
        assert context_ref() is None and key_ref() is None

    def test_a_released_context_still_held_rebuilds_on_next_use(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        context = FheContext(cloud)
        scheduler = BatchScheduler()
        scheduler.register_client("a", context)
        ca, cb = _gate_operands(secret, 790)
        first = scheduler.session("a").submit_gate("nand", ca, cb)
        scheduler.flush()
        scheduler.deregister_client("a")
        assert not context.spectra_cached and context.cached_tgsw_samples == 0

        again = TFHEGateEvaluator(context).nand(ca, cb)
        assert context.spectra_cached
        assert np.array_equal(again.a, first.result().a)
        assert context.batch_evaluator(4) is context.batch_evaluator(4)


# --------------------------------------------------------------------------- #
# pending_jobs is a count, equal to the walk it replaced                      #
# --------------------------------------------------------------------------- #


def _walked_pending(scheduler):
    return sum(
        1
        for resident in scheduler.residents
        for queue in resident.queues.values()
        for job in queue
        if not job.done
    )


@pytest.mark.parametrize("seed", range(6))
def test_pending_jobs_count_matches_the_walk(tiny_keys_naive, seed):
    secret, cloud = tiny_keys_naive
    rng = np.random.default_rng(seed)
    scheduler = BatchScheduler()
    clients = ["a", "b", "c"]  # a and b share a key, c brings its own context
    keys = {"a": cloud, "b": cloud, "c": FheContext(cloud)}
    for cid in clients:
        scheduler.register_client(cid, keys[cid])
    one, zero = encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 0, rng=2)
    handles = {cid: [] for cid in clients}  # live and stale (failed) handles alike

    for _ in range(40):
        cid = clients[rng.integers(len(clients))]
        action = rng.choice(["gate", "chain", "lut", "circuit", "flush", "drop"],
                            p=[0.3, 0.25, 0.1, 0.1, 0.15, 0.1])
        session = scheduler.session(cid)
        if action == "gate":
            handles[cid].append(session.submit_gate("nand", one, zero))
        elif action == "chain" and handles[cid]:
            # may pick a handle a forced deregistration failed: its dependent
            # is settled (not bootstrapped) by the next flush
            operand = handles[cid][rng.integers(len(handles[cid]))]
            handles[cid].append(session.submit_gate("and", operand, one))
        elif action == "lut":
            handles[cid].append(session.submit_lut(0x96, [one, zero, one]))
        elif action == "circuit":
            session.submit_circuit(adder_netlist(2), {"a": [one, zero], "b": [zero, one]})
        elif action == "flush":
            scheduler.flush()
            assert scheduler.pending_jobs == 0
        elif action == "drop":
            scheduler.deregister_client(cid, force=True)
            scheduler.register_client(cid, keys[cid])
        assert scheduler.pending_jobs == _walked_pending(scheduler)
    scheduler.flush()
    assert scheduler.pending_jobs == _walked_pending(scheduler) == 0
