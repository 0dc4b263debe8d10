"""Client/server round trip through serialized keys and the batch scheduler.

Two clients each generate a keypair and write the *cloud* half to disk with
:mod:`repro.tfhe.serialize` (the secret halves never leave the client).  A
server process loads the cloud keys, registers each under a client id in a
:class:`repro.runtime.BatchScheduler`, and serves several concurrent sessions
per client: single-gate jobs and a whole encrypted-adder circuit job arrive
interleaved, and the scheduler coalesces every job that shares a cloud key
into single mixed-gate batched bootstrappings (different clients' keys can
never share a bootstrap — their ciphertexts are algebraically incompatible).
Results travel back as serialized ciphertexts and only the owning client can
decrypt them.

Run:  python examples/runtime_server.py [--width 6] [--sessions 4]
"""

from __future__ import annotations

import argparse
import pathlib
import tempfile
import time

from repro.tfhe.circuits import bits_to_int, encrypt_integer
from repro.tfhe.gates import decrypt_bit, decrypt_bits, encrypt_bit
from repro.tfhe.keys import TFHECloudKey, generate_keys
from repro.tfhe.lwe import LweSample
from repro.tfhe.netlist import adder_netlist
from repro.tfhe.params import TEST_TINY
from repro.tfhe.serialize import load, save
from repro.tfhe.transform import DoubleFFTNegacyclicTransform
from repro.runtime import BatchScheduler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=6, help="adder bit width")
    parser.add_argument(
        "--sessions", type=int, default=4, help="gate sessions per client"
    )
    args = parser.parse_args()

    params = TEST_TINY
    print(f"Parameter set : {params.describe()}")
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-runtime-"))

    # --- client side: keygen + serialization --------------------------------
    clients = {}
    for name, seed in (("alice", 11), ("bob", 22)):
        transform = DoubleFFTNegacyclicTransform(params.N)
        # eager=False: the client only ships the key; the server's context
        # builds the spectrum cache when it loads it.
        secret, cloud = generate_keys(
            params, transform, unroll_factor=1, rng=seed, eager=False
        )
        cloud_path = workdir / f"{name}.cloud.tfhe"
        save(cloud_path, cloud)
        clients[name] = {"secret": secret, "cloud_path": cloud_path}
        print(
            f"{name}: cloud key serialized to {cloud_path.name} "
            f"({cloud_path.stat().st_size / 1024:.0f} KiB)"
        )

    # --- server side: load keys, open sessions, coalesce jobs ---------------
    scheduler = BatchScheduler()
    for name, entry in clients.items():
        cloud = load(entry["cloud_path"])
        assert isinstance(cloud, TFHECloudKey), f"{entry['cloud_path']} holds no cloud key"
        scheduler.register_client(name, cloud)

    jobs = []
    for name, entry in clients.items():
        secret = entry["secret"]
        # Several single-gate sessions per client ...
        for i in range(args.sessions):
            session = scheduler.session(name)
            bit_a, bit_b = i & 1, (i >> 1) & 1
            ct_path = workdir / f"{name}.gate{i}.tfhe"
            save(ct_path, encrypt_bit(secret, bit_a, rng=100 + i))
            ca = load(ct_path)  # ciphertexts travel as files too
            assert isinstance(ca, LweSample), f"{ct_path} holds no LWE sample"
            cb = encrypt_bit(secret, bit_b, rng=200 + i)
            handle = session.submit_gate("nand", ca, cb)
            jobs.append(("gate", name, (bit_a, bit_b), handle))
        # ... plus one whole encrypted-adder circuit job.
        a_val, b_val = 19 % (1 << args.width), 7 % (1 << args.width)
        circuit_session = scheduler.session(name)
        handle = circuit_session.submit_circuit(
            adder_netlist(args.width),
            {
                "a": encrypt_integer(secret, a_val, args.width, rng=300),
                "b": encrypt_integer(secret, b_val, args.width, rng=301),
            },
        )
        jobs.append(("add", name, (a_val, b_val), handle))

    start = time.perf_counter()
    rows = scheduler.flush()
    elapsed = time.perf_counter() - start
    stats = scheduler.stats
    print(
        f"flush: {rows} rows in {stats.batched_calls} batched bootstrapping "
        f"calls (mean fill {stats.mean_rows_per_call:.1f} rows/call) "
        f"in {elapsed:.2f} s"
    )

    # --- client side again: decrypt and verify ------------------------------
    for kind, name, payload, handle in jobs:
        secret = clients[name]["secret"]
        if kind == "gate":
            bit_a, bit_b = payload
            result_path = workdir / f"{name}.result.tfhe"
            save(result_path, handle.result())
            reply = load(result_path)
            assert isinstance(reply, LweSample), f"{result_path} holds no LWE sample"
            got = decrypt_bit(secret, reply)
            expected = 1 - (bit_a & bit_b)
            status = "ok" if got == expected else "WRONG"
            print(f"{name}: NAND({bit_a}, {bit_b}) -> {got} [{status}]")
            assert got == expected
        else:
            a_val, b_val = payload
            got = bits_to_int(decrypt_bits(secret, handle.result()["sum"]))
            status = "ok" if got == a_val + b_val else "WRONG"
            print(f"{name}: {a_val} + {b_val} = {got} [{status}]")
            assert got == a_val + b_val
    print("all results decrypted correctly by their owning clients")


if __name__ == "__main__":
    main()
