"""Multiple network clients sharing one serving front (and its worker pool).

Spawns ``tools/serve.py`` as a real server process (or connects to one you
already started with ``--connect HOST:PORT``), then runs several concurrent
clients.  Each client generates its **own** keypair, uploads only the cloud
half over the wire, pipelines a burst of gate requests plus one compiled
adder circuit, and decrypts the replies with the secret half that never left
it.  The server coalesces whatever arrives inside one flush window into
batched bootstrappings and — with ``--workers N`` — shards those rows across
worker processes that map one shared copy of each client's key spectra.

With ``--resilient`` every client runs through
:class:`repro.runtime.resilient.ResilientClient` instead, and client 0 kills
its own socket halfway through the burst: the retry layer reconnects,
re-registers the key (answered from the server's session cache) and resubmits
the unacknowledged gates under their original request ids, so every result
still verifies and nothing runs twice (see ``docs/operations.md``).

Run:  python examples/serving_clients.py [--clients 3] [--gates 8] [--workers 2] [--resilient]
"""

from __future__ import annotations

import argparse
import pathlib
import socket
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.runtime.protocol import ServingClient, pack_parts, unpack_parts  # noqa: E402
from repro.runtime.resilient import ResilientClient  # noqa: E402
from repro.telemetry import parse_prometheus_text  # noqa: E402
from repro.tfhe.serialize import from_bytes, to_bytes  # noqa: E402
from repro.tfhe.circuits import bits_to_int, encrypt_integer  # noqa: E402
from repro.tfhe.gates import decrypt_bit, decrypt_bits, encrypt_bit  # noqa: E402
from repro.tfhe.keys import generate_keys  # noqa: E402
from repro.tfhe.lwe import LweBatch  # noqa: E402
from repro.tfhe.netlist import adder_netlist  # noqa: E402
from repro.tfhe.params import TEST_TINY  # noqa: E402
from repro.tfhe.transform import DoubleFFTNegacyclicTransform  # noqa: E402


def start_server(workers: int) -> tuple[subprocess.Popen, int]:
    """Launch ``tools/serve.py`` on a free port; returns (process, port)."""
    process = subprocess.Popen(
        [
            sys.executable,
            str(ROOT / "tools" / "serve.py"),
            "--port",
            "0",
            "--workers",
            str(workers),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert process.stdout is not None
    line = process.stdout.readline()  # "repro-serve listening on host:port"
    if "listening on" not in line:
        process.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    return process, int(line.rsplit(":", 1)[1])


def run_client(
    name: str,
    seed: int,
    port: int,
    gates: int,
    width: int,
    report: dict,
    resilient: bool = False,
    inject_disconnect: bool = False,
) -> None:
    params = TEST_TINY
    secret, cloud = generate_keys(
        params,
        DoubleFFTNegacyclicTransform(params.N),
        unroll_factor=1,
        rng=seed,
        eager=False,
    )
    if resilient:
        client = ResilientClient(port=port, base_delay=0.01, session=f"demo-{name}")
    else:
        client = ServingClient(port=port)
    with client:
        client.register_key(cloud)

        # Pipeline a burst of gates: submit all, then collect all, so the
        # server can coalesce them (plus other clients' bursts) per flush.
        cases = [(i & 1, (i >> 1) & 1) for i in range(gates)]
        ids = []
        for i, (a, b) in enumerate(cases):
            ca = encrypt_bit(secret, a, rng=seed * 1000 + 2 * i)
            cb = encrypt_bit(secret, b, rng=seed * 1000 + 2 * i + 1)
            if resilient:
                ids.append(
                    client.submit(
                        "gate", pack_parts([to_bytes(ca), to_bytes(cb)]), gate="nand"
                    )
                )
            else:
                ids.append(client.submit_gate("nand", ca, cb))

        if resilient and inject_disconnect and client._client is not None:
            # Kill the socket under the retry layer: the next result() must
            # reconnect, re-register and resubmit without losing a job.
            client._client._sock.shutdown(socket.SHUT_RDWR)

        for (a, b), request_id in zip(cases, ids):
            if resilient:
                _, body = client.result(request_id)
                sample = from_bytes(unpack_parts(body, expected=1)[0])
            else:
                sample = client.gate_result(request_id)
            got = decrypt_bit(secret, sample)
            assert got == 1 - (a & b), f"{name}: NAND({a},{b}) -> {got}"

        # One compiled circuit: an encrypted adder over wire-borne inputs.
        a_val, b_val = (19 + seed) % (1 << width), (7 + seed) % (1 << width)
        bits = encrypt_integer(secret, a_val, width, rng=seed + 500)
        bits += encrypt_integer(secret, b_val, width, rng=seed + 600)
        out = client.run_circuit(adder_netlist(width), LweBatch.from_samples(bits))
        samples = out.to_samples()
        total = bits_to_int(decrypt_bits(secret, samples[:width]))
        assert total == (a_val + b_val) % (1 << width), f"{name}: bad sum {total}"
        line = f"{gates} gates ok, {a_val} + {b_val} = {total} ok"
        if resilient:
            stats = client.stats
            line += f" ({stats.reconnects} reconnects, {stats.resubmitted} resubmitted)"
            if inject_disconnect:
                assert stats.reconnects >= 1, f"{name}: injected disconnect not exercised"
        report[name] = line


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=3, help="concurrent clients")
    parser.add_argument("--gates", type=int, default=8, help="pipelined gates per client")
    parser.add_argument("--width", type=int, default=4, help="adder bit width")
    parser.add_argument(
        "--workers", type=int, default=2, help="server worker processes (0 = inline)"
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="use an already-running server instead of spawning one",
    )
    parser.add_argument(
        "--resilient",
        action="store_true",
        help="run clients through ResilientClient and inject one disconnect",
    )
    args = parser.parse_args()

    process = None
    if args.connect:
        host, port = args.connect.rsplit(":", 1)
        port = int(port)
        print(f"connecting to {host}:{port}")
    else:
        process, port = start_server(args.workers)
        print(f"spawned tools/serve.py (pid {process.pid}, {args.workers} workers) on port {port}")

    try:
        report: dict = {}
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=run_client,
                args=(f"client{i}", 11 + 7 * i, port, args.gates, args.width, report),
                kwargs={
                    "resilient": args.resilient,
                    # Client 0 loses its connection mid-burst; the retry layer
                    # must recover it without losing or duplicating a job.
                    "inject_disconnect": args.resilient and i == 0,
                },
            )
            for i in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if len(report) != args.clients:
            raise SystemExit(f"only {len(report)}/{args.clients} clients finished")
        for name in sorted(report):
            print(f"{name}: {report[name]}")

        # The server's one read-out: its Prometheus scrape.
        with ServingClient(port=port) as client:
            _, body = client.call("metrics_prom")
        scraped = {
            name: sum(value for sample, _labels, value in family["samples"] if sample == name)
            for name, family in parse_prometheus_text(body.decode("utf-8")).items()
        }
        rows = scraped["fhe_rows_bootstrapped_total"]
        busy = scraped["fhe_server_busy_seconds_total"]
        calls = scraped["fhe_batched_calls_total"]
        print(
            f"{args.clients} clients in {elapsed:.2f} s | server: "
            f"{rows:.0f} rows in {scraped['fhe_flushes_total']:.0f} flushes, "
            f"{rows / busy if busy else 0.0:.0f} bootstraps/s, "
            f"mean fill {rows / calls if calls else 0.0:.1f} rows/call"
        )
        print(
            f"sessions: {scraped['fhe_sessions_active']:.0f} held, "
            f"{scraped['fhe_jobs_deduped_total']:.0f} deduped retries, "
            f"{scraped['fhe_jobs_completed_total']:.0f} jobs each executed exactly once"
        )
        if "fhe_pool_workers_alive" in scraped:
            print(
                f"worker pool: {scraped['fhe_pool_workers_alive']:.0f} workers alive, "
                f"{scraped['fhe_pool_worker_restarts_total']:.0f} restarts"
            )
        print("all clients verified their results")
    finally:
        if process is not None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)


if __name__ == "__main__":
    main()
