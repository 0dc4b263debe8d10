"""The ledger's load generator: a real server child and a closed request loop.

One process, one thread, at most two connections.  Each connection keeps a
fixed number of requests outstanding and sends the next one when a reply
arrives (closed loop: callers of an FHE service wait for their ciphertext).
Every reply is decrypted with the secret key that never left this process
and compared with the plaintext result; a wrong value, an error reply or a
timeout is a failed op.

Bytes are counted on the sockets themselves and attributed to the op whose
frames they were, so ``wire_bytes_per_op`` is a count, not an estimate.
"""

from __future__ import annotations

import os
import pathlib
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime.protocol import (
    ServingClient,
    encode_frame,
    pack_parts,
    read_frame,
    unpack_parts,
)
from repro.telemetry import parse_prometheus_text
from repro.tfhe.serialize import from_bytes, to_bytes

from serve_launch import MAX_FRAME
from workloads import Inputs, RequestStream

HERE = pathlib.Path(__file__).resolve().parent
#: A closed loop that sees no reply for this long fails its outstanding ops.
REPLY_TIMEOUT = 60.0
LAUNCH_TIMEOUT = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------- #
# the server child                                                            #
# --------------------------------------------------------------------------- #


class ServerProcess:
    """``serve_launch.py`` as a child process; ``host``/``port`` once listening."""

    def __init__(self, workers: int, cpus: Optional[Sequence[int]]) -> None:
        command = [sys.executable, str(HERE / "serve_launch.py"), "--workers", str(workers)]
        if cpus:
            command += ["--cpus", ",".join(str(c) for c in cpus)]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + LAUNCH_TIMEOUT
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([stdout], [], [], max(remaining, 0.0))
            line = stdout.readline() if ready else ""
            if not line:
                raise RuntimeError(
                    f"server child did not start listening (exit code {self.process.poll()})"
                )
            if "listening on" in line:
                host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
                return host, int(port)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait; SIGKILL the tree if it does not exit."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                for pid in process_tree(process.pid)[::-1]:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant (pool workers included), parents first."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items() if parent == pid)
    return tree


def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system CPU seconds consumed so far by the processes ``pids``."""
    total = 0
    for pid in pids:
        try:
            fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLK_TCK


def peak_rss_mib(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the processes ``pids``, MiB."""
    total_kib = 0
    for pid in pids:
        try:
            status = pathlib.Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


# --------------------------------------------------------------------------- #
# connections and the closed loop                                             #
# --------------------------------------------------------------------------- #


class Op:
    """One request's timeline, byte counts and verdict."""

    __slots__ = ("connection", "submit", "done", "bytes", "expected", "ok", "error", "span")

    def __init__(self, connection: int, submit: float, expected: Any) -> None:
        self.connection = connection
        self.submit = submit
        self.done = 0.0
        self.bytes = 0
        self.expected = expected
        self.ok = False
        self.error: Optional[str] = None
        self.span: Optional[int] = None  # index of this op's root span when traced

    @property
    def latency(self) -> float:
        return self.done - self.submit


class SpanRecorder:
    """Spans kept in memory until the run ends: name, start, end, parent, trace."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Optional[int], str]] = []

    def add(self, name: str, start: float, end: float, parent: Optional[int], trace: str) -> int:
        self.spans.append((name, start, end, parent, trace))
        return len(self.spans) - 1

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "trace": t}
            for i, (n, s, e, p, t) in enumerate(self.spans)
        ]


class Connection:
    """One generator socket speaking the serving protocol, counting its bytes."""

    def __init__(self, index: int, server: ServerProcess, stream: RequestStream) -> None:
        self.index = index
        self.stream = stream
        self.sock = socket.create_connection((server.host, server.port), timeout=REPLY_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.received = 0
        self.next_id = 0
        self.inflight: Dict[int, Op] = {}
        self.submitted = 0

    def recv(self, count: int) -> bytes:  # the socket face read_frame() needs
        data = self.sock.recv(count)
        self.received += len(data)
        return data

    def close(self) -> None:
        self.sock.close()

    def register_key(self, cloud) -> None:
        self.sock.sendall(
            encode_frame({"op": "register_key", "id": self.next_id}, pack_parts([to_bytes(cloud)]))
        )
        self.next_id += 1
        header, _ = read_frame(self, MAX_FRAME)
        if "error" in header:
            raise RuntimeError(f"register_key failed: {header['error']}")

    def submit(self, recorder: Optional[SpanRecorder]) -> Op:
        """Encode and send this connection's next request."""
        op_name, fields, artifacts, expected = self.stream.next()
        request_id = self.next_id
        self.next_id += 1
        start = time.perf_counter()
        body = pack_parts([to_bytes(artifact) for artifact in artifacts])
        encoded = time.perf_counter()
        frame = encode_frame({"op": op_name, "id": request_id, **fields}, body)
        self.sock.sendall(frame)
        sent = time.perf_counter()
        op = Op(self.index, start, expected)
        op.bytes = len(frame)
        self.inflight[request_id] = op
        self.submitted += 1
        if recorder is not None:
            trace = f"c{self.index}-{request_id}"
            op.span = recorder.add("op", start, start, None, trace)  # end set on reply
            recorder.add("serialize.encode", start, encoded, op.span, trace)
            recorder.add("protocol.send", encoded, sent, op.span, trace)
        return op

    def receive(
        self, recorder: Optional[SpanRecorder], waited: Optional[Tuple[float, float]] = None
    ) -> Op:
        """Read one reply frame, parse it, stamp the op, then decrypt and check.

        ``waited`` is the ``select()`` interval that ended with this reply
        (given to the first reply handled after a wake-up only).
        """
        before = self.received
        begin = time.perf_counter()
        header, body = read_frame(self, MAX_FRAME)
        framed = time.perf_counter()
        op = self.inflight.pop(header.get("id"), None)
        if op is None:
            raise RuntimeError(f"reply to an unknown request: {header}")
        artifact = None
        if "error" in header:
            op.error = f"{header['error'].get('kind')}: {header['error'].get('message')}"
        else:
            artifact = from_bytes(unpack_parts(body, expected=1)[0])
        op.done = time.perf_counter()
        op.bytes += self.received - before
        if artifact is not None:
            value = self.stream.decrypt(artifact)
            op.ok = value == op.expected
            if not op.ok:
                op.error = f"decrypted {value}, expected {op.expected}"
        if recorder is not None and op.span is not None:
            checked = time.perf_counter()
            root = op.span
            name, start, _, parent, trace = recorder.spans[root]
            recorder.spans[root] = (name, start, checked, parent, trace)
            if waited is not None:
                sent_at = recorder.spans[root + 2][2]  # end of this op's protocol.send
                recorder.add("wait", max(sent_at, waited[0]), waited[1], root, trace)
            recorder.add("protocol.recv", begin, framed, root, trace)
            recorder.add("serialize.decode", framed, op.done, root, trace)
            recorder.add("gates.decrypt", op.done, checked, root, trace)
        return op


class ClosedLoop:
    """Keeps ``outstanding`` requests in flight on every connection.

    ``run`` may be called repeatedly (warm-up, then the measured window, ...);
    requests stay in flight between calls, so a later phase starts in steady
    state.  An op counts in the phase in which its reply was parsed.
    """

    def __init__(self, connections: Sequence[Connection], outstanding: int) -> None:
        self.connections = list(connections)
        self.outstanding = outstanding
        #: Where traced ops record their spans; ``tracing`` says whether the
        #: requests submitted from now on are traced (an op traced at submit
        #: completes its spans in whichever phase its reply arrives).
        self.recorder: Optional[SpanRecorder] = None
        self.tracing = False
        self.selector = selectors.DefaultSelector()
        for connection in self.connections:
            self.selector.register(connection.sock, selectors.EVENT_READ, connection)
        self.wait_seconds = 0.0  # time this thread spent blocked in select()

    def run(
        self, seconds: Optional[float] = None, ops_per_connection: Optional[int] = None
    ) -> List[Op]:
        """Drive the loop for ``seconds``, or until every connection has
        submitted (in total, over all calls) ``ops_per_connection`` requests
        and seen their replies."""
        completed: List[Op] = []
        deadline = None if seconds is None else time.perf_counter() + seconds

        def may_submit(connection: Connection) -> bool:
            return ops_per_connection is None or connection.submitted < ops_per_connection

        def submit(connection: Connection) -> None:
            connection.submit(self.recorder if self.tracing else None)

        for connection in self.connections:
            while len(connection.inflight) < self.outstanding and may_submit(connection):
                submit(connection)
        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if not any(connection.inflight for connection in self.connections):
                break
            blocked = time.perf_counter()
            events = self.selector.select(timeout=REPLY_TIMEOUT)
            woke = time.perf_counter()
            self.wait_seconds += woke - blocked
            if not events:
                completed.extend(self._fail_outstanding("timeout"))
                break
            waited: Optional[Tuple[float, float]] = (blocked, woke)
            for key, _ in events:
                connection = key.data
                op = connection.receive(self.recorder, waited)
                waited = None
                if may_submit(connection) and (deadline is None or op.done < deadline):
                    submit(connection)
                completed.append(op)
        return completed

    def drain(self) -> List[Op]:
        """Collect the replies still in flight without sending anything new."""
        completed: List[Op] = []
        while any(connection.inflight for connection in self.connections):
            events = self.selector.select(timeout=REPLY_TIMEOUT)
            if not events:
                completed.extend(self._fail_outstanding("timeout"))
                break
            for key, _ in events:
                completed.append(key.data.receive(self.recorder))
        return completed

    def _fail_outstanding(self, reason: str) -> List[Op]:
        failed = []
        for connection in self.connections:
            for op in connection.inflight.values():
                op.done = time.perf_counter()
                op.error = reason
                failed.append(op)
            connection.inflight.clear()
        return failed

    def close(self) -> None:
        self.selector.close()
        for connection in self.connections:
            connection.close()


def open_loop_connections(server: ServerProcess, inputs: Inputs) -> ClosedLoop:
    """Connect the workload's connections, upload the key on each, build the loop."""
    workload = inputs.workload
    connections = []
    for index in range(workload.connections):
        connection = Connection(index, server, inputs.stream(index))
        connection.register_key(inputs.cloud)
        connections.append(connection)
    return ClosedLoop(connections, workload.outstanding)


# --------------------------------------------------------------------------- #
# set-up cycles                                                               #
# --------------------------------------------------------------------------- #


def setup_cycle(
    inputs: Inputs, server_cpus: Optional[Sequence[int]]
) -> Tuple[float, ServerProcess]:
    """Launch → "listening" → ``register_key`` reply → first correct reply.

    What a user pays before the first answer, through the shipped
    :class:`ServingClient`.  Returns the cycle's seconds and the live server.
    """
    stream = inputs.stream(0)
    op_name, fields, artifacts, expected = stream.next()
    begin = time.perf_counter()
    server = ServerProcess(inputs.workload.workers, server_cpus)
    try:
        with ServingClient(server.host, server.port, max_frame=MAX_FRAME) as client:
            client.register_key(inputs.cloud)
            if op_name == "circuit":
                reply = client.run_circuit(inputs.circuit, artifacts[0])
            else:
                reply = client.gate(fields["gate"], artifacts[0], artifacts[1])
        seconds = time.perf_counter() - begin
        value = stream.decrypt(reply)
        if value != expected:
            raise RuntimeError(f"set-up: first reply decrypted {value}, expected {expected}")
    except BaseException:
        server.stop()
        raise
    return seconds, server


def run_setup_cycles(
    inputs: Inputs, server_cpus: Optional[Sequence[int]], cycles: int
) -> Tuple[List[float], ServerProcess]:
    """``cycles`` set-up cycles; the last server stays up.  Returns their seconds."""
    seconds: List[float] = []
    server: Optional[ServerProcess] = None
    for _ in range(cycles):
        if server is not None:
            server.stop()
        elapsed, server = setup_cycle(inputs, server_cpus)
        seconds.append(elapsed)
    if server is None:
        raise ValueError("at least one set-up cycle is needed")
    return seconds, server


# --------------------------------------------------------------------------- #
# the server's own counters                                                   #
# --------------------------------------------------------------------------- #


def server_counters(server: ServerProcess) -> Dict[str, float]:
    """The counters the server publishes through its ``metrics_prom`` op."""
    with ServingClient(server.host, server.port, max_frame=MAX_FRAME) as client:
        _, text = client.call("metrics_prom")
    families = parse_prometheus_text(text.decode("utf-8"))

    def total(family: str, **labels: str) -> float:
        return sum(
            value
            for _name, sample_labels, value in families.get(family, {"samples": []})["samples"]
            if all(sample_labels.get(k) == v for k, v in labels.items())
        )

    return {
        "rows": total("fhe_rows_bootstrapped_total"),
        "flushes": total("fhe_flushes_total"),
        "batched_calls": total("fhe_batched_calls_total"),
        "busy_seconds": total("fhe_server_busy_seconds_total"),
        "forward_calls": total("fhe_engine_transform_calls_total", direction="forward"),
        "backward_calls": total("fhe_engine_transform_calls_total", direction="backward"),
        "tasks_retried": total("fhe_pool_tasks_retried_total"),
    }
