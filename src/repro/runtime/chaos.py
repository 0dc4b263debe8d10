"""Deterministic fault injection for the serving stack (tests and drills).

Three chaos tools, all seed-free and fully scripted — every fault fires at
an exact, declared point, so a failing chaos test replays identically:

* :class:`ChaosProxy` — a frame-aware TCP proxy between a client and the
  server.  Per accepted connection (by accept order) and per direction
  (``c2s`` / ``s2c``) a *plan* maps frame indices to actions: drop the
  connection, truncate a frame mid-body, flip one bit (which the frame CRC
  must catch), or delay delivery.  The proxy parses only the layout byte
  and the lengths — never the checksum — so corrupted frames are forwarded
  intact for the endpoint to reject.
* :class:`FlakyEngine` — a transform engine that delegates every operation
  to a real base engine bit-identically, but raises
  :class:`repro.tfhe.transform.EngineFault` on the Nth transform call.  It
  reports the base engine's spec, so
  :meth:`repro.runtime.context.FheContext.failover` rebuilds a fresh,
  unwrapped engine of that kind.
* :class:`SlowDispatcher` — wraps a :class:`RowDispatcher`, sleeping before
  each round (slow flushes for deadline/drain tests).

The integration suite (``tests/test_chaos.py``) drives
:class:`repro.runtime.resilient.ResilientClient` through these faults and
asserts the resilience contract: every job completes bit-identically or
fails with a typed retryable error — never silently wrong, never hung.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.runtime.context import FheContext
from repro.runtime.protocol import _HEAD, _tail_lengths, _tail_size
from repro.runtime.scheduler import (
    Row,
    RowDispatcher,
    SchedulerStats,
    _round_scope,
    execute_rows,
)
from repro.tfhe.lwe import LweSample
from repro.tfhe.transform import EngineFault, NegacyclicTransform

__all__ = ["ChaosProxy", "FlakyEngine", "SlowDispatcher"]


# --------------------------------------------------------------------------- #
# the proxy                                                                   #
# --------------------------------------------------------------------------- #


def _read_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class ChaosProxy:
    """Frame-aware TCP proxy injecting scripted transport faults.

    Parameters
    ----------
    upstream_host, upstream_port:
        The real server to forward to.
    plans:
        ``{connection_index: {direction: {frame_index: action}}}`` where
        ``connection_index`` counts accepted client connections from 0,
        ``direction`` is ``"c2s"`` or ``"s2c"``, ``frame_index`` counts
        frames pumped in that direction from 0, and ``action`` is one of::

            {"action": "drop"}                      # close both sockets
            {"action": "truncate", "bytes": 7}      # forward 7 bytes, close
            {"action": "corrupt", "offset": -3}     # XOR one bit, forward
            {"action": "corrupt", "offset": -3, "mask": 0x10}
            {"action": "delay", "seconds": 0.05}    # sleep, then forward

        Unlisted connections/frames are forwarded untouched.

    The proxy listens on ``127.0.0.1`` with an OS-assigned :attr:`port`.
    Point a client at it instead of the server.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plans: Optional[Dict[int, Dict[str, Dict[int, Dict[str, Any]]]]] = None,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plans = plans or {}
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()
        self._closed = False
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._lock = threading.Lock()
        #: Connections accepted so far (also the next connection's index).
        self.connections = 0
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        self._threads.append(accept)

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            index = self.connections
            self.connections += 1
            plan = self.plans.get(index, {})
            try:
                server = socket.create_connection(
                    (self.upstream_host, self.upstream_port), timeout=30.0
                )
            except OSError:
                client.close()
                continue
            for sock in (client, server):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._conns.extend([client, server])
            for direction, src, dst in (
                ("c2s", client, server),
                ("s2c", server, client),
            ):
                pump = threading.Thread(
                    target=self._pump,
                    args=(src, dst, plan.get(direction, {})),
                    daemon=True,
                )
                pump.start()
                self._threads.append(pump)

    def _pump(
        self,
        src: socket.socket,
        dst: socket.socket,
        actions: Dict[int, Dict[str, Any]],
    ) -> None:
        """Forward whole frames src → dst, applying scripted actions."""
        frame_index = 0
        try:
            while True:
                frame = self._read_raw_frame(src)
                if frame is None:
                    break
                action = actions.get(frame_index, None)
                frame_index += 1
                if action is None:
                    dst.sendall(frame)
                    continue
                kind = action["action"]
                if kind == "drop":
                    break
                if kind == "truncate":
                    dst.sendall(frame[: int(action.get("bytes", len(frame) // 2))])
                    break
                if kind == "corrupt":
                    mutated = bytearray(frame)
                    mutated[int(action.get("offset", -1))] ^= int(
                        action.get("mask", 0x01)
                    )
                    dst.sendall(bytes(mutated))
                    continue
                if kind == "delay":
                    time.sleep(float(action.get("seconds", 0.01)))
                    dst.sendall(frame)
                    continue
                raise ValueError(f"unknown chaos action {kind!r}")
        except OSError:
            pass
        finally:
            # A chaos pump never half-closes: both ends die together, the
            # way a real connection reset looks to both peers.  shutdown()
            # before close() — close() alone does not wake a peer blocked
            # in recv() on another thread, it just leaks the wait until the
            # socket timeout.
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass

    @staticmethod
    def _read_raw_frame(sock: socket.socket) -> Optional[bytes]:
        """One raw frame (prefix + extras + body), unvalidated.

        Only the layout byte and the lengths are parsed — magic and CRC
        pass through untouched so corruption injected upstream reaches the
        endpoint.
        """
        head = _read_exact(sock, _HEAD.size)
        if head is None:
            return None
        tail = _read_exact(sock, _tail_size(head[-1]))
        if tail is None:
            return head  # truncated upstream: forward what exists
        extras_len, body_len = _tail_lengths(head[-1], tail)
        rest = _read_exact(sock, extras_len + body_len)
        if rest is None:
            return head + tail
        return head + tail + rest


# --------------------------------------------------------------------------- #
# the flaky engine                                                            #
# --------------------------------------------------------------------------- #


class FlakyEngine(NegacyclicTransform):
    """Delegates to a real engine; raises :class:`EngineFault` on cue.

    ``fail_on_call`` is the 1-based index of the *transform call* (a
    ``forward``, ``contract_accumulate`` or ``multiply``) that raises; with
    ``fail_forever=True`` every call from that point on raises, otherwise
    only that one call does.  All other behaviour — including the spectrum
    algebra and the fused external-product path — is the base engine's own
    implementation, so results computed around the fault stay bit-identical
    to the base engine.

    The proxy carries the base engine's ``engine_kind`` and options, so its
    :meth:`spec` is the base engine's — what
    :meth:`repro.runtime.context.FheContext.failover` rebuilds from.
    """

    def __init__(
        self,
        base: NegacyclicTransform,
        fail_on_call: int = 1,
        fail_forever: bool = False,
    ) -> None:
        super().__init__(base.degree)
        self.base = base
        self.fail_on_call = int(fail_on_call)
        self.fail_forever = fail_forever
        self.calls = 0
        self.faults_raised = 0
        self.stats = base.stats  # one shared op counter, as callers expect
        # Instance attribute shadowing the ClassVar (None for an ad-hoc base).
        self.engine_kind = base.engine_kind

    def _tick(self) -> None:
        self.calls += 1
        due = (
            self.calls >= self.fail_on_call
            if self.fail_forever
            else self.calls == self.fail_on_call
        )
        if due:
            self.faults_raised += 1
            raise EngineFault(
                f"injected engine fault on transform call {self.calls}"
            )

    def engine_options(self) -> Dict[str, Any]:
        return self.base.engine_options()

    # -- faulting call sites ----------------------------------------------
    def forward(self, coeffs):
        self._tick()
        return self.base.forward(coeffs)

    def contract_accumulate(self, *args, **kwargs):
        self._tick()
        return self.base.contract_accumulate(*args, **kwargs)

    def multiply(self, int_poly, torus_poly):
        self._tick()
        return self.base.multiply(int_poly, torus_poly)

    # -- transparent delegation -------------------------------------------
    def backward(self, spectrum):
        return self.base.backward(spectrum)

    def spectrum_add(self, a, b):
        return self.base.spectrum_add(a, b)

    def spectrum_mul(self, a, b):
        return self.base.spectrum_mul(a, b)

    def spectrum_expand(self, spectrum, axis):
        return self.base.spectrum_expand(spectrum, axis)

    def spectrum_contract(self, stack, operand):
        return self.base.spectrum_contract(stack, operand)


# --------------------------------------------------------------------------- #
# the slow dispatcher                                                         #
# --------------------------------------------------------------------------- #


class SlowDispatcher(RowDispatcher):
    """Wraps a dispatcher, sleeping before each round (slow-flush chaos)."""

    def __init__(
        self, delay: float, inner: Optional[RowDispatcher] = None
    ) -> None:
        self.delay = float(delay)
        self.inner = inner
        self.rounds = 0

    def run_rows(
        self,
        client_id: str,
        context: FheContext,
        rows: Sequence[Row],
        stats: SchedulerStats,
        max_rows_per_call: Optional[int] = None,
        round_ctx=None,
    ) -> List[LweSample]:
        self.rounds += 1
        time.sleep(self.delay)
        if self.inner is not None:
            self.inner.telemetry = self.telemetry
            return self.inner.run_rows(
                client_id, context, rows, stats, max_rows_per_call, round_ctx=round_ctx
            )
        with _round_scope(context, round_ctx):
            return execute_rows(context, rows, stats, max_rows_per_call)

    def register_client(self, client_id: str, context: FheContext) -> None:
        if self.inner is not None:
            self.inner.register_client(client_id, context)

    def deregister_client(self, client_id: str) -> None:
        if self.inner is not None:
            self.inner.deregister_client(client_id)
