"""Per-job tracing: spans with parent links in a bounded in-memory ring.

One submitted job gets one **trace id** that travels with it end to end:
client request header → server dispatch → scheduler enqueue → flush round →
worker-pool task tuple (across the process boundary) → engine contract →
reply frame.  Along the way the instrumented layers record **spans** —
named, timed intervals with a parent link — into the :class:`Tracer`'s ring:

==================  =========================================================
span                meaning
==================  =========================================================
``enqueue``         job accepted into the scheduler queue (instant)
``coalesce_wait``   submit (or previous round) → the flush round that takes
                    the job's rows (the batching window the job paid)
``flush``           one scheduler round's dispatch for one client: every
                    batch-level span below parents here
``worker_dispatch`` one pool task: send → validated result (parent side)
``engine_contract`` blind-rotate + extract of one batched call (the
                    transform-engine contract; recorded where it ran,
                    including inside forked workers)
``keyswitch``       the key-switching epilogue of that batched call
``reply``           one reply frame sent for the job's request (a retried
                    request records one per attempt — same trace)
``job``             root: submit → handle resolution, one per job
==================  =========================================================

Batch-level spans (``flush``, ``worker_dispatch``, ``engine_contract``,
``keyswitch``) cover *every* job coalesced into the round, so they are
recorded once with the round's first trace id as primary and the full
participant list in ``attrs["traces"]`` — :meth:`Tracer.spans` filtered
to one trace resolves membership either way.

The ring is bounded (``ring_size``, oldest dropped first and counted in
:attr:`Tracer.dropped`) and lock-guarded;
spans recorded inside worker processes cross the task pipe as plain tuples
(:meth:`Span.to_tuple` / :meth:`Tracer.ingest`).  Export targets:
:meth:`Tracer.export_json` (plain span dicts) and
:meth:`Tracer.export_chrome` (Chrome trace-event JSON — load the file at
``chrome://tracing`` or https://ui.perfetto.dev).

Timestamps are wall-clock (``time.time()``) so spans from different
processes line up on one axis; durations are measured with
``time.perf_counter()`` so they don't inherit wall-clock jumps.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import uuid
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer"]

#: Span field order on the wire (worker → parent pipe tuples).
_TUPLE_FIELDS = ("trace_id", "span_id", "parent_id", "name", "start", "duration")


#: Shared attrs for spans recorded without any: every such span aliasing one
#: dict (instead of allocating its own) keeps the per-span GC-tracked
#: allocation count down — readers never mutate ``span.attrs`` in place.
_NO_ATTRS: Dict[str, Any] = {}


class Span:
    """One named, timed interval of one trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "duration", "attrs")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: float,
        duration: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration = duration
        self.attrs = attrs if attrs else _NO_ATTRS

    def in_trace(self, trace_id: str) -> bool:
        """Whether this span belongs to ``trace_id`` (primary or batch member)."""
        if self.trace_id == trace_id:
            return True
        traces = self.attrs.get("traces")
        return isinstance(traces, (list, tuple)) and trace_id in traces

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    def to_tuple(self) -> Tuple:
        """Pipe-friendly form (plain immutables only)."""
        return (
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.name,
            self.start,
            self.duration,
            dict(self.attrs),
        )

    @classmethod
    def from_tuple(cls, data: Sequence) -> "Span":
        trace_id, span_id, parent_id, name, start, duration, attrs = data
        if not (isinstance(trace_id, str) and isinstance(span_id, str) and isinstance(name, str)):
            raise ValueError(f"malformed span tuple: {data!r}")
        return cls(
            trace_id,
            span_id,
            parent_id if isinstance(parent_id, str) else None,
            name,
            float(start),
            float(duration),
            dict(attrs) if isinstance(attrs, dict) else {},
        )

    def to_chrome_event(self, pid: int = 0) -> Dict[str, Any]:
        """One complete-event (``ph: "X"``) in Chrome trace-event format."""
        args: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }
        if self.parent_id is not None:
            args["parent_id"] = self.parent_id
        args.update(self.attrs)
        return {
            "name": self.name,
            "cat": "fhe",
            "ph": "X",
            "ts": self.start * 1e6,  # microseconds
            "dur": max(self.duration, 0.0) * 1e6,
            "pid": pid,
            "tid": int(self.attrs.get("pid", pid)) or pid,
            "args": args,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id[:8]}, "
            f"dur={self.duration * 1e3:.2f}ms)"
        )


class Tracer:
    """Bounded ring of :class:`Span` records plus id generation."""

    def __init__(self, ring_size: int = 4096) -> None:
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        self.ring_size = ring_size
        self._ring: "deque[Span]" = deque(maxlen=ring_size)
        self._lock = threading.Lock()
        #: Spans pushed out of the full ring to make room (never reset).
        self.dropped = 0
        self._counter = itertools.count(1)
        # pid captured once: getpid() is a real syscall, too expensive per
        # span id.  Safe across fork because workers always build a *fresh*
        # Tracer after forking (see workers._worker_main) rather than
        # minting ids from the parent's.
        self._id_prefix = f"{os.getpid():x}-"

    # -- ids ----------------------------------------------------------------
    @staticmethod
    def new_trace_id() -> str:
        return uuid.uuid4().hex

    def new_span_id(self) -> str:
        # pid-qualified so ids minted in forked workers never collide with
        # the parent's (both sides feed one ring).
        return f"{self._id_prefix}{next(self._counter):x}"

    # -- recording ----------------------------------------------------------
    def record(
        self,
        name: str,
        trace_id: str,
        start: float,
        duration: float,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Append one span; returns its id."""
        span = Span(
            trace_id,
            span_id or self.new_span_id(),
            parent_id,
            name,
            start,
            duration,
            attrs,
        )
        self._append(span)
        return span.span_id

    def ingest(self, data: Sequence) -> None:
        """Adopt one :meth:`Span.to_tuple` record (e.g. from a worker pipe)."""
        self._append(Span.from_tuple(data))

    def _append(self, span: Span) -> None:
        with self._lock:
            if len(self._ring) == self.ring_size:
                self.dropped += 1
            self._ring.append(span)

    # -- reading ------------------------------------------------------------
    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        """Snapshot of the ring, optionally filtered to one trace."""
        with self._lock:
            spans = list(self._ring)
        if trace_id is None:
            return spans
        return [span for span in spans if span.in_trace(trace_id)]

    def trace_ids(self) -> List[str]:
        """Distinct primary trace ids, oldest first."""
        seen: Dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    # -- export -------------------------------------------------------------
    def export_json(self, trace_id: Optional[str] = None) -> str:
        """Plain JSON list of span dicts."""
        return json.dumps([span.to_dict() for span in self.spans(trace_id)])

    def export_chrome(self, trace_id: Optional[str] = None) -> str:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        pid = os.getpid()
        events = [span.to_chrome_event(pid) for span in self.spans(trace_id)]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
