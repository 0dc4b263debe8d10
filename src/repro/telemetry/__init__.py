"""Unified telemetry: metrics registry + per-job tracing + exposition.

One :class:`Telemetry` bundle carries the two sinks the runtime reports
into — a :class:`repro.telemetry.metrics.MetricsRegistry` (counters,
bound gauges, histograms; rendered by the server's ``metrics_prom`` op — its
one read-out — via
:func:`repro.telemetry.exposition.render_prometheus`) and a
:class:`repro.telemetry.tracing.Tracer` (bounded span ring; exported by the
``trace_export`` op) — plus the *stage round* plumbing that lets
batch-level code (one blind rotation serving many jobs) attribute its spans
to every participating trace.

Wiring pattern:

* An ``FheServer`` always builds one bundle and hands it to its scheduler;
  a library ``BatchScheduler(telemetry=None)`` is the one way to run
  without, keeping every instrumentation site behind a single ``is None``
  check.
* The scheduler mirrors the bundle onto each registered
  :class:`repro.runtime.context.FheContext` (``context.telemetry``), which
  is how the innermost layer — :class:`repro.tfhe.gates.BatchGateEvaluator`
  — finds it without threading an argument through every call.
* During one flush round the dispatcher wraps execution in
  :meth:`Telemetry.stage_round`; inside it, :meth:`Telemetry.stage` times
  the ``engine_contract`` / ``keyswitch`` stages and records them against
  the round's traces.  With no active round ``stage()`` is a no-op timing
  nothing.
* A worker process keeps one ``Telemetry`` of its own for its span ring;
  a task's spans leave as tuples
  (:meth:`repro.telemetry.tracing.Span.to_tuple`) inside the round's
  account, and the parent ingests them into its ring.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    ROWS_PER_CALL_BUCKETS,
    MetricError,
    MetricsRegistry,
)
from repro.telemetry.tracing import Span, Tracer
from repro.telemetry.exposition import (
    PrometheusParseError,
    parse_prometheus_text,
    render_prometheus,
)

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "MetricError",
    "Span",
    "Tracer",
    "render_prometheus",
    "parse_prometheus_text",
    "PrometheusParseError",
    "DEFAULT_LATENCY_BUCKETS",
    "ROWS_PER_CALL_BUCKETS",
]


class Telemetry:
    """One registry + one tracer + the active stage-round state."""

    def __init__(self, ring_size: int = 4096) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(ring_size=ring_size)
        self._round = threading.local()
        #: Series cache for the hot-path helpers below: resolving a
        #: series through the registry costs two locks plus label-name
        #: validation, which is real money when charged per *job*.  Children
        #: are reset in place by ``registry.reset()``, so cached handles
        #: never go stale.  (Benign race: two threads may resolve the same
        #: key once each; both get the same child.)
        self._series_cache: dict = {}

    # -- hot-path metric helpers --------------------------------------------
    def _cached_series(self, kind: str, name: str, help_text: str, labels, **kw):
        key = (name, labels)
        child = self._series_cache.get(key)
        if child is None:
            declare = getattr(self.registry, kind)
            family = declare(
                name, help_text, labelnames=tuple(k for k, _ in labels), **kw
            )
            child = family.labels(**dict(labels)) if labels else family._solo()
            self._series_cache[key] = child
        return child

    def count(
        self, name: str, help_text: str = "", amount: float = 1.0, **labels: Any
    ) -> None:
        """Increment a (possibly labeled) counter.

        The resolved child series is cached, so steady-state cost is one
        dict lookup and one locked float add.
        """
        items = tuple(sorted((k, str(v)) for k, v in labels.items()))
        self._cached_series("counter", name, help_text, items).inc(amount)

    def observe(
        self,
        name: str,
        value: float,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: Any,
    ) -> None:
        """Observe into a (possibly labeled) histogram."""
        items = tuple(sorted((k, str(v)) for k, v in labels.items()))
        self._cached_series(
            "histogram", name, help_text, items, buckets=buckets
        ).observe(value)

    # -- stage rounds --------------------------------------------------------
    @property
    def round_ctx(self) -> Optional[Tuple[Tuple[str, ...], Optional[str]]]:
        """The thread's active ``(trace ids, parent span id)`` round, if any."""
        return getattr(self._round, "ctx", None)

    @contextmanager
    def stage_round(
        self,
        trace_ids: Sequence[str],
        parent_span_id: Optional[str] = None,
    ) -> Iterator[None]:
        """Declare the traces one batch-level execution works for.

        Every :meth:`stage` recorded inside attributes itself to
        ``trace_ids`` (first id primary, rest in ``attrs["traces"]``) with
        ``parent_span_id`` as its parent link (normally the round's
        ``flush`` span).  Rounds nest per thread; an empty id list
        deactivates staging for the block.
        """
        ids = tuple(trace_ids)
        previous = getattr(self._round, "ctx", None)
        self._round.ctx = (ids, parent_span_id) if ids else None
        try:
            yield
        finally:
            self._round.ctx = previous

    @contextmanager
    def stage(self, name: str, **attrs: Any) -> Iterator[None]:
        """Time one batch-level stage and record it against the round.

        Outside an active round this costs one attribute read and times
        nothing.
        """
        ctx = self.round_ctx
        if ctx is None:
            yield
            return
        start_wall = time.time()
        start_perf = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start_perf
            trace_ids, parent = ctx
            if len(trace_ids) > 1:
                attrs = {**attrs, "traces": list(trace_ids)}
            self.tracer.record(
                name,
                trace_id=trace_ids[0],
                start=start_wall,
                duration=duration,
                parent_id=parent,
                attrs=attrs or None,
            )

    # -- convenience ---------------------------------------------------------
    def drain_span_tuples(self) -> List[Tuple]:
        """Pop every recorded span as pipe-friendly tuples (worker side)."""
        spans = self.tracer.spans()
        self.tracer.clear()
        return [span.to_tuple() for span in spans]

    def render_prometheus(self) -> str:
        return render_prometheus(self.registry.snapshot())
