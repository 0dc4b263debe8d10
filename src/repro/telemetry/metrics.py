"""Dependency-free metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` holds named families — :class:`Counter`
(monotone), :class:`Gauge` (point-in-time) or :class:`Histogram`
(bucketed distribution), a counter or histogram optionally fanned out
into labeled series (``counter.labels(engine="double").inc()``).  A count
the runtime already keeps in a field (``SchedulerStats``, ``PoolStats``,
the server's busy time and dedup/shed counts, the tracer's dropped spans)
is stored there only: its family is **bound** to a reader of the field
(:meth:`MetricsRegistry.bind_counter` / ``bind_gauge``) that every snapshot
evaluates, so a scrape and the field cannot disagree; every gauge is bound.
The registry stores what no field holds: the histograms and the labeled
counters.

Design constraints, in order:

* **Dependency-free.**  Standard library only — the serving stack must not
  grow a ``prometheus_client`` requirement to be observable.
* **Thread-safe.**  The asyncio event loop, the flusher's executor thread
  and the worker-pool parent all write concurrently; every mutation takes
  the family's lock (mutations are tiny — a float add — so contention is
  negligible next to a bootstrap).
* **Snapshot/reset.**  :meth:`MetricsRegistry.snapshot` returns a plain
  nested-dict copy (JSON-able, stable ordering, bound families read now)
  that :mod:`repro.telemetry.exposition` renders; :meth:`MetricsRegistry.reset`
  zeroes every stored series in place (tests, bench isolation).

Histogram semantics follow Prometheus: bucket bounds are **inclusive upper
edges** (``le``) — an observation equal to a bound lands in that bound's
bucket — with an implicit ``+Inf`` overflow bucket, and the rendered bucket
counts are cumulative.  The default bounds are tuned to this runtime's two
dominant latency scales: sub-millisecond batched keyswitches and
multi-second cold flushes.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "ROWS_PER_CALL_BUCKETS",
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Histogram bounds (seconds) spanning the flush/bootstrap latency range:
#: one batched keyswitch on TEST_TINY lands around 1 ms, a cold TEST_SMALL
#: flush (spectrum-cache warmup included) runs into the tens of seconds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: Histogram bounds for batch widths (rows per batched bootstrapping call).
ROWS_PER_CALL_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """A metric was declared or used inconsistently (name clash, wrong type,
    wrong label set, negative counter increment, unsorted buckets)."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label):
            raise MetricError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise MetricError(f"duplicate label names in {names!r}")
    return names


class _Family:
    """One named metric family: shared metadata + labeled child series.

    A family declared with no label names has exactly one child (the empty
    label tuple) — ``solo``, when it is bound — and the value methods
    (``inc``/``observe``) proxy to it, so unlabeled metrics read naturally:
    ``registry.counter("fhe_example_total", "...").inc()``.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str], solo: Any = None
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()
        self._series: "Dict[Tuple[str, ...], Any]" = {}
        if not self.labelnames:
            self._series[()] = solo if solo is not None else self._new_child()

    def _new_child(self):
        raise MetricError(f"metric {self.name!r} stores nothing: bind it to its owner")

    def labels(self, **labelkw: str):
        """The child series for one label-value combination (created lazily),
        every label passed by name."""
        if set(labelkw) != set(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} has labels {self.labelnames!r}, "
                f"got {sorted(labelkw)!r}"
            )
        values = tuple(str(labelkw[name]) for name in self.labelnames)
        with self._lock:
            child = self._series.get(values)
            if child is None:
                child = self._series[values] = self._new_child()
        return child

    def _solo(self):
        if self.labelnames:
            raise MetricError(
                f"metric {self.name!r} is labeled {self.labelnames!r}; "
                f"call .labels(...) first"
            )
        return self._series[()]

    def series(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """Stable-ordered (labelvalues, child) pairs."""
        with self._lock:
            return sorted(self._series.items())

    def reset(self) -> None:
        with self._lock:
            for child in self._series.values():
                child.reset()


class _CounterValue:
    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Counter(_Family):
    """Monotone event count (``*_total`` by Prometheus convention)."""

    kind = "counter"

    def _new_child(self) -> _CounterValue:
        return _CounterValue()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)


class Gauge(_Family):
    """Point-in-time value (queue depth, workers alive, breaker state), read
    from its owner at snapshot: declared only by
    :meth:`MetricsRegistry.bind_gauge`."""

    kind = "gauge"


class _BoundValue:
    """The one series of a bound family: its owner's field, read on demand."""

    __slots__ = ("_name", "_read")

    def __init__(self, name: str, read: Callable[[], float]) -> None:
        self._name = name
        self._read = read

    @property
    def value(self) -> float:
        return float(self._read())

    def inc(self, *_args: float) -> None:
        raise MetricError(f"metric {self._name!r} is bound: update its owner's state")

    def reset(self) -> None:
        """Nothing to zero: the owner's state is the store."""


class _HistogramValue:
    __slots__ = ("bounds", "counts", "sum", "count", "_lock")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        #: Per-bucket (non-cumulative) counts; the trailing slot is +Inf.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # Inclusive upper edge (Prometheus `le`): an observation equal to a
        # bound belongs to that bound's bucket; past the last bound → +Inf.
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs ending with ``(inf, count)``."""
        with self._lock:
            counts = list(self.counts)
        edges = list(self.bounds) + [float("inf")]
        out: List[Tuple[float, int]] = []
        running = 0
        for le, n in zip(edges, counts):
            running += n
            out.append((le, running))
        return out

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.bounds) + 1)
            self.sum = 0.0
            self.count = 0


class Histogram(_Family):
    """Bucketed latency/width distribution with Prometheus semantics."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError(f"bucket bounds must be strictly increasing: {bounds!r}")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _new_child(self) -> _HistogramValue:
        return _HistogramValue(self.buckets)

    def observe(self, value: float) -> None:
        self._solo().observe(value)


class MetricsRegistry:
    """Named metric families with get-or-create declaration semantics.

    Declaring the same name twice returns the existing family **iff** the
    type, help string's owner (help may differ; first wins) and label names
    match — a mismatch raises :class:`MetricError` instead of silently
    splitting one logical metric across two objects.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    def _declare(self, cls, name: str, help: str, labelnames: Sequence[str], **kw):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, labelnames, **kw)
                self._families[name] = family
                return family
        if not isinstance(family, cls):
            raise MetricError(
                f"metric {name!r} already declared as {family.kind}, "
                f"not {cls.kind}"
            )
        if family.labelnames != _check_labelnames(labelnames):
            raise MetricError(
                f"metric {name!r} already declared with labels "
                f"{family.labelnames!r}"
            )
        if cls is Histogram and "buckets" in kw:
            bounds = tuple(float(b) for b in kw["buckets"])
            if bounds[-1] == float("inf"):
                bounds = bounds[:-1]
            if family.buckets != bounds:
                raise MetricError(
                    f"metric {name!r} already declared with buckets "
                    f"{family.buckets!r}"
                )
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._declare(Histogram, name, help, labelnames, buckets=buckets)

    def bind_counter(self, name: str, help: str, read: Callable[[], float]) -> Counter:
        """Declare an unlabeled counter whose value is ``read()`` at snapshot.

        What ``read`` returns is the only store: the family refuses
        ``inc``, :meth:`reset` leaves it alone, and a name binds once
        (binding a declared name raises :class:`MetricError`).
        """
        return self._bind(Counter, name, help, read)

    def bind_gauge(self, name: str, help: str, read: Callable[[], float]) -> Gauge:
        """Declare an unlabeled gauge read at snapshot (see :meth:`bind_counter`)."""
        return self._bind(Gauge, name, help, read)

    def _bind(self, cls, name: str, help: str, read: Callable[[], float]):
        family = cls(name, help, (), _BoundValue(name, read))
        with self._lock:
            if self._families.setdefault(family.name, family) is not family:
                raise MetricError(f"metric {family.name!r} is already declared")
        return family

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict copy of every family: JSON-able, render-ready.

        Shape::

            {name: {"type": "counter"|"gauge"|"histogram",
                    "help": str, "labelnames": [...],
                    "series": [{"labels": {...}, "value": float}            # counter/gauge
                               | {"labels": {...}, "buckets": [[le, cum]..],
                                  "sum": float, "count": int}]}}            # histogram
        """
        out: Dict[str, Dict[str, Any]] = {}
        for family in self.families():
            series = []
            for labelvalues, child in family.series():
                labels = dict(zip(family.labelnames, labelvalues))
                if family.kind == "histogram":
                    series.append(
                        {
                            "labels": labels,
                            "buckets": [[le, n] for le, n in child.cumulative()],
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": series,
            }
        return out

    def reset(self) -> None:
        for family in self.families():
            family.reset()
