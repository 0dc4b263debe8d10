"""Prometheus text exposition: render a registry snapshot, parse it back.

:func:`render_prometheus` turns a :meth:`MetricsRegistry.snapshot
<repro.telemetry.metrics.MetricsRegistry.snapshot>` into the Prometheus
text format (version 0.0.4) the server's ``metrics_prom`` op returns::

    # HELP fhe_jobs_submitted_total Jobs accepted by the scheduler.
    # TYPE fhe_jobs_submitted_total counter
    fhe_jobs_submitted_total{op="gate"} 4096
    # TYPE fhe_flush_seconds histogram
    fhe_flush_seconds_bucket{le="0.005"} 3
    ...
    fhe_flush_seconds_bucket{le="+Inf"} 17
    fhe_flush_seconds_sum 1.234
    fhe_flush_seconds_count 17

:func:`parse_prometheus_text` is the matching validator-grade parser used by
``tools/check_metrics.py`` and the telemetry-smoke CI job: it checks line
grammar, label escaping, known ``# TYPE`` kinds, histogram bucket
monotonicity and ``_count``/``+Inf`` agreement, and returns the parsed
families so callers can assert on specific series.  It is deliberately
dependency-free — the point is to validate our own output without trusting
the code that produced it.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["render_prometheus", "parse_prometheus_text", "PrometheusParseError"]


class PrometheusParseError(ValueError):
    """The exposition text violates the Prometheus text format."""

    def __init__(self, line_no: int, line: str, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no
        self.line = line
        self.reason = reason


# --------------------------------------------------------------------------- #
# rendering                                                                   #
# --------------------------------------------------------------------------- #


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Mapping[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(k, str(v)) for k, v in labels.items()]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_le(le: float) -> str:
    return "+Inf" if math.isinf(le) else _format_value(le)


def render_prometheus(snapshot: Mapping[str, Mapping[str, Any]]) -> str:
    """Render one registry snapshot as Prometheus text format."""
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family.get("type", "untyped")
        help_text = family.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for series in family.get("series", []):
            labels = series.get("labels", {})
            if kind == "histogram":
                for le, cum in series["buckets"]:
                    lines.append(
                        f"{name}_bucket"
                        f"{_format_labels(labels, ('le', _format_le(le)))} {cum}"
                    )
                lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(series['sum'])}")
                lines.append(f"{name}_count{_format_labels(labels)} {series['count']}")
            else:
                lines.append(f"{name}{_format_labels(labels)} {_format_value(series['value'])}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# parsing / validation                                                        #
# --------------------------------------------------------------------------- #

_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_KNOWN_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\x00", "\\")
    )


def _parse_value(raw: str, line_no: int, line: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    if raw == "NaN":
        return float("nan")
    try:
        return float(raw)
    except ValueError:
        raise PrometheusParseError(line_no, line, f"unparsable value {raw!r}") from None


def _parse_labels(raw: Optional[str], line_no: int, line: str) -> Dict[str, str]:
    if not raw:
        return {}
    labels: Dict[str, str] = {}
    rest = raw
    while rest:
        match = _LABEL_PAIR.match(rest)
        if match is None:
            raise PrometheusParseError(line_no, line, f"malformed label block at {rest!r}")
        labels[match.group(1)] = _unescape_label_value(match.group(2))
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise PrometheusParseError(line_no, line, f"malformed label separator at {rest!r}")
    return labels


def _base_name(name: str, types: Mapping[str, str]) -> str:
    """The family a sample line belongs to (histogram suffixes stripped)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) in ("histogram", "summary"):
                return base
    return name


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse and validate Prometheus text exposition.

    Returns ``{family: {"type": str, "help": str, "samples":
    [(name, labels, value)]}}``.  Raises :class:`PrometheusParseError` on a
    grammar violation, an unknown ``# TYPE``, a sample for an undeclared
    histogram suffix, non-monotone histogram buckets, or a histogram whose
    ``+Inf`` bucket disagrees with its ``_count``.
    """
    families: Dict[str, Dict[str, Any]] = {}
    types: Dict[str, str] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(None, 1)
            if not parts:
                raise PrometheusParseError(line_no, line, "HELP without a metric name")
            name = parts[0]
            families.setdefault(name, {"type": "untyped", "help": "", "samples": []})
            families[name]["help"] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2:
                raise PrometheusParseError(line_no, line, "TYPE needs '<name> <type>'")
            name, kind = parts
            if kind not in _KNOWN_TYPES:
                raise PrometheusParseError(line_no, line, f"unknown type {kind!r}")
            families.setdefault(name, {"type": "untyped", "help": "", "samples": []})
            families[name]["type"] = kind
            types[name] = kind
            continue
        if line.startswith("#"):
            continue  # comment
        match = _METRIC_LINE.match(line)
        if match is None:
            raise PrometheusParseError(line_no, line, "unparsable sample line")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"), line_no, line)
        value = _parse_value(match.group("value"), line_no, line)
        base = _base_name(name, types)
        family = families.setdefault(base, {"type": "untyped", "help": "", "samples": []})
        if name != base and family["type"] not in ("histogram", "summary"):
            raise PrometheusParseError(
                line_no, line, f"suffix sample {name!r} without a histogram TYPE"
            )
        family["samples"].append((name, labels, value))
    _validate_histograms(families)
    return families


def _validate_histograms(families: Mapping[str, Dict[str, Any]]) -> None:
    for base, family in families.items():
        if family["type"] != "histogram":
            continue
        # Group bucket samples per non-le label set.
        buckets: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
        counts: Dict[Tuple[Tuple[str, str], ...], float] = {}
        for name, labels, value in family["samples"]:
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            if name == f"{base}_bucket":
                le_raw = labels.get("le")
                if le_raw is None:
                    raise PrometheusParseError(0, base, "bucket sample without 'le'")
                le = float("inf") if le_raw == "+Inf" else float(le_raw)
                buckets.setdefault(key, []).append((le, value))
            elif name == f"{base}_count":
                counts[key] = value
        for key, pairs in buckets.items():
            ordered = sorted(pairs)
            cums = [c for _, c in ordered]
            if any(b < a for a, b in zip(cums, cums[1:])):
                raise PrometheusParseError(
                    0, base, f"histogram buckets not monotone for labels {dict(key)!r}"
                )
            if not ordered or not math.isinf(ordered[-1][0]):
                raise PrometheusParseError(
                    0, base, f"histogram lacks a +Inf bucket for labels {dict(key)!r}"
                )
            if key in counts and counts[key] != ordered[-1][1]:
                raise PrometheusParseError(
                    0,
                    base,
                    f"histogram +Inf bucket {ordered[-1][1]} != _count "
                    f"{counts[key]} for labels {dict(key)!r}",
                )
