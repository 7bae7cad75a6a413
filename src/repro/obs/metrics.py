"""A process-local metrics registry with Prometheus-style exposition.

Three instrument kinds, all label-aware and thread-safe:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — point-in-time values (queue depth, cache size);
* :class:`Histogram` — fixed-bucket distributions (job latency).

The engine's existing stats dataclasses (``SessionStats``,
``ServiceStats``, ``WALStats``, store/cache stats) stay the source of
truth: :class:`StatsView` derives their ``as_dict()`` payload from the
declared fields, and :func:`publish_stats` projects any such payload
into a registry as gauges, so one registry can expose a
``service.stats()``-compatible merged snapshot next to live
histograms maintained by the scheduler itself.
"""

from __future__ import annotations

import dataclasses
import re
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StatsView",
    "publish_stats",
]

# seconds-oriented defaults: 1ms .. 10s
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

LabelKey = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(*parts: str) -> str:
    """Join parts into a legal Prometheus metric name."""
    joined = "_".join(p for p in parts if p)
    return _NAME_RE.sub("_", joined)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join('%s="%s"' % (k, v.replace('"', '\\"'))
                     for k, v in key)
    return "{%s}" % inner


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def render(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append("# HELP %s %s" % (self.name, self.help))
        lines.append("# TYPE %s %s" % (self.name, self.kind))
        return lines


class Counter(_Metric):
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up; got %r" % (amount,))
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            lines.append("%s%s %g" % (self.name, _render_labels(key),
                                      value))
        return lines

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {self.name + _render_labels(key): value
                    for key, value in self._values.items()}


class Gauge(_Metric):
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            lines.append("%s%s %g" % (self.name, _render_labels(key),
                                      value))
        return lines

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {self.name + _render_labels(key): value
                    for key, value in self._values.items()}


class Histogram(_Metric):
    """Fixed-bucket histogram (cumulative buckets, Prometheus form)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.bounds = bounds
        # per label-set: ([per-bucket counts..., +Inf count], sum)
        self._series: Dict[LabelKey, Tuple[List[int], List[float]]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = ([0] * (len(self.bounds) + 1), [0.0])
                self._series[key] = series
            counts, total = series
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            total[0] += value

    def count(self, **labels: Any) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return sum(series[0]) if series else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[1][0] if series else 0.0

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            items = sorted((key, (list(counts), total[0]))
                           for key, (counts, total)
                           in self._series.items())
        for key, (counts, total) in items:
            cumulative = 0
            for bound, count in zip(self.bounds, counts):
                cumulative += count
                bucket_key = key + (("le", "%g" % bound),)
                lines.append("%s_bucket%s %d" % (
                    self.name, _render_labels(bucket_key), cumulative))
            cumulative += counts[-1]
            inf_key = key + (("le", "+Inf"),)
            lines.append("%s_bucket%s %d" % (
                self.name, _render_labels(inf_key), cumulative))
            lines.append("%s_sum%s %g" % (self.name,
                                          _render_labels(key), total))
            lines.append("%s_count%s %d" % (self.name,
                                            _render_labels(key),
                                            cumulative))
        return lines

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        with self._lock:
            items = sorted((key, (list(counts), total[0]))
                           for key, (counts, total)
                           in self._series.items())
        for key, (counts, total) in items:
            base = self.name + _render_labels(key)
            out[base + "_count"] = sum(counts)
            out[base + "_sum"] = total
        return out


class MetricsRegistry:
    """Get-or-create home for all metrics in a process (or a test)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    "metric %r already registered as %s, not %s"
                    % (name, metric.kind, cls.kind))
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[name]
                    for name in sorted(self._metrics)]

    def render(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        for metric in self.metrics():
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Any]:
        """Flat ``{exposed_name: value}`` view of the registry."""
        out: Dict[str, Any] = {}
        for metric in self.metrics():
            out.update(metric.snapshot())
        return out


class StatsView:
    """Base of the stats dataclasses: the ``as_dict()`` payload that
    service stats, benchmark reports and :func:`publish_stats` read is
    the declared fields themselves, so a field added to a stats class
    is exported without a second hand-kept list."""

    def as_dict(self) -> Dict[str, Any]:
        """Every field by name, in declaration order, as a plain
        JSON-serializable dict (nested mappings are copied)."""
        out: Dict[str, Any] = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            out[spec.name] = dict(value) \
                if isinstance(value, Mapping) else value
        return out


def publish_stats(registry: MetricsRegistry, prefix: str,
                  stats: Mapping[str, Any],
                  labels: Optional[Mapping[str, Any]] = None) -> None:
    """Project an ``as_dict()`` stats payload into gauges.

    Nested dicts recurse with an extended prefix; numeric leaves
    become ``<prefix>_<field>`` gauges; non-numeric leaves are
    skipped.  Idempotent: republishing overwrites the same gauges.
    """
    labels = dict(labels or {})
    for field in sorted(stats):
        value = stats[field]
        name = metric_name(prefix, str(field))
        if isinstance(value, Mapping):
            publish_stats(registry, name, value, labels)
        elif isinstance(value, bool):
            registry.gauge(name).set(1.0 if value else 0.0, **labels)
        elif isinstance(value, (int, float)):
            registry.gauge(name).set(float(value), **labels)
