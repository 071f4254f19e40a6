"""Labeled counters, gauges, and histograms with two renderings.

One :class:`MetricsRegistry` is the single source of truth a component
(the job manager owns one) reports from.  The *same* registry renders
both:

* :meth:`MetricsRegistry.render_prometheus` — the text exposition the
  service serves at ``/metrics`` (HELP/TYPE lines, escaped labels,
  metrics and series in stable sorted order), replacing the
  hand-concatenated strings that used to live in ``service/http.py``;
* :meth:`MetricsRegistry.to_dict` — the same series as JSON (name ->
  scalar, label -> value map, or histogram digest).

Metric handles are get-or-create: asking twice for the same name
returns the same object, and asking with a conflicting type or label
set raises — a typo never silently forks a series.  All mutation is
lock-protected, so pool worker threads can bump shared series.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

_TYPES = ("counter", "gauge", "histogram")

#: Default buckets for timing histograms (seconds).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)


def escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help(text: str) -> str:
    """Prometheus HELP-text escaping: backslash and newline."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Exposition value format: ints bare, floats via ``repr`` (which
    round-trips exactly and never switches to locale formatting)."""
    if isinstance(value, bool):  # pragma: no cover — defensive
        return str(int(value))
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_key(
    labelnames: tuple[str, ...], labels: dict
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Metric:
    """Base: one named family of labeled series."""

    type: str = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: tuple[str, ...] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    # pretty label rendering shared by all exposition paths
    def _series_name(self, key: tuple[str, ...], extra: str = "") -> str:
        pairs = [
            f'{n}="{escape_label_value(v)}"'
            for n, v in zip(self.labelnames, key)
        ]
        if extra:
            pairs.append(extra)
        if not pairs:
            return self.name
        return f"{self.name}{{{','.join(pairs)}}}"

    def expose(self) -> list[str]:
        raise NotImplementedError

    def to_value(self):
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing value(s)."""

    type = "counter"

    def __init__(self, name, help, labelnames=()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0)

    def expose(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self._series_name(key)} {format_value(value)}"
            for key, value in items
        ]

    def to_value(self):
        with self._lock:
            if not self.labelnames:
                return self._values.get((), 0)
            if len(self.labelnames) == 1:
                return {k[0]: v for k, v in sorted(self._values.items())}
            return {
                ",".join(k): v for k, v in sorted(self._values.items())
            }


class Gauge(Counter):
    """Value(s) that can go anywhere; optional pull callback.

    A ``callback`` (zero-arg callable returning a number, or a dict of
    label-value-tuple -> number for labeled gauges) is evaluated at
    exposition time — used for derived values like uptime.
    """

    type = "gauge"

    def __init__(self, name, help, labelnames=(), callback=None) -> None:
        super().__init__(name, help, labelnames)
        self.callback = callback

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = value

    def _pull(self) -> None:
        if self.callback is None:
            return
        result = self.callback()
        with self._lock:
            if isinstance(result, dict):
                self._values.update(result)
            else:
                self._values[()] = result

    def expose(self) -> list[str]:
        self._pull()
        return super().expose()

    def to_value(self):
        self._pull()
        return super().to_value()


class Histogram(Metric):
    """Cumulative-bucket distribution (Prometheus semantics)."""

    type = "histogram"

    def __init__(
        self,
        name,
        help,
        labelnames=(),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}
        self._totals: dict[tuple[str, ...], int] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            counts = self._counts.setdefault(
                key, [0] * len(self.buckets)
            )
            idx = bisect_left(self.buckets, value)
            if idx < len(counts):
                counts[idx] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def _labels_suffix(self, key: tuple[str, ...], extra: str = "") -> str:
        """The ``{a="b",...}`` tail (possibly empty) for one series."""
        return self._series_name(key, extra)[len(self.name):]

    def expose(self) -> list[str]:
        lines: list[str] = []
        with self._lock:
            keys = sorted(self._totals)
            for key in keys:
                cumulative = 0
                for bound, count in zip(
                    self.buckets, self._counts[key]
                ):
                    cumulative += count
                    le = 'le="%s"' % format_value(bound)
                    lines.append(
                        f"{self.name}_bucket"
                        f"{self._labels_suffix(key, le)} {cumulative}"
                    )
                inf_le = 'le="+Inf"'
                lines.append(
                    f"{self.name}_bucket"
                    f"{self._labels_suffix(key, inf_le)}"
                    f" {self._totals[key]}"
                )
                lines.append(
                    f"{self.name}_sum{self._labels_suffix(key)}"
                    f" {format_value(self._sums[key])}"
                )
                lines.append(
                    f"{self.name}_count{self._labels_suffix(key)}"
                    f" {self._totals[key]}"
                )
        return lines

    def to_value(self):
        with self._lock:
            out = {}
            for key in sorted(self._totals):
                doc = {
                    "count": self._totals[key],
                    "sum": self._sums[key],
                }
                out[",".join(key) if key else ""] = doc
            if not self.labelnames:
                return out.get("", {"count": 0, "sum": 0.0})
            return out


class MetricsRegistry:
    """Get-or-create registry of metrics with stable rendering."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _register(self, cls, name, help, labelnames, **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.labelnames != labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.type} with labels "
                        f"{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name, help, labelnames=()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name, help, labelnames=(), callback=None) -> Gauge:
        return self._register(
            Gauge, name, help, labelnames, callback=callback
        )

    def histogram(
        self, name, help, labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def render_prometheus(self) -> str:
        """Full text exposition: metrics sorted by name, one HELP and
        TYPE line each, then their series in sorted label order."""
        lines: list[str] = []
        with self._lock:
            metrics = [
                self._metrics[name] for name in sorted(self._metrics)
            ]
        for metric in metrics:
            lines.append(
                f"# HELP {metric.name} {escape_help(metric.help)}"
            )
            lines.append(f"# TYPE {metric.name} {metric.type}")
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """JSON form: name -> value (scalar, label -> value map, or
        histogram digest)."""
        with self._lock:
            metrics = [
                self._metrics[name] for name in sorted(self._metrics)
            ]
        return {metric.name: metric.to_value() for metric in metrics}
