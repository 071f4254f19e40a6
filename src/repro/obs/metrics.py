"""Labeled counters and pull gauges rendered as Prometheus text.

One :class:`MetricsRegistry` is the single source of truth a component
(the job manager owns one) reports from;
:meth:`MetricsRegistry.render_prometheus` renders the text exposition
the service serves at ``/metrics`` (HELP/TYPE lines, escaped labels,
metrics and series in stable sorted order).

Metric handles are get-or-create: asking twice for the same name
returns the same object, and asking with a conflicting type or label
set raises — a typo never silently forks a series.  All mutation is
lock-protected, so pool worker threads can bump shared series.
"""

from __future__ import annotations

import threading


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
        self._values: dict[tuple[str, ...], float] = {}

    def _series_name(self, key: tuple[str, ...]) -> str:
        pairs = [
            f'{n}="{escape_label_value(v)}"'
            for n, v in zip(self.labelnames, key)
        ]
        if not pairs:
            return self.name
        return f"{self.name}{{{','.join(pairs)}}}"

    def expose(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self._series_name(key)} {format_value(value)}"
            for key, value in items
        ]


class Counter(Metric):
    """Monotonically increasing value(s)."""

    type = "counter"

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

    def to_value(self):
        with self._lock:
            if not self.labelnames:
                return self._values.get((), 0)
            if len(self.labelnames) == 1:
                return {k[0]: v for k, v in sorted(self._values.items())}
            return {
                ",".join(k): v for k, v in sorted(self._values.items())
            }


class Gauge(Metric):
    """Value(s) pulled from a callback at exposition time.

    ``callback`` is a zero-arg callable returning a number, or for a
    labeled gauge a dict of label-value tuple -> number — derived
    values like uptime are therefore never stale.
    """

    type = "gauge"

    def __init__(self, name, help, labelnames=(), callback=None) -> None:
        super().__init__(name, help, labelnames)
        self.callback = callback

    def expose(self) -> list[str]:
        if self.callback is not None:
            result = self.callback()
            with self._lock:
                if isinstance(result, dict):
                    self._values.update(result)
                else:
                    self._values[()] = result
        return super().expose()


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
