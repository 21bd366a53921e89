"""Process-local metrics: counters, gauges, and exact-bucket histograms.

Zero dependencies and fully deterministic: nothing in this module reads
the wall clock or any other ambient state.  Values are keyed by
``(name, sorted labels)`` so a snapshot of the registry is a pure
function of the sequence of ``inc``/``set``/``observe`` calls, and two
runs that perform the same calls produce byte-identical JSON.

Histograms use *exact* buckets: every observation lands in exactly one
bucket — the first whose upper bound is ``>= value``, with ``+Inf``
catching the rest — and the exact sum/min/max are kept alongside
(cumulative Prometheus-style views are derivable from the snapshot).  Bucket bounds are chosen
by the instrumentation site (sim-time seconds for latencies, record
counts for batch sizes) — there is no global default that could drift.
"""

from __future__ import annotations

import json
from typing import Iterator

#: Version of the snapshot layout emitted by :meth:`MetricsRegistry.snapshot`.
#: Bump whenever the JSON shape changes so downstream diffing (the CI
#: obs-smoke job) can detect incompatible output.
#: v2: the ``pool.tasks`` entries are keyed ``chunk`` (deterministic chunk
#: slot), replacing the misleading ``worker`` key (slots are not PIDs).
SCHEMA_VERSION = 2

#: Default bucket bounds for time-valued histograms, in (sim) seconds.
TIME_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: Default bucket bounds for small-count histograms (batch sizes etc.).
COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def add(self, amount: int | float) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram with exact sum/min/max."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.count = 0
        self.total = 0
        self.minimum: int | float | None = None
        self.maximum: int | float | None = None

    def observe(self, value: int | float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value


class MetricsRegistry:
    """Holds every metric family; hands out live instruments by labels."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_keys")

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        # ``(name, *labels as passed)`` -> ``(name, sorted labels)``, so a
        # repeated lookup hashes its labels instead of sorting them.
        self._keys: dict[tuple, tuple[str, LabelKey]] = {}

    def _key(self, name: str, labels: dict[str, str]) -> tuple[str, LabelKey]:
        passed = (name, *labels.items())
        key = self._keys.get(passed)
        if key is None:
            key = self._keys[passed] = (name, _label_key(labels))
        return key

    def counter(self, name: str, **labels: str) -> Counter:
        key = self._key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = self._key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, bounds: tuple[float, ...] = TIME_BUCKETS,
                  **labels: str) -> Histogram:
        key = self._key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    def counter_value(self, name: str, **labels: str) -> int | float:
        """Read a counter without creating it (0 when absent)."""
        instrument = self._counters.get((name, _label_key(labels)))
        return 0 if instrument is None else instrument.value

    def gauge_value(self, name: str, **labels: str) -> int | float:
        """Read a gauge without creating it (0 when absent)."""
        instrument = self._gauges.get((name, _label_key(labels)))
        return 0 if instrument is None else instrument.value

    def iter_counters(self, name: str) -> Iterator[tuple[dict[str, str], int | float]]:
        """Yield ``(labels, value)`` for every series of one counter family."""
        for (fam, key), instrument in sorted(self._counters.items()):
            if fam == name:
                yield dict(key), instrument.value

    def snapshot(self) -> dict:
        """Deterministic, JSON-ready view of every recorded series."""
        counters: dict[str, list] = {}
        for (name, key), instrument in sorted(self._counters.items()):
            counters.setdefault(name, []).append(
                {"labels": dict(key), "value": instrument.value})
        gauges: dict[str, list] = {}
        for (name, key), instrument in sorted(self._gauges.items()):
            gauges.setdefault(name, []).append(
                {"labels": dict(key), "value": instrument.value})
        histograms: dict[str, list] = {}
        for (name, key), instrument in sorted(self._histograms.items()):
            upper = [str(b) for b in instrument.bounds] + ["+Inf"]
            histograms.setdefault(name, []).append({
                "labels": dict(key),
                "buckets": dict(zip(upper, instrument.bucket_counts)),
                "count": instrument.count,
                "sum": instrument.total,
                "min": instrument.minimum,
                "max": instrument.maximum,
            })
        return {
            "schema_version": SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)
