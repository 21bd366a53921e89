"""``repro.obs`` — the session-wide observability plane.

One process-local :class:`ObservabilityPlane` bundles a
:class:`~repro.obs.metrics.MetricsRegistry` with a
:class:`~repro.obs.tracing.SpanRecorder` behind a single clock.  Every
instrumented module reads the *current* plane through :func:`plane` at
call time, so scenario runners and tests can swap in a fresh plane
(:func:`scoped`) without threading a handle through every constructor.

Determinism contract: the plane's clock defaults to a constant ``0.0``
and is rebound to virtual time whenever a
:class:`~repro.netsim.sim.Simulator` is created, so the default path
never reads the wall clock.  Wall-time measurements (per-suite AEAD
timings in the record plane) only happen when ``wall_time`` is
explicitly enabled, and are excluded from byte-stable reports.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.metrics import (
    COUNT_BUCKETS,
    SCHEMA_VERSION,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import Span, SpanRecorder

__all__ = [
    "COUNT_BUCKETS",
    "SCHEMA_VERSION",
    "TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityPlane",
    "Span",
    "SpanRecorder",
    "counter",
    "gauge",
    "histogram",
    "install",
    "plane",
    "scoped",
    "tracer",
]


class ObservabilityPlane:
    """Metrics + tracer sharing one (re)bindable deterministic clock."""

    __slots__ = ("metrics", "tracer", "wall_time", "_clock", "handles", "bound")

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = SpanRecorder(clock=self.now)
        #: Opt-in for wall-clock measurements (AEAD timings).  Off by
        #: default so reports stay byte-identical across runs.
        self.wall_time = False
        self._clock: Callable[[], float] | None = None
        #: Bound instrument handles, shared by every site on this plane,
        #: and the index of each in :attr:`handles` by key (see :meth:`bind`).
        self.handles: list = []
        self.bound: dict[tuple, int] = {}

    def bind(self, key: tuple, make: Callable[..., object], *args) -> int:
        """Index in :attr:`handles` of the handles bound for ``key``.

        ``make(*args)`` resolves them on the key's first bind on this
        plane; by convention a key starts with the name of the first
        series the handles update.  A site that binds handles for many
        short-lived objects keeps this index, an int, instead of the
        handles themselves, so its per-object cache holds nothing the
        cycle collector has to walk; the handles live once, here, and go
        with the plane.  A site that looks its key up on every update
        reads ``bound.get(key)`` first.
        """
        index = self.bound.get(key)
        if index is None:
            index = self.bound[key] = len(self.handles)
            self.handles.append(make(*args))
        return index

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the plane at a time source (normally ``lambda: sim.now``)."""
        self._clock = clock

    def now(self) -> float:
        return 0.0 if self._clock is None else self._clock()

    def snapshot(self, include_trace: bool = True) -> dict:
        """Schema-versioned, deterministic view of everything recorded."""
        report = {
            "schema_version": SCHEMA_VERSION,
            "metrics": self.metrics.snapshot(),
        }
        if include_trace:
            report["trace"] = self.tracer.snapshot()
        return report


_current = ObservabilityPlane()


def plane() -> ObservabilityPlane:
    """The process-local plane every instrumentation site reports to."""
    return _current


def install(new_plane: ObservabilityPlane | None = None) -> ObservabilityPlane:
    """Replace the current plane (fresh by default) and return it."""
    global _current
    _current = new_plane if new_plane is not None else ObservabilityPlane()
    return _current


@contextmanager
def scoped(new_plane: ObservabilityPlane | None = None) -> Iterator[ObservabilityPlane]:
    """Temporarily install a plane; restores the previous one on exit."""
    previous = _current
    installed = install(new_plane)
    try:
        yield installed
    finally:
        install(previous)


def counter(name: str, **labels: str) -> Counter:
    return _current.metrics.counter(name, **labels)


def gauge(name: str, **labels: str) -> Gauge:
    return _current.metrics.gauge(name, **labels)


def histogram(name: str, bounds: tuple[float, ...] = TIME_BUCKETS,
              **labels: str) -> Histogram:
    return _current.metrics.histogram(name, bounds, **labels)


def tracer() -> SpanRecorder:
    return _current.tracer
