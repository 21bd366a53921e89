"""Drivers binding sans-IO protocol engines to simulated sockets.

The engine never sees the socket and the socket never sees the engine;
the driver pumps bytes between them and hands protocol events to the
application. It also meters real CPU time spent inside the engine,
attributed per party — the measurement behind Figure 5.

Drivers additionally own the session's *timers* (the engines are sans-IO
and clockless): an optional handshake timeout and an optional idle
timeout, both on the simulator's virtual clock. When the handshake timer
fires the driver first asks the engine to degrade gracefully (bypass
middleboxes whose secondary handshakes stalled — the paper's optimistic
fallback), and only tears the session down if that cannot produce a
working session. No session may hang past its timer horizon.
"""

from __future__ import annotations

import time
from typing import Callable

from repro import obs
from repro.io import DuplexPump, flush_connection
from repro.netsim.network import Socket
from repro.netsim.sim import Timer

__all__ = ["CpuMeter", "DuplexDriver", "EngineDriver"]


class CpuMeter:
    """Accumulates real (wall-measured) CPU time for one party."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.seconds = 0.0

    def measure(self):
        return _MeterContext(self)

    def reset(self) -> None:
        self.seconds = 0.0


class _MeterContext:
    def __init__(self, meter: CpuMeter) -> None:
        self._meter = meter
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self._meter.seconds += time.perf_counter() - self._start
        return False


class EngineDriver:
    """Pumps one engine over one socket.

    Args:
        engine: any object with ``receive_bytes``, ``data_to_send``,
            ``peer_closed`` and (optionally) ``start``.
        socket: the simulated socket to pump.
        on_event: callback invoked for each engine event.
        meter: optional CPU meter charged for engine processing time.
        handshake_timeout: seconds (virtual) the session may take to
            establish before the driver degrades or fails it. ``None``
            disables the timer (the historical behaviour).
        idle_timeout: seconds of data-phase silence before the driver
            closes the session cleanly. ``None`` disables it.
        on_timeout: callback ``on_timeout(kind)`` — ``"handshake"`` or
            ``"idle"`` — invoked when a timer ends the session; retry
            supervisors hook this to schedule a redial.
    """

    def __init__(
        self,
        engine,
        socket: Socket,
        on_event: Callable[[object], None] | None = None,
        meter: CpuMeter | None = None,
        handshake_timeout: float | None = None,
        idle_timeout: float | None = None,
        on_timeout: Callable[[str], None] | None = None,
    ) -> None:
        self.engine = engine
        self.socket = socket
        self.on_event = on_event
        self.meter = meter if meter is not None else CpuMeter()
        self.on_timeout = on_timeout
        self.timed_out: str | None = None
        self.transport_closed = False
        self._handshake_timer: Timer | None = None
        self._idle_timer: Timer | None = None
        sim = socket.host.network.sim
        if handshake_timeout is not None:
            self._handshake_timer = Timer(
                sim, handshake_timeout, self._on_handshake_deadline
            )
        if idle_timeout is not None:
            self._idle_timer = Timer(sim, idle_timeout, self._on_idle_deadline)
        socket.attach(self)

    def start(self) -> None:
        """Start the engine (e.g. send the ClientHello) and flush."""
        with self.meter.measure():
            self.engine.start()
        self._flush()

    # ------------------------------------------------------------------ pump

    def socket_data(self, socket: Socket, data: bytes) -> None:
        with self.meter.measure():
            events = self.engine.receive_bytes(data)
        self._flush()
        self._dispatch(events)
        # Event handlers may have queued more data (e.g. an HTTP response).
        self._flush()
        if getattr(self.engine, "closed", False) and not self.socket.closed:
            # The engine ended the session (close_notify or fatal alert):
            # its goodbye has been flushed, so drop the transport too rather
            # than leaving the TCP stream half-open.
            self.socket.close()
        self._service_timers()

    def _dispatch(self, events) -> None:
        if self.on_event is not None:
            for event in events:
                self.on_event(event)

    def _flush(self) -> None:
        if not self.socket.connected or self.socket.closed:
            return
        flush_connection(self.engine, self.socket.send)

    def send_application_data(self, data: bytes) -> None:
        with self.meter.measure():
            self.engine.send_application_data(data)
        self._flush()
        if self._idle_timer is not None:
            self._idle_timer.touch()

    def close(self) -> None:
        with self.meter.measure():
            self.engine.close()
        self._flush()
        self.socket.close()
        self._cancel_timers()

    # ---------------------------------------------------------------- timers

    @property
    def session_ready(self) -> bool:
        """Whether the engine considers the session fully established."""
        return bool(
            getattr(self.engine, "established", False)
            or getattr(self.engine, "handshake_complete", False)
        )

    @property
    def session_over(self) -> bool:
        return bool(getattr(self.engine, "closed", False)) or self.socket.closed

    @property
    def pending_timer_count(self) -> int:
        """How many of this driver's deadline timers are still armed.

        Diagnostic surface for stuck-session reports: a live session with
        zero armed timers can never make timer-driven progress again.
        """
        return sum(
            1
            for timer in (self._handshake_timer, self._idle_timer)
            if timer is not None and not timer.fired
        )

    def _service_timers(self) -> None:
        if self.session_over:
            self._cancel_timers()
            return
        if self.session_ready and self._handshake_timer is not None:
            self._handshake_timer.cancel()
            self._handshake_timer = None
        if self._idle_timer is not None:
            self._idle_timer.touch()

    def _cancel_timers(self) -> None:
        if self._handshake_timer is not None:
            self._handshake_timer.cancel()
            self._handshake_timer = None
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    def _on_handshake_deadline(self) -> None:
        self._handshake_timer = None
        if self.session_ready or self.session_over:
            return
        # Graceful degradation first: if the primary session is up but
        # secondary (middlebox) handshakes stalled, bypass them (§3.4's
        # optimistic fallback) instead of killing a salvageable session.
        bypass = getattr(self.engine, "bypass_pending_middleboxes", None)
        if bypass is not None:
            events = bypass("secondary handshake timed out")
            self._flush()
            self._dispatch(events)
            if self.session_ready:
                self._service_timers()
                return
        self._fail("handshake")

    def _on_idle_deadline(self) -> None:
        self._idle_timer = None
        if self.session_over:
            return
        self._fail("idle")

    def _fail(self, kind: str) -> None:
        """Tear the session down with a clean close, never a hang."""
        from repro.tls.events import ConnectionClosed

        self.timed_out = kind
        obs.counter("driver_timeouts", kind=kind).inc()
        obs.tracer().mark("driver.timeout", kind=kind)
        self._cancel_timers()
        try:
            with self.meter.measure():
                self.engine.close()
            self._flush()
        finally:
            self.socket.close()
        self._dispatch([ConnectionClosed(error=f"{kind} timeout")])
        if self.on_timeout is not None:
            self.on_timeout(kind)

    # ------------------------------------------------------------- transport

    def socket_connected(self, socket: Socket) -> None:
        self._flush()

    def socket_closed(self, socket: Socket) -> None:
        """The peer (or the network) closed the TCP stream under us."""
        self.transport_closed = True
        self._cancel_timers()
        self._dispatch(self.engine.peer_closed())


class DuplexDriver:
    """Pumps one :class:`~repro.io.DuplexConnection` between two sockets.

    The down socket is bound at construction; the up socket may be bound
    late via :meth:`bind_up` (optimistic split TCP dials the onward segment
    after the first client flight). Close handling is symmetric: when one
    segment dies, the engine gets to say goodbye toward the survivor
    (``peer_closed_down``/``peer_closed_up``) before that segment is shut
    down — no half-open forwarding state is left behind.
    """

    def __init__(
        self,
        engine,
        down_socket: Socket,
        meter: CpuMeter | None = None,
        on_event: Callable[[object], None] | None = None,
    ) -> None:
        self.engine = engine
        self.down = down_socket
        self.up: Socket | None = None
        self.meter = meter if meter is not None else CpuMeter()
        self.on_event = on_event
        #: Called once, with this driver, when both segments have closed.
        self.on_finished: Callable[["DuplexDriver"], None] | None = None
        self._pump = DuplexPump(engine, down_socket)
        down_socket.attach(self)

    def bind_up(self, socket: Socket) -> None:
        """Attach the server-facing segment and flush anything pending."""
        self.up = socket
        self._pump.bind_up(socket)
        socket.attach(self)
        self._flush()

    # ------------------------------------------------------------------ pump

    def socket_data(self, socket: Socket, data: bytes) -> None:
        if socket is self.down:
            self._on_down_data(data)
        else:
            self._on_up_data(data)

    def socket_connected(self, socket: Socket) -> None:
        """Segments flush on every event; connecting needs nothing more."""

    def socket_closed(self, socket: Socket) -> None:
        if socket is self.down:
            self._on_down_close()
        else:
            self._on_up_close()

    def _on_down_data(self, data: bytes) -> None:
        with self.meter.measure():
            events = self.engine.receive_down(data)
        self._dispatch(events)
        self._after_down_data()
        self._flush()
        self._close_if_engine_done()

    def _on_up_data(self, data: bytes) -> None:
        with self.meter.measure():
            events = self.engine.receive_up(data)
        self._dispatch(events)
        self._flush()
        self._close_if_engine_done()

    def _close_if_engine_done(self) -> None:
        """A fatal alert closed the engine mid-receive: drop both segments
        (alerts were flushed first) so no party is left half-open."""
        if not getattr(self.engine, "closed", False):
            return
        if self.up is not None and not self.up.closed:
            self.up.close()
        if not self.down.closed:
            self.down.close()
        self._notify_if_finished()

    @property
    def finished(self) -> bool:
        """Both segments closed; an up segment never dialed counts as closed."""
        return self.down.closed and (self.up is None or self.up.closed)

    def _notify_if_finished(self) -> None:
        if self.on_finished is not None and self.finished:
            callback, self.on_finished = self.on_finished, None
            callback(self)

    def _after_down_data(self) -> None:
        """Hook between receive and flush (subclasses dial onward here)."""

    def _dispatch(self, events) -> None:
        if self.on_event is not None:
            for event in events:
                self.on_event(event)

    def _flush(self) -> None:
        self._pump.flush()

    # ------------------------------------------------------------- transport

    def _on_down_close(self) -> None:
        with self.meter.measure():
            events = self.engine.peer_closed_down()
        self._dispatch(events)
        if self.up is not None and not self.up.closed:
            self._flush()
            self.up.close()
        self._notify_if_finished()

    def _on_up_close(self) -> None:
        with self.meter.measure():
            events = self.engine.peer_closed_up()
        self._dispatch(events)
        if not self.down.closed:
            self._flush()
            self.down.close()
        self._notify_if_finished()
