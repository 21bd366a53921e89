"""One copy of the alert/abort/close plumbing every protocol party repeats.

The record-protection properties hold only because every party turns a
failed check into exactly one fatal alert, attributed to itself, and then
closes. This module owns that logic once:

* :func:`alert_for` — the one exception-to-alert map;
* :class:`Endpoint` — a :class:`~repro.io.Connection` skeleton:
  once-only ``start``, ``closed`` / ``abort`` as plain attributes (drivers
  read ``closed`` on every flush), idempotent ``close`` / ``peer_closed``,
  ``_abort`` and inbound-alert handling;
* :class:`Duplex` — a :class:`~repro.io.DuplexConnection` skeleton: one
  outbox per segment, ``peer_closed_down/up``, the abort toward both
  segments, and fatal-alert pass-through.

The bases vary in one thing only: how an alert (or, for endpoints, the
close) goes on the wire. Subclasses supply it as ``_send_alert`` — a TLS
alert record through their :class:`~repro.io.RecordPlane`, or an
:mod:`repro.io.framing` frame. :class:`FramedEndpoint` and
:class:`FramedDuplex` are that method plus the frame receive loop the
framed baselines (mcTLS, BlindBox) share.
"""

from __future__ import annotations

from repro.errors import (
    IntegrityError,
    PolicyError,
    ProtocolError,
    ReproError,
    SessionAborted,
)
from repro.io.framing import (
    FRAME_ALERT,
    FRAME_CLOSE,
    alert_frame,
    close_frame,
    frame,
    pop_frames,
)
from repro.io.record_plane import RecordPlane
from repro.tls.events import AlertReceived, ApplicationData, ConnectionClosed
from repro.wire.alerts import Alert, AlertDescription

__all__ = [
    "Duplex",
    "Endpoint",
    "FramedDuplex",
    "FramedEndpoint",
    "alert_for",
]

#: Segment indices of a duplex element: ``DOWN`` faces the client.
DOWN, UP = 0, 1

# What a malformed record or frame can raise while a party picks it apart.
_RECORD_ERRORS = (ReproError, KeyError, IndexError, ValueError)


def alert_for(exc: Exception) -> AlertDescription:
    """The alert a party answers a processing failure ``exc`` with."""
    if isinstance(exc, IntegrityError):
        return AlertDescription.BAD_RECORD_MAC
    if isinstance(exc, PolicyError):
        return AlertDescription.ACCESS_DENIED
    if isinstance(exc, ProtocolError):
        return AlertDescription.from_name(exc.alert)
    return AlertDescription.DECODE_ERROR


class _Party:
    """What endpoints and duplex elements share: start, abort, teardown."""

    #: The name this party signs into the fatal alerts it originates.
    origin_label = ""

    def __init__(self) -> None:
        self._started = False
        self.closed = False
        self.abort: SessionAborted | None = None

    def start(self) -> None:
        if self._started:
            raise ProtocolError(f"{type(self).__name__} already started")
        self._started = True
        self._on_start()

    def _on_start(self) -> None:
        """Queue whatever opens the session (nothing by default)."""

    def _abort(self, exc: Exception, events: list) -> None:
        """Answer ``exc`` with one fatal alert and close (the abort invariant)."""
        description = alert_for(exc)
        name = description.name.lower()
        self._send_fatal(Alert.fatal(description, origin=self.origin_label))
        self.closed = True
        self.abort = SessionAborted(str(exc), origin=self.origin_label, alert=name)
        events.append(
            ConnectionClosed(error=f"{name}: {exc}", alert=name, origin=self.origin_label)
        )

    def _send_fatal(self, alert: Alert) -> None:
        raise NotImplementedError

    def _ended_by(self, alert: Alert, message: str, events: list) -> None:
        """A fatal alert another party originated ended this one."""
        name = alert.description.name.lower()
        self.closed = True
        self.abort = SessionAborted(
            message.format(name=name), origin=alert.origin, alert=name
        )
        events.append(ConnectionClosed(error=name, alert=name, origin=alert.origin))


class Endpoint(_Party):
    """Contract plumbing for a sans-IO endpoint; ``_plane`` is its outbox."""

    def __init__(self) -> None:
        super().__init__()
        self._plane = RecordPlane()

    def _send_alert(self, alert: Alert) -> None:
        """Put ``alert`` on the wire (``close`` sends a close_notify)."""
        raise NotImplementedError

    def _send_fatal(self, alert: Alert) -> None:
        self._send_alert(alert)

    def data_to_send(self) -> bytes:
        return self._plane.data_to_send()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._send_alert(Alert.close_notify())

    def peer_closed(self) -> list:
        if self.closed:
            return []
        self.closed = True
        return [ConnectionClosed(error="transport closed")]

    def _handle_alert(self, payload, events: list) -> bool:
        """Act on an inbound alert; True if it ended the connection.

        A payload that does not decode raises :class:`DecodeError`; the
        caller's receive loop answers it with :meth:`_abort`.
        """
        alert = Alert.decode(bytes(payload))
        events.append(AlertReceived(alert=alert))
        if alert.is_close:
            self.closed = True
            events.append(ConnectionClosed())
            return True
        if alert.is_fatal:
            self._ended_by(alert, "peer sent fatal {name}", events)
            return True
        return False


class Duplex(_Party):
    """Contract plumbing for a sans-IO element between two TCP segments.

    ``_planes[DOWN]`` and ``_planes[UP]`` are the outboxes toward the client
    and the server; subclasses implement ``_receive(side, data)``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._planes = [RecordPlane(), RecordPlane()]

    def _send_alert(self, side: int, alert: Alert) -> None:
        """Put ``alert`` on the wire toward segment ``side``."""
        raise NotImplementedError

    def _send_fatal(self, alert: Alert) -> None:
        for side in (DOWN, UP):
            self._send_alert(side, alert)

    def _receive(self, side: int, data: bytes) -> list:
        raise NotImplementedError

    def receive_down(self, data: bytes) -> list:
        return self._receive(DOWN, data)

    def receive_up(self, data: bytes) -> list:
        return self._receive(UP, data)

    def data_to_send_down(self) -> bytes:
        return self._planes[DOWN].data_to_send()

    def data_to_send_up(self) -> bytes:
        return self._planes[UP].data_to_send()

    def peer_closed_down(self) -> list:
        return self._segment_closed("client segment closed")

    def peer_closed_up(self) -> list:
        return self._segment_closed("server segment closed")

    def _segment_closed(self, error: str) -> list:
        if self.closed:
            return []
        self.closed = True
        return [ConnectionClosed(error=error)]

    def _pass_through(self, alert: Alert, events: list) -> bool:
        """A forwarded fatal alert tears this hop down too; True if it did."""
        if not alert.is_fatal or alert.is_close:
            return False
        self._ended_by(alert, "fatal {name} passed through", events)
        return True


class FramedEndpoint(Endpoint):
    """An endpoint speaking :mod:`repro.io.framing` frames.

    Subclasses turn one data frame into plaintext with ``_open``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._buffer = bytearray()

    def _send_alert(self, alert: Alert) -> None:
        self._plane.queue_raw(close_frame() if alert.is_close else alert_frame(alert.encode()))

    def _open(self, payload: bytes) -> bytes:
        """The plaintext one data frame carries; raising aborts."""
        raise NotImplementedError

    def receive_bytes(self, data: bytes) -> list:
        if self.closed:
            return []
        self._buffer += data
        events: list = []
        try:
            frames = pop_frames(self._buffer)
        except ReproError as exc:
            self._abort(exc, events)
            return events
        for kind, payload in frames:
            if kind == FRAME_CLOSE:
                self.closed = True
                events.append(ConnectionClosed())
                break
            try:
                if kind == FRAME_ALERT:
                    if self._handle_alert(payload, events):
                        break
                    continue
                plaintext = self._open(payload)
            except _RECORD_ERRORS as exc:
                # A forged, truncated or unreadable frame: answer with a
                # fatal alert and close.
                self._abort(exc, events)
                break
            events.append(ApplicationData(data=plaintext))
        return events


class FramedDuplex(Duplex):
    """A duplex element relaying :mod:`repro.io.framing` frames verbatim.

    Subclasses look at each data frame in transit with ``_inspect``. Alerts
    are forwarded untouched; one this hop cannot decode is only forwarded.
    """

    def __init__(self) -> None:
        super().__init__()
        self._buffers = [bytearray(), bytearray()]

    def _send_alert(self, side: int, alert: Alert) -> None:
        self._planes[side].queue_raw(alert_frame(alert.encode()))

    def _inspect(self, side: int, payload: bytes) -> None:
        """Look at one data frame arriving on ``side``; raising aborts."""
        raise NotImplementedError

    def _receive(self, side: int, data: bytes) -> list:
        if self.closed:
            return []
        buffer = self._buffers[side]
        outbound = self._planes[1 - side]
        buffer += data
        events: list = []
        try:
            frames = pop_frames(buffer)
        except ReproError as exc:
            self._abort(exc, events)
            return events
        for kind, payload in frames:
            if kind == FRAME_CLOSE:
                outbound.queue_raw(close_frame())
                continue
            if kind == FRAME_ALERT:
                outbound.queue_raw(alert_frame(payload))
                try:
                    alert = Alert.decode(payload)
                except ReproError:
                    continue
                if self._pass_through(alert, events):
                    break
                continue
            try:
                self._inspect(side, payload)
            except _RECORD_ERRORS as exc:
                # A frame this hop could verify failed verification:
                # originate a fatal alert toward both segments.
                self._abort(exc, events)
                break
            outbound.queue_raw(frame(payload))
        return events
