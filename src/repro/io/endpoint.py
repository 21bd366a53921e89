"""One copy of the alert/abort/close plumbing every protocol party repeats.

The record-protection properties hold only because every party turns a
failed check into exactly one fatal alert, attributed to itself, and then
closes. This module owns that logic once:

* :func:`alert_for` — the one exception-to-alert map;
* :class:`Endpoint` — a :class:`~repro.io.Connection` skeleton:
  once-only ``start``, ``closed`` / ``abort`` as plain attributes (drivers
  read ``closed`` on every flush), idempotent ``close`` / ``peer_closed``,
  ``_abort``, inbound-alert handling, and the one ``receive_bytes``: it
  hands the bytes to the subclass's ``_consume`` and answers anything in
  ``_RECORD_ERRORS`` that escapes with exactly one ``_abort``;
* :class:`Duplex` — a :class:`~repro.io.DuplexConnection` skeleton: one
  outbox per segment, ``peer_closed_down/up``, the abort toward both
  segments, fatal-alert pass-through, and the same guarded receive per
  segment.

The bases vary in two things: how an alert (or, for endpoints, the close)
goes on the wire, ``_send_alert``, and how inbound bytes split into units,
``_consume``. :class:`RecordEndpoint` and :class:`RecordDuplex` consume TLS
records through their :class:`~repro.io.RecordPlane`, which opens each run
of application data in one batch (:meth:`RecordPlane.open_runs`) and hands
every record to ``_on_record``; the TLS engines, the mbTLS endpoints,
mdTLS and the key-sharing splice build on them. :class:`FramedEndpoint`
and :class:`FramedDuplex` consume :mod:`repro.io.framing` frames for the
framed baselines (mcTLS, BlindBox).
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
from repro.wire.records import ContentType, Record

__all__ = [
    "Duplex",
    "Endpoint",
    "FramedDuplex",
    "FramedEndpoint",
    "RecordDuplex",
    "RecordEndpoint",
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
    """Contract plumbing for a sans-IO endpoint; ``_plane`` is its outbox.

    Handlers append the events they cause to ``_events``; ``receive_bytes``
    returns them.
    """

    def __init__(self) -> None:
        super().__init__()
        self._plane = RecordPlane()
        self._events: list = []
        self.alert_sent: Alert | None = None
        self.alert_received: Alert | None = None

    def _send_alert(self, alert: Alert) -> None:
        """Put ``alert`` on the wire (``close`` sends a close_notify)."""
        raise NotImplementedError

    def _send_fatal(self, alert: Alert) -> None:
        self.alert_sent = alert
        self._send_alert(alert)

    def _consume(self, data: bytes) -> None:
        """Split inbound bytes into units and act on each; raising aborts."""
        raise NotImplementedError

    def receive_bytes(self, data: bytes) -> list:
        if self.closed:
            return []
        try:
            self._consume(data)
        except _RECORD_ERRORS as exc:
            # A forged, truncated or unreadable record or frame: answer
            # with one fatal alert and close.
            if not self.closed:
                self._abort(exc, self._events)
        return self._take_events()

    def _take_events(self) -> list:
        events = self._events
        self._events = []
        return events

    def data_to_send(self) -> bytes:
        return self._plane.data_to_send()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.alert_sent = Alert.close_notify()
        self._send_alert(self.alert_sent)

    def peer_closed(self) -> list:
        if self.closed:
            return []
        self.closed = True
        return [ConnectionClosed(error="transport closed")]

    def _handle_alert(self, payload, events: list) -> bool:
        """Act on an inbound alert; True if it ended the connection.

        A payload that does not decode raises :class:`DecodeError`, which
        the receive loop answers with :meth:`_abort`.
        """
        alert = self.alert_received = Alert.decode(bytes(payload))
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
    and the server; subclasses split inbound bytes with
    ``_consume(side, data, events)``.
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

    def _consume(self, side: int, data: bytes, events: list) -> None:
        """Act on bytes arriving on segment ``side``; raising aborts."""
        raise NotImplementedError

    def _receive(self, side: int, data: bytes) -> list:
        if self.closed:
            return []
        events: list = []
        try:
            self._consume(side, data, events)
        except _RECORD_ERRORS as exc:
            # What this hop could check failed the check: originate a
            # fatal alert toward both segments.
            if not self.closed:
                self._abort(exc, events)
        return events

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


class RecordEndpoint(Endpoint):
    """An endpoint speaking TLS records through its :class:`RecordPlane`.

    Subclasses act on one record with ``_on_record(record, plaintext)``:
    ``plaintext`` is the record already opened in a batch-opened run (see
    :meth:`RecordPlane.open_runs`), or None, and then the subclass opens
    the record itself. ``_after_records`` runs once the whole flight is
    handled.
    """

    def _send_alert(self, alert: Alert) -> None:
        try:
            self._plane.queue_record(ContentType.ALERT, alert.encode())
        except ProtocolError:
            pass  # the outbox is full; the party still closes

    def _consume(self, data: bytes) -> None:
        plane = self._plane
        plane.feed(data)
        for record, plaintext in plane.open_runs(plane.pop_records()):
            if self.closed:
                return
            self._on_record(record, plaintext)
        if not self.closed:
            self._after_records()

    def _on_record(self, record: Record, plaintext) -> None:
        raise NotImplementedError

    def _after_records(self) -> None:
        """Run once a flight's records are all handled (nothing by default)."""


class RecordDuplex(Duplex):
    """A duplex element speaking TLS records on both segments.

    Subclasses act on one record arriving on ``side`` with
    ``_on_record(side, record, plaintext, events)``, ``plaintext`` as for
    :class:`RecordEndpoint`.
    """

    def _consume(self, side: int, data: bytes, events: list) -> None:
        plane = self._planes[side]
        plane.feed(data)
        for record, plaintext in plane.open_runs(plane.pop_records()):
            if self.closed:
                return
            self._on_record(side, record, plaintext, events)

    def _on_record(self, side: int, record: Record, plaintext, events: list) -> None:
        raise NotImplementedError


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

    def _consume(self, data: bytes) -> None:
        self._buffer += data
        events = self._events
        for kind, payload in pop_frames(self._buffer):
            if kind == FRAME_CLOSE:
                self.closed = True
                events.append(ConnectionClosed())
                return
            if kind == FRAME_ALERT:
                if self._handle_alert(payload, events):
                    return
                continue
            events.append(ApplicationData(data=self._open(payload)))


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

    def _consume(self, side: int, data: bytes, events: list) -> None:
        buffer = self._buffers[side]
        outbound = self._planes[1 - side]
        buffer += data
        for kind, payload in pop_frames(buffer):
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
                    return
                continue
            self._inspect(side, payload)
            outbound.queue_raw(frame(payload))
