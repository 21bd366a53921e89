"""The shared connection contract every protocol party implements.

Every party in the tree — the plain TLS engines, the three mbTLS engines,
the three mdTLS classes, and the five other baselines — is a *sans-IO*
state machine behind one of two surfaces:

* :class:`Connection` — an endpoint: one byte stream in, one byte stream
  out (``start / receive_bytes -> events / data_to_send / close /
  peer_closed / closed``).
* :class:`DuplexConnection` — an in-path element between two TCP segments
  (*down* faces the client, *up* faces the server), with the same surface
  per side.

The contract (enforced by ``tests/test_connection_contract.py``):

* ``start()`` may be called exactly once; a second call raises
  :class:`~repro.errors.ProtocolError` and must not emit bytes or events.
* ``data_to_send()`` drains: an immediate second call returns ``b""``.
* ``receive_bytes()`` after ``closed`` returns ``[]`` — never raises.
* ``close()`` and ``peer_closed()`` are idempotent; events after close
  are empty.
* sending application data after close raises
  :class:`~repro.errors.ProtocolError` instead of silently queueing.
* the same DRBG seed yields a byte-identical wire transcript;
* a hostile record or frame draws exactly one fatal alert per live side,
  attributed like ``abort``, and then the party is closed and silent.

:mod:`repro.io.endpoint` implements the alert / abort / close part of this
contract once, as the :class:`~repro.io.endpoint.Endpoint` and
:class:`~repro.io.endpoint.Duplex` bases most parties inherit.

This module also owns the *only* pump implementations in the tree:
:func:`pump` (two directly connected endpoints), :func:`pump_chain`
(endpoint - duplex elements - endpoint, all in memory), and
:class:`DuplexPump` (drain a duplex element's outboxes into two
transports). Drivers and tests must use these instead of hand-rolling
quiescence loops.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

__all__ = [
    "Connection",
    "DuplexConnection",
    "DuplexPump",
    "flush_connection",
    "pump",
    "pump_chain",
]

#: Safety bound on pump rounds; any healthy handshake quiesces well before.
DEFAULT_PUMP_ROUNDS = 30


@runtime_checkable
class Connection(Protocol):
    """A sans-IO endpoint: one inbound byte stream, one outbound."""

    @property
    def closed(self) -> bool: ...

    def start(self) -> None:
        """Kick the state machine off (e.g. send a ClientHello)."""
        ...

    def receive_bytes(self, data: bytes) -> list:
        """Feed transport bytes; returns the protocol events they caused."""
        ...

    def data_to_send(self) -> bytes:
        """Drain bytes destined for the transport."""
        ...

    def send_application_data(self, data: bytes) -> None:
        """Queue application data (raises once closed)."""
        ...

    def close(self) -> None:
        """Shut down cleanly (say goodbye on the wire if possible)."""
        ...

    def peer_closed(self) -> list:
        """The transport died under us; returns the resulting events."""
        ...


@runtime_checkable
class DuplexConnection(Protocol):
    """A sans-IO in-path element between two TCP segments."""

    @property
    def closed(self) -> bool: ...

    def start(self) -> None: ...

    def receive_down(self, data: bytes) -> list:
        """Feed bytes arriving on the client-facing segment."""
        ...

    def receive_up(self, data: bytes) -> list:
        """Feed bytes arriving on the server-facing segment."""
        ...

    def data_to_send_down(self) -> bytes: ...

    def data_to_send_up(self) -> bytes: ...

    def peer_closed_down(self) -> list:
        """The client-facing segment closed under us."""
        ...

    def peer_closed_up(self) -> list:
        """The server-facing segment closed under us."""
        ...


def pump(
    a: Connection, b: Connection, rounds: int = DEFAULT_PUMP_ROUNDS
) -> tuple[list, list]:
    """Drive two directly connected connections to quiescence.

    Alternates ``a -> b`` then ``b -> a`` until neither side produced
    output. Returns ``(a_events, b_events)``.
    """
    a_events: list = []
    b_events: list = []
    for _ in range(rounds):
        progressed = False
        data = a.data_to_send()
        if data:
            b_events += b.receive_bytes(data)
            progressed = True
        data = b.data_to_send()
        if data:
            a_events += a.receive_bytes(data)
            progressed = True
        if not progressed:
            break
    return a_events, b_events


def pump_chain(
    left: Connection,
    middles: DuplexConnection | list,
    right: Connection,
    rounds: int = DEFAULT_PUMP_ROUNDS,
) -> tuple[list, list, list]:
    """Drive ``left - [duplex elements] - right`` to quiescence in memory.

    ``middles`` is one duplex element or a list ordered client-to-server.
    Returns ``(left_events, middle_events, right_events)`` with the middle
    events flattened across elements.
    """
    if not isinstance(middles, (list, tuple)):
        middles = [middles]
    left_events: list = []
    middle_events: list = []
    right_events: list = []
    for _ in range(rounds):
        progressed = False
        # Client-to-server sweep.
        data = left.data_to_send()
        for middle in middles:
            if data:
                middle_events += middle.receive_down(data)
                progressed = True
            data = middle.data_to_send_up()
        if data:
            right_events += right.receive_bytes(data)
            progressed = True
        # Server-to-client sweep.
        data = right.data_to_send()
        for middle in reversed(middles):
            if data:
                middle_events += middle.receive_up(data)
                progressed = True
            data = middle.data_to_send_down()
        if data:
            left_events += left.receive_bytes(data)
            progressed = True
        if not progressed:
            break
    return left_events, middle_events, right_events


def flush_connection(connection: Connection, send: Callable[[bytes], None]) -> bool:
    """Drain a connection's outbox into ``send``; True if bytes moved."""
    data = connection.data_to_send()
    if data:
        send(data)
        return True
    return False


class DuplexPump:
    """Drains a duplex element's outboxes into its two transports.

    The transports only need ``send(data)`` and a ``closed`` attribute —
    the simulated :class:`~repro.netsim.network.Socket` qualifies, as does
    any test double. The up transport may be bound late (optimistic split
    TCP dials the onward segment after the first client flight).
    """

    def __init__(self, connection: DuplexConnection, down, up=None) -> None:
        self.connection = connection
        self.down = down
        self.up = up

    def bind_up(self, up) -> None:
        self.up = up

    def flush(self) -> None:
        """Move pending output toward whichever segments are still open."""
        if self.up is not None and not self.up.closed:
            data = self.connection.data_to_send_up()
            if data:
                self.up.send(data)
        if self.down is not None and not self.down.closed:
            data = self.connection.data_to_send_down()
            if data:
                self.down.send(data)
