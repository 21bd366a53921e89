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

:mod:`repro.io.endpoint` implements the receive loop and the alert / abort
/ close part of this contract once, as the :class:`~repro.io.endpoint.Endpoint`
and :class:`~repro.io.endpoint.Duplex` bases. Every party inherits them
except split TLS and the mbTLS middlebox, which still carry their own close
and abort plumbing; the record-layer parties receive through
:class:`~repro.io.endpoint.RecordEndpoint` / :class:`~repro.io.endpoint.RecordDuplex`,
which open each run of application data in one batch and replay it record
by record if the batch fails.

This module also owns the shared pumps:

* :func:`pump` — two directly connected endpoints; exceptions escape;
* :class:`HopChain` — ``endpoint - duplex elements - endpoint`` in memory,
  one hop at a time, with an optional tap on every delivery. Every
  in-memory harness (fuzz, selftest, chain comparison, Table 1's mdTLS
  rows, the chunking property) drives its chain through it;
* :class:`DuplexPump` — drains a duplex element's outboxes into two
  transports.

The golden transcript tests in ``tests/test_connection_contract.py`` keep
their own inline loops on purpose: they are the independent oracle these
pumps are checked against.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Protocol, runtime_checkable

__all__ = [
    "Connection",
    "DuplexConnection",
    "DuplexPump",
    "HopChain",
    "flush_connection",
    "pump",
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


class HopChain:
    """``left - middles - right`` in memory, driven one hop delivery at a time.

    Party 0 is ``left`` and party ``n + 1`` is ``right`` for ``n`` duplex
    ``middles`` (named ``middle0`` ..). Hop ``i`` (0..n) runs between party
    ``i`` and party ``i + 1``, in direction ``"c2s"`` or ``"s2c"``.

    Every drained chunk passes through ``tap(hop, direction, data)``, which
    returns the segments to feed the receiver in order: ``[data]`` passes
    it on, ``[]`` drops it, and a rewrite or a split returns other bytes.
    Empty segments are skipped.

    The chain keeps ``events`` (``(party name, event)`` in delivery order),
    ``hash`` (a sha256 over each delivered segment as tag, 4-byte length and
    bytes, then each event as party name and event type name; the tag is
    ``c>``/``m>`` c2s out of ``left``/a middle and ``s>``/``m<`` s2c out of
    ``right``/a middle) and ``errors``: every exception a party step raised,
    as ``(party name, exception)``. A step that raised yields no events and
    the chain carries on; what an error means is the caller's policy.
    """

    def __init__(
        self,
        left: Connection,
        middles: list,
        right: Connection,
        tap: Callable[[int, str, bytes], list] | None = None,
    ) -> None:
        self.parties = [left, *middles, right]
        self.names = ["left", *(f"middle{i}" for i in range(len(middles))), "right"]
        self.last_hop = len(middles)
        self.tap = tap
        self.events: list[tuple[str, object]] = []
        self.errors: list[tuple[str, Exception]] = []
        self.hash = hashlib.sha256()
        # (hop, direction) -> (drain the sender, tag, receiver name, receive).
        self._hops = {}
        for hop in range(self.last_hop + 1):
            near, far = self.parties[hop], self.parties[hop + 1]
            self._hops[hop, "c2s"] = (
                near.data_to_send if hop == 0 else near.data_to_send_up,
                b"c>" if hop == 0 else b"m>",
                self.names[hop + 1],
                far.receive_bytes if hop == self.last_hop else far.receive_down,
            )
            self._hops[hop, "s2c"] = (
                far.data_to_send if hop == self.last_hop else far.data_to_send_down,
                b"s>" if hop == self.last_hop else b"m<",
                self.names[hop],
                near.receive_bytes if hop == 0 else near.receive_up,
            )

    def party(self, name: str):
        return self.parties[self.names.index(name)]

    def guard(self, name: str, step: Callable, *args):
        """Run one party step; an exception goes to ``errors``, not up."""
        try:
            return step(*args)
        except Exception as exc:  # noqa: BLE001 - recorded for the caller
            self.errors.append((name, exc))
            return []

    def start(self) -> None:
        """Start every party, left to right."""
        for name, party in zip(self.names, self.parties):
            self.guard(name, party.start)

    def deliver(self, hop: int, direction: str) -> bool:
        """Move one hop's queued bytes on; True if the sender had any."""
        drain, tag, name, receive = self._hops[hop, direction]
        data = drain()
        if not data:
            return False
        for segment in [data] if self.tap is None else self.tap(hop, direction, data):
            if not segment:
                continue
            self.hash.update(tag + len(segment).to_bytes(4, "big") + segment)
            for event in self.guard(name, receive, segment):
                self.events.append((name, event))
                self.hash.update(name.encode() + type(event).__name__.encode())
        return True

    def step(self) -> bool:
        """One sweep: every c2s hop in order, then every s2c hop in reverse."""
        moved = False
        for hop in range(self.last_hop + 1):
            moved |= self.deliver(hop, "c2s")
        for hop in range(self.last_hop, -1, -1):
            moved |= self.deliver(hop, "s2c")
        return moved

    def pump(self) -> bool:
        """Sweep until nothing moves; False if that took too many sweeps."""
        for _ in range(DEFAULT_PUMP_ROUNDS):
            if not self.step():
                return True
        return False

    def send(self, name: str, data: bytes) -> bool:
        """Queue application data at an open party, then :meth:`pump`."""
        party = self.party(name)
        if party.closed:
            return True
        self.guard(name, party.send_application_data, data)
        return self.pump()

    def close(self, name: str) -> bool:
        """Close one party, then :meth:`pump`."""
        self.guard(name, self.party(name).close)
        return self.pump()


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
