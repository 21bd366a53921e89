"""Simulated network: hosts, links, routing, and split-TCP streams.

The model is deliberately at the granularity the paper's evaluation needs:

* **Links** have propagation latency and bandwidth; routes are shortest
  paths over the link graph.
* **Streams** are reliable, in-order, connection-oriented byte pipes with a
  one-RTT setup handshake (SYN/SYN-ACK) — the properties of TCP that matter
  for handshake-latency accounting — modelled fluidly (serialization at the
  bottleneck rate plus end-to-end propagation delay).
* **Interception**: a host on the path may register a transparent
  interceptor for a port; connections through it are *split* there, exactly
  how the paper's middleboxes "optimistically split the TCP connection".
  Hosts without an interceptor forward silently (a packet-level relay).
* **Taps** attach to a stream and may observe, modify, drop, or inject
  bytes — the active network adversary of §3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.errors import NetworkError, SimulationError
from repro.netsim.sim import Simulator

__all__ = ["Network", "Host", "Stream", "Socket", "Tap", "InterceptedFlow"]

_DEFAULT_BANDWIDTH = 1e9  # 1 Gbps


class Tap:
    """Base class for on-path adversaries/filters attached to a stream.

    Subclasses override :meth:`process`. Returning ``None`` drops the chunk;
    returning modified bytes forwards them; ``chunk`` unchanged passes
    through. ``observe``-only taps just record and return the chunk.
    """

    def process(self, sender: "Host", data: bytes, stream: "Stream") -> bytes | None:
        return data


class Socket:
    """One endpoint of a duplex stream. All I/O is callback-based."""

    def __init__(self, host: "Host", stream: "Stream", side: int) -> None:
        self.host = host
        self._stream = stream
        self._side = side
        self.connected = False
        self.closed = False
        self.aborted = False
        self.abort_reason: str | None = None
        self._on_data: Callable[[bytes], None] | None = None
        self._on_connected: Callable[[], None] | None = None
        self._on_close: Callable[[], None] | None = None
        self._pending_out = bytearray()
        self._pending_in = bytearray()

    # Registration -----------------------------------------------------

    def on_data(self, callback: Callable[[bytes], None]) -> None:
        self._on_data = callback
        if self._pending_in:
            data = bytes(self._pending_in)
            self._pending_in.clear()
            callback(data)

    def on_connected(self, callback: Callable[[], None]) -> None:
        self._on_connected = callback
        if self.connected:
            callback()

    def on_close(self, callback: Callable[[], None]) -> None:
        self._on_close = callback

    # I/O ----------------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Queue bytes; they flow once the connection is established.

        Sending on a closed or aborted socket raises :class:`NetworkError`
        (the bytes could never flow; silently queueing them would let a
        dead connection masquerade as a slow one).
        """
        if self.closed:
            reason = f": {self.abort_reason}" if self.abort_reason else ""
            raise NetworkError(f"socket is closed{reason}")
        if not data:
            return
        if not self.connected:
            self._pending_out += data
            return
        self._stream.transmit(self._side, bytes(data))

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._stream.close_from(self._side)

    # Internal (called by Stream) ------------------------------------------

    def _established(self) -> None:
        self.connected = True
        if self._pending_out:
            data = bytes(self._pending_out)
            self._pending_out.clear()
            self._stream.transmit(self._side, data)
        if self._on_connected is not None:
            self._on_connected()

    def _deliver(self, data: bytes) -> None:
        if self.closed:
            return
        if self._on_data is None:
            self._pending_in += data
        else:
            self._on_data(data)

    def _peer_closed(self) -> None:
        if not self.closed:
            self.closed = True
            if self._on_close is not None:
                self._on_close()

    def _abort(self, reason: str) -> None:
        """Hard-kill this endpoint (RST semantics): no more I/O either way."""
        if self.closed:
            return
        self.closed = True
        self.aborted = True
        self.abort_reason = reason
        self._pending_out.clear()
        self._pending_in.clear()
        if self._on_close is not None:
            self._on_close()


class Stream:
    """A reliable duplex byte pipe between two hosts along a path of links.

    Fluid model: per-direction serialization at the bottleneck bandwidth,
    plus the summed propagation delay of the path.
    """

    def __init__(
        self,
        network: "Network",
        a: "Host",
        b: "Host",
        latency: float,
        bandwidth: float,
        path: tuple[str, ...] = (),
    ) -> None:
        self.network = network
        self.latency = latency
        self.bandwidth = bandwidth
        self.path = path or (a.name, b.name)
        self.link = f"{self.path[0]}-{self.path[-1]}"
        self.endpoints = (Socket(a, self, 0), Socket(b, self, 1))
        self.taps: list[Tap] = []
        self._next_free = [0.0, 0.0]
        self.bytes_transferred = [0, 0]
        self.aborted = False
        # Delivery counters of this link, bound on the first delivery
        # under each obs plane.
        self._obs_plane = None
        self._obs_delivered = None

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    def add_tap(self, tap: Tap) -> None:
        self.taps.append(tap)

    def establish(self) -> None:
        """Complete the SYN/SYN-ACK exchange (scheduled by Network)."""
        if self.aborted:
            return
        for socket in self.endpoints:
            socket._established()

    def transmit(self, side: int, data: bytes) -> None:
        sender = self.endpoints[side].host
        for tap in self.taps:
            result = tap.process(sender, data, self)
            if result is None:
                obs.counter("net_chunks_dropped", link=self.link).inc()
                return  # dropped on the wire
            if result is not data and result != data:
                obs.counter("net_chunks_mutated", link=self.link).inc()
            data = result
            if not data:
                obs.counter("net_chunks_dropped", link=self.link).inc()
                return
        self._schedule_delivery(side, data)

    def inject(self, toward_side: int, data: bytes) -> None:
        """(Adversary) place bytes on the wire toward one endpoint."""
        self._schedule_delivery(1 - toward_side, data)

    def _schedule_delivery(self, side: int, data: bytes) -> None:
        if self.aborted:
            return  # bytes in flight on a reset connection evaporate
        sim = self.sim
        serialization = len(data) * 8 / self.bandwidth
        depart = max(sim.now, self._next_free[side])
        self._next_free[side] = depart + serialization
        arrival = depart + serialization + self.latency
        receiver = self.endpoints[1 - side]
        self.bytes_transferred[side] += len(data)
        current = obs.plane()
        if current is not self._obs_plane:
            self._obs_plane = current
            self._obs_delivered = (
                current.metrics.counter("net_chunks_delivered", link=self.link),
                current.metrics.counter("net_bytes_delivered", link=self.link),
            )
        chunks, size = self._obs_delivered
        chunks.inc()
        size.inc(len(data))
        sim.schedule_at(arrival, lambda: receiver._deliver(data))

    def close_from(self, side: int) -> None:
        # The close (FIN) is ordered behind any bytes still serializing in
        # this direction, like TCP's in-order delivery guarantees.
        peer = self.endpoints[1 - side]
        depart = max(self.sim.now, self._next_free[side])
        self.sim.schedule_at(depart + self.latency, peer._peer_closed)

    def abort(self, reason: str, at_host: str | None = None) -> None:
        """Reset the connection (host crash, refused SYN, hard failure).

        The socket at ``at_host`` dies immediately; the far endpoint
        observes the reset one propagation delay later (an RST crossing the
        path). With ``at_host=None`` both ends die immediately.
        """
        if self.aborted:
            return
        self.aborted = True
        for socket in self.endpoints:
            if at_host is not None and socket.host.name != at_host:
                self.sim.schedule(self.latency, lambda s=socket: s._abort(reason))
            else:
                socket._abort(reason)


@dataclass
class InterceptedFlow:
    """Handed to an interceptor when a connection is split at its host.

    Attributes:
        socket: the accepted, client-facing socket.
        destination: the hostname the client was actually connecting to.
        port: destination port.
        source: the client-side host the segment came from.
    """

    socket: Socket
    destination: str
    port: int
    source: str
    _network: "Network" = field(repr=False, default=None)
    _remaining_path: tuple[str, ...] = ()

    def dial_onward(self) -> Socket:
        """Open the next split segment toward the original destination."""
        return self._network._connect_along(
            list(self._remaining_path), self.destination, self.port
        )


class Host:
    """A machine attached to the network."""

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        self.alive = True
        self._listeners: dict[int, Callable[[Socket, str], None]] = {}
        self._interceptors: dict[int, Callable[[InterceptedFlow], None]] = {}

    def listen(self, port: int, acceptor: Callable[[Socket, str], None]) -> None:
        """Accept connections to this host: acceptor(socket, source_name)."""
        self._listeners[port] = acceptor

    def intercept(self, port: int, interceptor: Callable[[InterceptedFlow], None]) -> None:
        """Transparently intercept connections *through* this host."""
        self._interceptors[port] = interceptor

    def stop_intercepting(self, port: int) -> None:
        self._interceptors.pop(port, None)

    def stop_listening(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(self, destination: str, port: int) -> Socket:
        """Open a (possibly intercepted) connection toward ``destination``."""
        if not self.alive:
            raise NetworkError(f"host {self.name!r} is down")
        return self.network.connect(self.name, destination, port)

    def __repr__(self) -> str:
        return f"Host({self.name!r})"


class Network:
    """The topology: hosts, links, and connection plumbing."""

    def __init__(self, sim: Simulator | None = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], tuple[float, float]] = {}
        self._adjacency: dict[str, list[str]] = {}
        self._stream_taps: list[Callable[[Stream, str, str], None]] = []
        self.streams: list[Stream] = []

    # Topology -----------------------------------------------------------

    def add_host(self, name: str) -> Host:
        if name in self.hosts:
            raise SimulationError(f"duplicate host {name!r}")
        host = Host(self, name)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError as exc:
            raise SimulationError(f"unknown host {name!r}") from exc

    def add_link(
        self, a: str, b: str, latency: float, bandwidth: float = _DEFAULT_BANDWIDTH
    ) -> None:
        """Add a bidirectional link with one-way ``latency`` seconds."""
        for name in (a, b):
            if name not in self.hosts:
                raise SimulationError(f"unknown host {name!r}")
        self._links[(a, b)] = (latency, bandwidth)
        self._links[(b, a)] = (latency, bandwidth)
        self._adjacency.setdefault(a, []).append(b)
        self._adjacency.setdefault(b, []).append(a)

    def path_between(self, src: str, dst: str) -> list[str]:
        """Shortest path (BFS by hop count) including both endpoints."""
        if src == dst:
            raise SimulationError("src and dst are the same host")
        frontier = [src]
        parents: dict[str, str] = {src: src}
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                for neighbor in self._adjacency.get(node, []):
                    if neighbor not in parents:
                        parents[neighbor] = node
                        if neighbor == dst:
                            path = [dst]
                            while path[-1] != src:
                                path.append(parents[path[-1]])
                            return list(reversed(path))
                        nxt.append(neighbor)
            frontier = nxt
        raise NetworkError(f"no route from {src!r} to {dst!r}")

    def path_metrics(self, path: list[str]) -> tuple[float, float]:
        """(total one-way latency, bottleneck bandwidth) along ``path``."""
        latency = 0.0
        bandwidth = float("inf")
        for a, b in zip(path, path[1:]):
            try:
                link_latency, link_bandwidth = self._links[(a, b)]
            except KeyError as exc:
                raise NetworkError(f"no link {a!r}-{b!r}") from exc
            latency += link_latency
            bandwidth = min(bandwidth, link_bandwidth)
        return latency, bandwidth

    # Failures -------------------------------------------------------------

    def crash_host(self, name: str) -> None:
        """Kill the processes on a host: listeners and interceptors vanish,
        every established connection terminating there resets, and new SYNs
        are refused until :meth:`restart_host`.

        The box keeps forwarding at the packet level (links stay up), so a
        crashed *middlebox* is transparently bypassed by later connections —
        the degradation the paper's optimistic-announcement design allows.
        Use a link partition to model the whole box falling off the network.
        """
        host = self.host(name)
        host.alive = False
        host._listeners.clear()
        host._interceptors.clear()
        for stream in self.streams:
            if not stream.aborted and any(
                socket.host is host for socket in stream.endpoints
            ):
                stream.abort(f"host {name} crashed", at_host=name)

    def restart_host(self, name: str) -> None:
        """Bring a crashed host back up (services must re-register)."""
        self.host(name).alive = True

    # Taps ----------------------------------------------------------------

    def on_new_stream(self, hook: Callable[[Stream, str, str], None]) -> None:
        """Register a hook invoked for every new stream: hook(stream, a, b).

        Adversaries and per-network filters attach their taps here.
        """
        self._stream_taps.append(hook)

    # Connections ----------------------------------------------------------

    def connect(self, src: str, destination: str, port: int) -> Socket:
        """Connect from ``src`` toward ``destination``, splitting at
        interceptors along the way. Returns the client-side socket."""
        path = self.path_between(src, destination)
        return self._connect_along(path, destination, port)

    def _connect_along(self, path: list[str], destination: str, port: int) -> Socket:
        src = path[0]
        # Find the first intercepting host strictly between the endpoints.
        split_index = len(path) - 1
        for index in range(1, len(path) - 1):
            if port in self.hosts[path[index]]._interceptors:
                split_index = index
                break
        target_name = path[split_index]
        segment = path[: split_index + 1]
        latency, bandwidth = self.path_metrics(segment)
        stream = Stream(
            self,
            self.hosts[src],
            self.hosts[target_name],
            latency,
            bandwidth,
            path=tuple(segment),
        )
        self.streams.append(stream)
        for hook in self._stream_taps:
            hook(stream, src, target_name)
        client_socket = stream.endpoints[0]
        remote_socket = stream.endpoints[1]

        remaining = tuple(path[split_index:])

        def on_syn() -> None:
            target = self.hosts[target_name]
            if not target.alive:
                # A dead host answers SYNs with a reset, not an exception in
                # the event loop: the caller's socket sees on_close.
                stream.abort(f"connection refused: host {target_name} is down",
                             at_host=target_name)
                return
            if split_index < len(path) - 1:
                interceptor = target._interceptors.get(port)
                if interceptor is None:
                    # The interceptor vanished (crash) after routing chose
                    # this split point: reset so the caller can retry and be
                    # routed past the dead middlebox.
                    stream.abort(
                        f"connection reset: interceptor on {target_name} is gone",
                        at_host=target_name,
                    )
                    return
                flow = InterceptedFlow(
                    socket=remote_socket,
                    destination=destination,
                    port=port,
                    source=src,
                    _network=self,
                    _remaining_path=remaining,
                )
                interceptor(flow)
            else:
                acceptor = target._listeners.get(port)
                if acceptor is None:
                    raise NetworkError(
                        f"connection refused: {target_name}:{port} not listening"
                    )
                acceptor(remote_socket, src)
            # SYN-ACK: both ends established one RTT after the SYN left.
            self.sim.schedule(latency, stream.establish)

        # SYN arrives after one-way latency.
        self.sim.schedule(latency, on_syn)
        return client_socket
