"""What one live session costs the cycle collector, and what a closed one leaves.

A fleet holds thousands of sessions at once, and every full collection walks
every collector-tracked object they keep.  These tests hold established
sessions on one :class:`~repro.netsim.network.Network` — half of them split
at a middlebox, all of them resumed like the fleet's bulk wave — and bound:

* the tracked objects per live session (``gc.get_objects()`` after
  ``gc.collect()``, against the same count before the sessions opened);
* what the network keeps once the sessions have closed: a stream leaves
  ``Network.streams`` when both of its sockets have closed.
"""

from __future__ import annotations

import gc

import pytest

from repro import obs
from repro.core.config import MbTLSEndpointConfig, MiddleboxConfig, MiddleboxRole
from repro.core.drivers import MiddleboxService, SessionSupervisor, serve_mbtls
from repro.core.resumption import MiddleboxSessionStore
from repro.netsim.network import Network
from repro.tls.config import TLSConfig
from repro.tls.events import ApplicationData
from repro.tls.session import ClientSessionStore, ServerSessionCache

#: Tracked objects one established session may keep.  The layout before the
#: handle indices, the slotted fleet session and the socket handlers kept
#: 169.3 on both CPython 3.11 and 3.12; this tree keeps 118.0 on 3.11 and
#: 115.3 on 3.12, so one bound holds on both.
MAX_TRACKED_PER_SESSION = 145


class _World:
    """``direct - server`` and ``edge - mb - server`` on one network."""

    def __init__(self, pki, rng) -> None:
        self.network = net = Network()
        for name in ("direct", "edge", "mb", "server"):
            net.add_host(name)
        net.add_link("direct", "server", 0.002)
        net.add_link("edge", "mb", 0.002)
        net.add_link("mb", "server", 0.002)
        self.pki = pki
        self.rng = rng
        server_cache = ServerSessionCache()
        mb_cache = ServerSessionCache()
        self.client_sessions = ClientSessionStore()
        self.mb_sessions = MiddleboxSessionStore()

        def server_config() -> MbTLSEndpointConfig:
            return MbTLSEndpointConfig(
                tls=TLSConfig(
                    rng=rng.fork(b"server"),
                    credential=pki.credential("server"),
                    session_cache=server_cache,
                ),
                middlebox_trust_store=pki.trust,
            )

        def on_server_event(engine, driver, event) -> None:
            if isinstance(event, ApplicationData):
                driver.send_application_data(b"pong")

        serve_mbtls(net.host("server"), server_config, on_event=on_server_event)

        def mb_config() -> MiddleboxConfig:
            return MiddleboxConfig(
                name="mb",
                tls=TLSConfig(
                    rng=rng.fork(b"mb"),
                    credential=pki.credential("mb"),
                    session_cache=mb_cache,
                ),
                role=MiddleboxRole.CLIENT_SIDE,
            )

        self.service = MiddleboxService(net.host("mb"), mb_config)

    def _client_config(self) -> MbTLSEndpointConfig:
        return MbTLSEndpointConfig(
            tls=TLSConfig(
                rng=self.rng.fork(b"client"),
                trust_store=self.pki.trust,
                server_name="server",
                session_store=self.client_sessions,
            ),
            middlebox_trust_store=self.pki.trust,
            middlebox_session_store=self.mb_sessions,
        )

    def open(self, count: int) -> list[SessionSupervisor]:
        """Establish ``count`` sessions (odd ones via the middlebox), one
        request/response each, and leave them open."""

        def on_state(supervisor: SessionSupervisor, state: str) -> None:
            if state == "established":
                supervisor.send_application_data(b"ping")

        supervisors = [
            SessionSupervisor(
                self.network.host("edge" if index % 2 else "direct"),
                "server",
                self._client_config,
                on_state=on_state,
            )
            for index in range(count)
        ]
        self.network.sim.run(until=self.network.sim.now + 3.0)
        assert [s.state for s in supervisors] == ["established"] * count
        return supervisors

    def close(self, supervisors: list[SessionSupervisor]) -> None:
        for supervisor in supervisors:
            supervisor.close()
        self.network.sim.run(until=self.network.sim.now + 3.0)


@pytest.fixture
def world(pki, rng):
    with obs.scoped():
        world = _World(pki, rng)
        # Full handshakes seed the resumption stores, as the fleet's
        # warm-up wave does.
        world.open(2)
        yield world


def test_tracked_objects_per_live_session_are_bounded(world):
    sessions = 24
    gc.collect()
    before = len(gc.get_objects())
    live = world.open(sessions)
    gc.collect()
    per_session = (len(gc.get_objects()) - before) / sessions
    assert len(world.service.drivers) == sessions // 2 + 1
    assert per_session <= MAX_TRACKED_PER_SESSION, (
        f"{per_session:.1f} tracked objects per live session")
    world.close(live)


def test_closed_sessions_leave_no_streams(world):
    network = world.network
    # The warm-up sessions: one direct stream, two split at the middlebox.
    assert len(network.streams) == 3
    for _ in range(3):
        world.close(world.open(8))
    assert len(network.streams) == 3
    assert len(world.service.drivers) == 1
    streams = network.streams
    assert all(not (a.closed and b.closed) for a, b in (s.endpoints for s in streams))
    # Creation order survives pruning.
    assert [s.path for s in streams] == [
        ("direct", "server"), ("edge", "mb"), ("mb", "server")]


def test_crash_resets_live_streams_only(world):
    network = world.network
    live = world.open(4)
    world.close(world.open(4))
    assert len(network.streams) == 3 + 2 + 2 * 2
    network.crash_host("mb")
    network.sim.run(until=network.sim.now + 1.0)
    # Every live stream through the middlebox was reset and has left; the
    # direct ones are untouched.
    assert [s.path for s in network.streams] == [("direct", "server")] * 3
    assert [s.state for s in live] == ["established", "closed"] * 2
