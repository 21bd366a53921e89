"""The middlebox backpressure signal is maintained, not scanned.

:meth:`MiddleboxService.max_outbox_fill` reads only the connections whose
onward segment is not bound yet: every driver event path ends in a flush
toward each open segment and a closed segment finishes the driver, so no
other live connection can hold unsent bytes.  These tests check that claim
where it matters:

* at every admission poll of a small orchestrated fleet and a small chaos
  fleet, the maintained value equals the full scan over every live driver
  (what the signal used to compute);
* with a real middlebox engine whose onward dial is held, the fill is above
  zero, admission defers with ``reason=backpressure``, and binding the
  segment reopens the gate.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.bench.fleet import FleetConfig, run_fleet
from repro.core.config import MbTLSEndpointConfig, MiddleboxConfig, MiddleboxRole
from repro.core.drivers import (
    MiddleboxDriver,
    MiddleboxService,
    SessionSupervisor,
    serve_mbtls,
)
from repro.core.orchestrator import SessionOrchestrator
from repro.tls.config import TLSConfig

FLEET = FleetConfig(
    sessions=60,
    num_shards=2,
    servers_per_shard=2,
    arrival_ramp=2.0,
    session_lifetime=4.0,
    middlebox_every=2,
)
CHAOS = FleetConfig(
    sessions=120,
    num_shards=2,
    servers_per_shard=2,
    arrival_ramp=4.0,
    session_lifetime=8.0,
    middlebox_every=2,
    chaos=True,
    chaos_horizon=6.0,
)


def _full_scan(service: MiddleboxService) -> float:
    return max((driver.engine.outbox_fill for driver in service.drivers), default=0.0)


@pytest.fixture
def checked_polls(monkeypatch):
    """Every poll, as ``(maintained, full scan, live drivers)``."""
    polls: list[tuple[float, float, int]] = []
    maintained_fill = MiddleboxService.max_outbox_fill

    def checked(service: MiddleboxService) -> float:
        scanned = _full_scan(service)
        live = len(service.drivers)
        fill = maintained_fill(service)
        polls.append((fill, scanned, live))
        return fill

    monkeypatch.setattr(MiddleboxService, "max_outbox_fill", checked)
    return polls


@pytest.mark.parametrize("config", [FLEET, CHAOS], ids=["clean", "chaos"])
def test_maintained_fill_equals_the_full_scan_at_every_poll(checked_polls, config):
    report = run_fleet(config)
    assert report["sessions"]["established"] > 0
    assert checked_polls, "admission never polled the middlebox services"
    mismatches = [poll for poll in checked_polls if poll[0] != poll[1]]
    assert not mismatches, mismatches[:5]
    # The polls saw live middlebox connections, so the scan had work to do.
    assert max(live for _, _, live in checked_polls) > 1


class _HeldDials:
    """Holds every middlebox driver's onward dial until released."""

    def __init__(self, monkeypatch) -> None:
        self.held: list[MiddleboxDriver] = []
        self._dial = MiddleboxDriver._after_down_data
        monkeypatch.setattr(
            MiddleboxDriver, "_after_down_data", lambda driver: self.held.append(driver))

    def release(self) -> None:
        for driver in self.held:
            self._dial(driver)
        self.held.clear()


def test_an_unbound_onward_segment_defers_admission(monkeypatch, pki, rng):
    held = _HeldDials(monkeypatch)
    with obs.scoped() as plane:
        orchestrator = SessionOrchestrator(
            b"held-dial", num_shards=1, outbox_high_watermark=1e-6)
        shard = orchestrator.shards[0]
        network = shard.network
        for name in ("client", "mb", "server"):
            network.add_host(name)
        network.add_link("client", "mb", 0.002)
        network.add_link("mb", "server", 0.002)
        serve_mbtls(network.host("server"), lambda: MbTLSEndpointConfig(
            tls=TLSConfig(rng=rng.fork(b"server"), credential=pki.credential("server")),
            middlebox_trust_store=pki.trust,
        ))
        # A preconfigured middlebox dials onward only once the ClientHello
        # names the next hop; until then what it forwards waits in its
        # up-facing outbox.
        service = MiddleboxService(
            network.host("mb"),
            lambda: MiddleboxConfig(
                name="mb",
                tls=TLSConfig(rng=rng.fork(b"mb"), credential=pki.credential("mb")),
                role=MiddleboxRole.CLIENT_SIDE,
            ),
            intercept=False,
            listen=True,
        )
        shard.watch_service(service)
        admitted: list[SessionSupervisor] = []

        def factory(shard_obj, on_state):
            supervisor = SessionSupervisor(
                network.host("client"), "mb",
                lambda: MbTLSEndpointConfig(
                    tls=TLSConfig(rng=rng.fork(b"client"), trust_store=pki.trust,
                                  server_name="server"),
                    middlebox_trust_store=pki.trust,
                    preconfigured_middleboxes=("mb",),
                ),
                start=False, on_state=on_state,
            )
            admitted.append(supervisor)
            return supervisor

        orchestrator.submit(0, factory)
        orchestrator.sim.run(until=0.05)
        assert len(admitted) == 1 and len(held.held) == 1
        fill = service.max_outbox_fill()
        assert fill > 0.0
        assert fill == _full_scan(service)

        orchestrator.submit(0, factory)
        assert len(admitted) == 1
        assert plane.metrics.counter_value(
            "fleet.admission_deferred", shard="0", reason="backpressure") == 1

        # The onward segment binds and its outbox drains: the next
        # admission retry lets the second session through.
        monkeypatch.undo()
        held.release()
        assert service.max_outbox_fill() == 0.0
        orchestrator.sim.run(until=0.1)
        assert len(admitted) == 2
        orchestrator.sim.run(until=1.0)
        assert [s.state for s in admitted] == ["established"] * 2
