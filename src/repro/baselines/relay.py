"""Transparent relays — the TLS baseline of Figure 6.

Two flavours:

* a *path relay* is just a host on the route with no interceptor; the
  network forwards through it with link latency only ("the middlebox simply
  relays packets", the worst case to compare mbTLS against);
* a :class:`SpliceRelay` terminates TCP and splices bytes — an
  application-layer relay with no TLS processing, used to isolate the cost
  of split TCP from the cost of split TLS. :class:`SpliceRelayService`
  deploys one per intercepted connection behind a
  :class:`~repro.netsim.driver.DuplexDriver`.
"""

from __future__ import annotations

from repro.io.endpoint import Duplex
from repro.netsim.driver import CpuMeter, DuplexDriver
from repro.netsim.network import Host, InterceptedFlow

__all__ = ["SpliceRelay", "SpliceRelayService"]


class SpliceRelay(Duplex):
    """Sans-IO byte splice: bytes in on one segment, out on the other.

    The planes serve as coalesced outboxes only; the relay never parses
    records, so it never originates an alert either.
    """

    def __init__(self) -> None:
        super().__init__()
        self.bytes_relayed = 0

    def _receive(self, side: int, data: bytes) -> list:
        if self.closed:
            return []
        self.bytes_relayed += len(data)
        self._planes[1 - side].queue_raw(data)
        return []


class SpliceRelayService:
    """Splits TCP at a host and splices bytes verbatim in both directions."""

    def __init__(self, host: Host, port: int = 443, meter: CpuMeter | None = None) -> None:
        self.host = host
        self.meter = meter if meter is not None else CpuMeter(host.name)
        self.relays: list[SpliceRelay] = []
        self.drivers: list[DuplexDriver] = []
        host.intercept(port, self._on_intercept)

    @property
    def connections(self) -> int:
        return len(self.relays)

    @property
    def bytes_relayed(self) -> int:
        return sum(relay.bytes_relayed for relay in self.relays)

    def _on_intercept(self, flow: InterceptedFlow) -> None:
        relay = SpliceRelay()
        self.relays.append(relay)
        driver = DuplexDriver(relay, flow.socket, meter=self.meter)
        self.drivers.append(driver)
        with self.meter.measure():
            relay.start()
        driver.bind_up(flow.dial_onward())
