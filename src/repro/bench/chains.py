"""Chain comparison harness for the sans-IO implementation matrix.

The Figure 5/6 harnesses drive the engine-based protocols (TLS, mbTLS,
split TLS) over the simulated network.  The sans-IO baselines — and the
mdTLS proxy-signature party in particular — live on the
:class:`~repro.io.connection.Connection` plane instead, so this module
measures the three quantities the paper's comparison figures need
directly on that plane:

* **handshake CPU** — process time from ``start()`` to both endpoints
  established, adversary-free;
* **flight count** — how many endpoint-originated batches of bytes cross
  the chain before establishment (mdTLS's claim: proxy signatures ride
  the existing four flights, unlike mbTLS's secondary handshakes which
  add encapsulated traffic inside the same flights);
* **chain throughput** — application bytes delivered end-to-end per CPU
  second through the established chain, including every per-hop
  re-encryption a middlebox performs.

Implementations are addressed by the same case names the fuzz corpus and
the connection contract pin, so ``measure_matrix`` stays in lockstep with
the implementations under test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.fuzzing import build_parties
from repro.io import DEFAULT_PUMP_ROUNDS
from repro.tls.events import ApplicationData

__all__ = ["COMPARE_CASES", "ChainMeasurement", "measure_case", "measure_matrix"]

#: mdTLS against mbTLS and the five comparison baselines, middlebox-free
#: and one-middlebox chains alike.
COMPARE_CASES = (
    "tls",
    "mbtls",
    "mbtls_middlebox",
    "mctls",
    "split_tls",
    "splice_relay",
    "shared_key",
    "mdtls",
    "mdtls_middlebox",
)


@dataclass(frozen=True)
class ChainMeasurement:
    """One implementation's handshake and data-plane costs."""

    case: str
    handshake_cpu_seconds: float
    flights: int
    throughput_bytes_per_second: float


def _raise_errors(name: str, chain) -> None:
    if chain.errors:
        party, exc = chain.errors[0]
        raise RuntimeError(f"{name}: {party} raised {exc!r}") from exc


def measure_case(
    name: str,
    seed: bytes = b"chain-compare",
    payload_bytes: int = 16384,
    batches: int = 8,
) -> ChainMeasurement:
    """Handshake CPU, flight count, and c2s throughput for one case."""
    parties = build_parties(name, seed)
    endpoint_hops = ((0, "c2s"), (len(parties.middles), "s2c"))
    flights = 0

    def count_flights(hop: int, direction: str, data: bytes) -> list:
        # Only endpoint-originated drains count: middlebox forwarding
        # continues the same flight rather than starting one.
        nonlocal flights
        if (hop, direction) in endpoint_hops:
            flights += 1
        return [data]

    chain = parties.chain(count_flights)
    handshake_start = time.process_time()
    chain.start()
    for _ in range(DEFAULT_PUMP_ROUNDS):
        if not chain.step() or parties.established():
            break
    handshake_cpu = time.process_time() - handshake_start
    handshake_flights = flights
    _raise_errors(name, chain)
    if not parties.established():
        raise RuntimeError(f"{name} failed to establish adversary-free")
    if parties.after_handshake is not None:
        chain.guard("harness", parties.after_handshake)

    handshake_events = len(chain.events)
    payload = b"\xa5" * payload_bytes
    data_start = time.process_time()
    for _ in range(batches):
        chain.send("left", payload)
    data_cpu = time.process_time() - data_start
    _raise_errors(name, chain)
    delivered = sum(
        len(event.data)
        for party, event in chain.events[handshake_events:]
        if party == "right" and isinstance(event, ApplicationData)
    )
    if delivered != batches * payload_bytes:
        raise RuntimeError(
            f"{name} delivered {delivered} of {batches * payload_bytes} bytes"
        )
    return ChainMeasurement(
        case=name,
        handshake_cpu_seconds=handshake_cpu,
        flights=handshake_flights,
        throughput_bytes_per_second=delivered / data_cpu if data_cpu else 0.0,
    )


def measure_matrix(
    cases=COMPARE_CASES, seed: bytes = b"chain-compare"
) -> list[ChainMeasurement]:
    """Measure every comparison case with a shared seed."""
    return [measure_case(name, seed) for name in cases]
