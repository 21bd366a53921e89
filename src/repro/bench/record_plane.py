"""Record-plane framing microbenchmark (shared by pytest and the CLI).

Measures the coalesced :class:`repro.io.record_plane.RecordPlane` drain
path against the historical per-record path (eager fragmentation slice,
per-record ``Record.encode()``, join on drain) over identical plaintext
workloads, and reports records/sec plus bytes-copied counts.  The
``receive`` section mirrors the comparison on the inbound side: the
historical parse (one ``bytes()`` per record plus the decode slice, then
per-record ``unprotect``) against the zero-copy path (one snapshot per
flight, payloads as memoryview slices, one ``unprotect_many``).  The
report is written to ``BENCH_record_plane.json`` by the benchmark test
and by ``python -m repro bench``.
"""

from __future__ import annotations

import time

from repro import obs
from repro.bench.crypto import SCHEMA_VERSION, git_describe
from repro.io.record_plane import RecordPlane
from repro.wire.records import (
    ContentType,
    MAX_FRAGMENT,
    RECORD_HEADER_LEN,
    Record,
    RecordBuffer,
)

__all__ = ["run", "legacy_drain", "plane_drain", "legacy_receive", "plane_receive"]

PAYLOAD_BYTES = 65536  # one 64 KiB app write -> a 4-record flight
FLIGHTS = 200
RECEIVE_FLIGHTS = 30  # sealed flights on the receive comparison


def legacy_drain(data: bytes) -> tuple[bytes, int]:
    """The pre-refactor path: eager slices, per-record encode, join on drain.

    Returns (wire bytes, payload bytes copied along the way).
    """
    copied = 0
    records: list[bytes] = []
    for offset in range(0, len(data), MAX_FRAGMENT):
        chunk = data[offset : offset + MAX_FRAGMENT]  # eager slice: copy 1
        copied += len(chunk)
        encoded = Record(ContentType.APPLICATION_DATA, chunk).encode()  # copy 2
        copied += len(encoded)
        records.append(encoded)
    wire = b"".join(records)  # copy 3
    copied += len(wire)
    return wire, copied


def plane_drain(plane: RecordPlane, data: bytes) -> tuple[bytes, int]:
    """The coalesced path: memoryview fragmentation, one copy per flight."""
    before = len(data)  # payload lands in the outbox bytearray: copy 1
    plane.queue_application_data(data)
    wire = plane.data_to_send()  # bytes(outbox): copy 2
    return wire, before + len(wire)


def _throughput(drain, payload_bytes: int, flights: int) -> tuple[float, int, int]:
    """Runs ``drain`` per flight; returns (records/sec, records, bytes copied)."""
    records = 0
    copied = 0
    start = time.perf_counter()
    for _ in range(flights):
        wire, flight_copied = drain()
        copied += flight_copied
        records += -(-payload_bytes // MAX_FRAGMENT)
        assert wire  # keep the drain honest
    elapsed = time.perf_counter() - start
    return records / elapsed, records, copied


# ---------------------------------------------------------------- receive


def _sealed_flights(payload: bytes, flights: int):
    """Pre-sealed AES-128-GCM wire flights plus a fresh-read-state factory."""
    from repro.tls.ciphersuites import TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256
    from repro.tls.record_layer import ConnectionState

    suite = TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256
    key = bytes(range(suite.key_length))
    fixed_iv = b"\x0a" * suite.fixed_iv_length
    write = ConnectionState(suite, key, fixed_iv)
    view = memoryview(payload)
    items = [
        (ContentType.APPLICATION_DATA, bytes(view[off : off + MAX_FRAGMENT]))
        for off in range(0, len(payload), MAX_FRAGMENT)
    ]
    wires = [
        b"".join(record.encode() for record in write.protect_many(items))
        for _ in range(flights)
    ]
    return wires, lambda: ConnectionState(suite, key, fixed_iv)


def legacy_receive(state, buffer: RecordBuffer, wire: bytes) -> tuple[int, int]:
    """The historical inbound path: copying parse, per-record unprotect.

    Returns (records opened, payload bytes copied): the feed into the
    reassembly buffer, then per record the ``bytes()`` materialization
    (header + payload) plus the decode slice, plus the plaintext.
    """
    buffer.feed(wire)
    copied = len(wire)
    opened = 0
    for record in buffer.pop_records():
        copied += RECORD_HEADER_LEN + 2 * len(record.payload)
        plaintext = state.unprotect(record)
        copied += len(plaintext)
        opened += 1
    return opened, copied


def plane_receive(plane: RecordPlane, wire: bytes) -> tuple[int, int]:
    """The zero-copy inbound path: one snapshot, batched unprotect.

    Per flight the payload crosses memory twice before decryption (feed
    into the inbound buffer, then the single consumed-region snapshot the
    record views slice) instead of twice *per record* plus slices.
    """
    plane.feed(wire)
    copied = len(wire)
    records = plane.pop_records()
    copied += len(wire)  # the one consumed-region snapshot
    plaintexts = plane.unprotect_many(records)
    copied += sum(len(plaintext) for plaintext in plaintexts)
    return len(records), copied


def _receive_throughput(receive, flights: int) -> tuple[float, int, int]:
    records = 0
    copied = 0
    start = time.perf_counter()
    for index in range(flights):
        opened, flight_copied = receive(index)
        records += opened
        copied += flight_copied
    elapsed = time.perf_counter() - start
    return records / elapsed, records, copied


def bench_receive(payload_bytes: int, flights: int = RECEIVE_FLIGHTS) -> dict:
    """Measure both inbound paths over identical sealed flights."""
    payload = bytes(range(256)) * (payload_bytes // 256)
    wires, read_state = _sealed_flights(payload, flights)

    state = read_state()
    buffer = RecordBuffer()
    legacy_rate, legacy_records, legacy_copied = _receive_throughput(
        lambda index: legacy_receive(state, buffer, wires[index]), flights
    )

    with obs.scoped():
        plane = RecordPlane()
        plane.party = "bench"
        plane.read_state = read_state()
        plane_rate, plane_records, plane_copied = _receive_throughput(
            lambda index: plane_receive(plane, wires[index]), flights
        )
    assert plane_records == legacy_records
    return {
        "payload_bytes": payload_bytes,
        "flights": flights,
        "legacy": {
            "records_per_sec": round(legacy_rate),
            "bytes_copied": legacy_copied,
        },
        "record_plane": {
            "records_per_sec": round(plane_rate),
            "bytes_copied": plane_copied,
        },
        "bytes_copied_ratio": round(plane_copied / legacy_copied, 3),
    }


def run(
    payload_bytes: int = PAYLOAD_BYTES,
    flights: int = FLIGHTS,
    git: str | None = None,
) -> dict:
    """Measure both paths and return the ``BENCH_record_plane.json`` report.

    ``git`` is the stamp to record; by default it is taken now.
    """
    if git is None:
        git = git_describe()
    payload = bytes(range(256)) * (payload_bytes // 256)
    legacy_rate, legacy_records, legacy_copied = _throughput(
        lambda: legacy_drain(payload), payload_bytes, flights
    )
    # Scoped plane: the drain counters below reflect this run alone.
    with obs.scoped() as obs_plane:
        plane = RecordPlane()
        plane.party = "bench"
        plane_rate, plane_records, plane_copied = _throughput(
            lambda: plane_drain(plane, payload), payload_bytes, flights
        )
    drain_metrics = {
        "flights_drained": obs_plane.metrics.counter_value(
            "flights_drained", party="bench"),
        "bytes_drained": obs_plane.metrics.counter_value(
            "bytes_drained", party="bench"),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "record_plane",
        "git": git,
        "payload_bytes": payload_bytes,
        "flights": flights,
        "records_per_flight": legacy_records // flights,
        "legacy": {
            "records_per_sec": round(legacy_rate),
            "bytes_copied": legacy_copied,
        },
        "record_plane": {
            "records_per_sec": round(plane_rate),
            "bytes_copied": plane_copied,
            "metrics": drain_metrics,
        },
        "bytes_copied_ratio": round(plane_copied / legacy_copied, 3),
        "receive": bench_receive(payload_bytes),
    }
