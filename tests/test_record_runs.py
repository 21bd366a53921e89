"""The shared record receive loop: a batch-opened run behaves like serial feeding.

Every record-layer party opens a run of application data with one batched
AEAD call and, if the batch fails, replays the run record by record
(:meth:`repro.io.RecordPlane.open_runs`). That replay must make a flight
indistinguishable from the same records fed one at a time: the same
events, the same ``records_dropped``, the same read sequence and, at a
middlebox, the same bytes forwarded. A whole run must also still reach the
AEAD pool.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.baselines.mdtls import MdTLSDeployment
from repro.core.client import MbTLSClientEngine
from repro.core.config import MbTLSEndpointConfig, MiddleboxConfig, MiddleboxRole
from repro.core.middlebox import MbTLSMiddlebox
from repro.core.server import MbTLSServerEngine
from repro.crypto import pool as aead_pool
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pool import AeadPool
from repro.io import HopChain
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import ApplicationData
from repro.wire.records import MAX_FRAGMENT, ContentType, Record, RecordBuffer


def _tls(pki, rng, policy, receiver):
    client = TLSClientEngine(
        TLSConfig(rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server")
    )
    server = TLSServerEngine(
        TLSConfig(rng=rng.fork(b"srv"), credential=pki.credential("server"))
    )
    return HopChain(client, [], server)


def _mbtls(pki, rng, policy, receiver):
    """client - mbox - server, the mbox joining on the receiver's side.

    An endpoint holds hop keys only when a middlebox joined its side of the
    session; the other endpoint's hop runs under the primary session keys.
    """

    def endpoint(cls, label, **tls):
        return cls(
            MbTLSEndpointConfig(
                tls=TLSConfig(rng=rng.fork(label), **tls),
                middlebox_trust_store=pki.trust,
                tamper_policy=policy,
            )
        )

    middlebox = MbTLSMiddlebox(
        MiddleboxConfig(
            name="mbox",
            tls=TLSConfig(rng=rng.fork(b"mb"), credential=pki.credential("mbox")),
            role=(
                MiddleboxRole.SERVER_SIDE if receiver == "right"
                else MiddleboxRole.CLIENT_SIDE
            ),
            process=lambda direction, data: data,
            tamper_policy=policy,
        ),
        destination="server",
    )
    return HopChain(
        endpoint(MbTLSClientEngine, b"cli", trust_store=pki.trust, server_name="server"),
        [middlebox],
        endpoint(MbTLSServerEngine, b"srv", credential=pki.credential("server")),
    )


def _mdtls(pki, rng, policy, receiver):
    deployment = MdTLSDeployment(
        rng=rng.fork(b"mdtls"),
        trust_store=pki.trust,
        client_credential=pki.credential("client"),
        server_credential=pki.credential("server"),
    )
    return HopChain(deployment.build_client(), [], deployment.build_server())


_BUILDERS = {"tls": _tls, "mbtls": _mbtls, "mdtls": _mdtls}

# (implementation, receiving party, tamper policy)
PARTIES = [
    ("tls", "left", "abort"),
    ("tls", "right", "abort"),
    ("mbtls", "left", "drop"),
    ("mbtls", "left", "abort"),
    ("mbtls", "right", "drop"),
    ("mbtls", "right", "abort"),
    ("mdtls", "left", "abort"),
    ("mdtls", "right", "abort"),
    ("mbtls", "middle0", "drop"),
    ("mbtls", "middle0", "abort"),
]


def _established(pki, impl, policy, receiver):
    """A fresh, established chain; the same every call (fixed seed)."""
    rng = HmacDrbg(b"record-runs", personalization=b"runs")
    chain = _BUILDERS[impl](pki, rng, policy, receiver)
    chain.start()
    assert chain.pump() and not chain.errors
    return chain


def _read_plane(chain, receiver: str):
    party = chain.party(receiver)
    plane = party._planes[0] if receiver.startswith("middle") else party._plane
    assert plane.read_state is not None, "the receiver holds no record keys"
    return plane


def _flight(chain, receiver: str, chunks: list[bytes]) -> bytes:
    """Send ``chunks`` toward ``receiver``; return the bytes that reach it."""
    index = chain.names.index(receiver)
    if receiver == "left":
        sender, hop, direction = "right", 0, "s2c"
    else:
        sender, hop, direction = "left", index - 1, "c2s"
    captured: list[bytes] = []

    def tap(at_hop, at_direction, data):
        if (at_hop, at_direction) == (hop, direction):
            captured.append(data)
            return []
        return [data]

    chain.tap = tap
    for chunk in chunks:
        chain.party(sender).send_application_data(chunk)
    assert chain.pump() and not chain.errors
    chain.tap = None
    return b"".join(captured)


def _records(data: bytes) -> list[Record]:
    buffer = RecordBuffer()
    buffer.feed(data)
    return buffer.pop_records()


def _receive(chain, receiver: str):
    party = chain.party(receiver)
    return party.receive_down if receiver.startswith("middle") else party.receive_bytes


def _observed(chain, receiver: str, events: list) -> tuple:
    party = chain.party(receiver)
    forwarded = b""
    if receiver.startswith("middle"):
        forwarded = party.data_to_send_up() + party.data_to_send_down()
    return (
        events,
        getattr(party, "records_dropped", None),
        _read_plane(chain, receiver).read_state.sequence,
        party.closed,
        forwarded,
    )


@pytest.mark.parametrize("tampered", [0, 3, 5])
@pytest.mark.parametrize("impl,receiver,policy", PARTIES)
def test_batched_run_matches_serial_feeding(pki, impl, receiver, policy, tampered):
    payloads = [b"record-%d " % i * 40 for i in range(6)]
    runs = []
    for serial in (False, True):
        chain = _established(pki, impl, policy, receiver)
        _read_plane(chain, receiver)
        records = _records(_flight(chain, receiver, payloads))
        assert [r.content_type for r in records] == [ContentType.APPLICATION_DATA] * 6
        payload = bytearray(records[tampered].payload)
        payload[-1] ^= 0x01
        records[tampered] = Record(ContentType.APPLICATION_DATA, bytes(payload))
        receive = _receive(chain, receiver)
        if serial:
            events = [event for record in records for event in receive(record.encode())]
        else:
            events = receive(b"".join(record.encode() for record in records))
        assert not chain.errors
        runs.append(_observed(chain, receiver, events))
    assert runs[0] == runs[1]
    if not receiver.startswith("middle"):
        # A failed open consumes no sequence number, so under either policy
        # nothing after the tampered record opens.
        delivered = [e.data for e in runs[0][0] if isinstance(e, ApplicationData)]
        assert delivered == payloads[:tampered]


@pytest.fixture(scope="module")
def pool():
    pool = AeadPool(workers=2)
    yield pool
    pool.close()


@pytest.mark.parametrize(
    "impl,receiver",
    [("mbtls", "left"), ("mbtls", "right"), ("mdtls", "right")],
    ids=["mbtls-client", "mbtls-server", "mdtls"],
)
def test_whole_run_reaches_the_pool(pki, pool, impl, receiver):
    chain = _established(pki, impl, "drop", receiver)
    _read_plane(chain, receiver)
    body = bytes(range(256)) * (16 * MAX_FRAGMENT // 256)
    with aead_pool.substituted(None):
        flight = _flight(chain, receiver, [body])
    assert len(_records(flight)) == 16
    with obs.scoped() as plane, aead_pool.substituted(pool):
        events = _receive(chain, receiver)(flight)
    assert plane.metrics.counter_value("crypto.pool.records", op="open") == 16
    assert b"".join(e.data for e in events if isinstance(e, ApplicationData)) == body
