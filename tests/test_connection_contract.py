"""Conformance suite for the shared sans-IO connection contract.

Every party in the tree — the plain TLS engines, all three mbTLS engines,
and every baseline — implements :class:`repro.io.Connection` or
:class:`repro.io.DuplexConnection`. These tests pin the contract documented
in ``repro/io/connection.py``:

* ``start()`` is once-only: a second call raises ``ProtocolError`` and
  produces no output;
* ``data_to_send()`` drains: an immediate second call returns ``b""``;
* receiving bytes after close yields no events;
* ``close()`` and ``peer_closed*()`` are idempotent;
* sending application data on a closed connection raises ``ProtocolError``;
* a hostile record or frame draws exactly one fatal alert per live side,
  attributed like ``abort``, and leaves the party closed and silent;
* a key share the exchange rejects draws one fatal ``illegal_parameter``
  from the party that received it, and nothing escapes the parties;
* the same DRBG seed yields byte-identical wire transcripts (golden hashes
  captured before the record-plane refactor).
"""

from __future__ import annotations

import hashlib

import pytest

from helpers import MbTLSScenario, identity
from repro.baselines.blindbox import (
    BlindBoxDetector,
    BlindBoxInspectorConnection,
    BlindBoxStreamConnection,
    RuleAuthority,
    TokenStream,
)
from repro.baselines.mctls import (
    ContextPermission,
    McTLSMiddleboxConnection,
    McTLSRecordConnection,
    McTLSSession,
)
from repro.baselines.mdtls import MdTLSDeployment
from repro.baselines.relay import SpliceRelay
from repro.baselines.shared_key import KeySharingConnection, KeySharingMiddlebox
from repro.baselines.split_tls import SplitTLSMiddlebox
from repro.bench import fuzzing
from repro.bench.scenarios import Pki
from repro.core.client import MbTLSClientEngine
from repro.core.config import MbTLSEndpointConfig, MiddleboxConfig, MiddleboxRole
from repro.core.middlebox import MbTLSMiddlebox
from repro.core.server import MbTLSServerEngine
from repro.crypto.drbg import HmacDrbg
from repro.crypto.dh import DHPrivateKey, modp_group
from repro.crypto.x25519 import X25519PrivateKey
from repro.errors import (
    AttestationError,
    CertificateError,
    CryptoError,
    DecodeError,
    HandshakeError,
    IntegrityError,
    PolicyError,
    ProtocolError,
)
from repro.io import (
    FRAME_ALERT,
    MAX_BUFFERED_BYTES,
    Connection,
    DuplexConnection,
    pop_frames,
    pump,
)
from repro.io import HopChain
from repro.io.endpoint import alert_for
from repro.tls.ciphersuites import TLS_DHE_RSA_WITH_AES_128_GCM_SHA256
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.keyschedule import agree_pre_master
from repro.tls.events import AlertReceived, ConnectionClosed
from repro.wire.alerts import Alert
from repro.wire.handshake import ClientKeyExchange, Handshake, HandshakeType
from repro.wire.records import ContentType, Record, RecordBuffer

# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def _tls_pair(pki, rng):
    client = TLSClientEngine(
        TLSConfig(rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server")
    )
    server = TLSServerEngine(
        TLSConfig(rng=rng.fork(b"srv"), credential=pki.credential("server"))
    )
    return client, server


def _mbtls_pair(pki, rng):
    client = MbTLSClientEngine(
        MbTLSEndpointConfig(
            tls=TLSConfig(
                rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server"
            ),
            middlebox_trust_store=pki.trust,
        )
    )
    server = MbTLSServerEngine(
        MbTLSEndpointConfig(
            tls=TLSConfig(rng=rng.fork(b"srv"), credential=pki.credential("server")),
            middlebox_trust_store=pki.trust,
        )
    )
    return client, server


def _mctls_pair(pki, rng):
    session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
    return (
        McTLSRecordConnection(session.endpoint_party(), default_context=1),
        McTLSRecordConnection(session.endpoint_party(), default_context=1),
    )


def _mdtls_deployment(pki, rng, middleboxes=()):
    return MdTLSDeployment(
        rng=rng.fork(b"mdtls"),
        trust_store=pki.trust,
        client_credential=pki.credential("client"),
        server_credential=pki.credential("server"),
        middleboxes=[(name, pki.credential(name)) for name in middleboxes],
    )


def _mdtls_pair(pki, rng):
    deployment = _mdtls_deployment(pki, rng)
    return deployment.build_client(), deployment.build_server()


def _blindbox_pair(pki, rng):
    key = rng.fork(b"tok").random_bytes(32)
    return (
        BlindBoxStreamConnection(TokenStream(key)),
        BlindBoxStreamConnection(TokenStream(key)),
    )


# Each case: (pair factory, needs_pump). ``needs_pump`` marks pairs with a
# handshake to run before application data may flow.
ENDPOINT_CASES = {
    "tls": (_tls_pair, True),
    "mbtls": (_mbtls_pair, True),
    "mctls": (_mctls_pair, False),
    "mdtls": (_mdtls_pair, True),
    "blindbox": (_blindbox_pair, False),
}


def _mbtls_middlebox(pki, rng):
    return MbTLSMiddlebox(
        MiddleboxConfig(
            name="mbox",
            tls=TLSConfig(rng=rng.fork(b"mb"), credential=pki.credential("mbox")),
            role=MiddleboxRole.AUTO,
            process=identity,
        ),
        destination="server",
    )


def _stimulate_mbtls(middlebox, pki, rng):
    client = MbTLSClientEngine(
        MbTLSEndpointConfig(
            tls=TLSConfig(
                rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server"
            ),
            middlebox_trust_store=pki.trust,
        )
    )
    client.start()
    middlebox.receive_down(client.data_to_send())


def _mdtls_middlebox(pki, rng):
    deployment = _mdtls_deployment(pki, rng, middleboxes=("mbox",))
    conn = deployment.build_middlebox(0)
    conn._deployment = deployment
    return conn


def _stimulate_mdtls(conn, pki, rng):
    client = conn._deployment.build_client()
    client.start()
    conn.receive_down(client.data_to_send())


def _split_tls(pki, rng):
    return SplitTLSMiddlebox(
        pki.ca, "server", rng.fork(b"split"), upstream_trust=pki.trust
    )


def _key_sharing(pki, rng):
    return KeySharingConnection(KeySharingMiddlebox())


def _mctls_inspector(pki, rng):
    session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
    conn = McTLSMiddleboxConnection(
        session.middlebox_party({1: ContextPermission.READ})
    )
    conn._endpoint = McTLSRecordConnection(session.endpoint_party(), 1)
    return conn


def _stimulate_mctls(conn, pki, rng):
    conn._endpoint.start()
    conn._endpoint.send_application_data(b"inspect me")
    conn.receive_down(conn._endpoint.data_to_send())


def _blindbox_inspector(pki, rng):
    key = rng.fork(b"tok").random_bytes(32)
    authority = RuleAuthority(key)
    detector = BlindBoxDetector([authority.encrypt_rule("rule", b"suspicious")])
    conn = BlindBoxInspectorConnection(detector)
    conn._endpoint = BlindBoxStreamConnection(TokenStream(key))
    return conn


def _stimulate_blindbox(conn, pki, rng):
    conn._endpoint.start()
    conn._endpoint.send_application_data(b"nothing suspicious here")
    conn.receive_down(conn._endpoint.data_to_send())


def _stimulate_raw(conn, pki, rng):
    # A well-formed APPLICATION_DATA record (relays parse record framing).
    conn.receive_down(b"\x17\x03\x03\x00\x03abc")


# Each case: (factory, stimulate). ``stimulate`` makes the duplex queue
# outbound bytes so the drain contract can be observed (None: start() alone
# already produces output).
DUPLEX_CASES = {
    "mbtls_middlebox": (_mbtls_middlebox, _stimulate_mbtls),
    "mdtls_middlebox": (_mdtls_middlebox, _stimulate_mdtls),
    "split_tls": (_split_tls, None),
    "splice_relay": (lambda pki, rng: SpliceRelay(), _stimulate_raw),
    "shared_key": (_key_sharing, _stimulate_raw),
    "mctls_inspector": (_mctls_inspector, _stimulate_mctls),
    "blindbox_inspector": (_blindbox_inspector, _stimulate_blindbox),
}


@pytest.fixture
def make_pair(pki, rng):
    def factory(name):
        build, needs_pump = ENDPOINT_CASES[name]
        a, b = build(pki, rng)
        return a, b, needs_pump

    return factory


@pytest.fixture
def make_duplex(pki, rng):
    def factory(name):
        build, stimulate = DUPLEX_CASES[name]
        conn = build(pki, rng)
        return conn, (
            (lambda: stimulate(conn, pki, rng)) if stimulate is not None else None
        )

    return factory


# ---------------------------------------------------------------------------
# Endpoint (Connection) contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ENDPOINT_CASES)
class TestConnectionContract:
    def test_satisfies_protocol(self, make_pair, name):
        a, b, _ = make_pair(name)
        assert isinstance(a, Connection)
        assert isinstance(b, Connection)

    def test_start_twice_raises_without_output(self, make_pair, name):
        a, _, _ = make_pair(name)
        a.start()
        a.data_to_send()  # drain whatever start legitimately queued
        with pytest.raises(ProtocolError):
            a.start()
        assert a.data_to_send() == b""

    def test_data_to_send_drains(self, make_pair, name):
        a, b, needs_pump = make_pair(name)
        a.start()
        b.start()
        if needs_pump:
            pump(a, b)
        a.send_application_data(b"drain me")
        first = a.data_to_send()
        assert first != b""
        assert a.data_to_send() == b""

    def test_close_is_idempotent(self, make_pair, name):
        a, b, needs_pump = make_pair(name)
        a.start()
        b.start()
        if needs_pump:
            pump(a, b)
        a.close()
        a.data_to_send()
        a.close()  # second close: no error, no new output
        assert a.data_to_send() == b""
        assert a.closed

    def test_send_after_close_raises(self, make_pair, name):
        a, b, needs_pump = make_pair(name)
        a.start()
        b.start()
        if needs_pump:
            pump(a, b)
        a.close()
        with pytest.raises(ProtocolError):
            a.send_application_data(b"too late")

    def test_receive_after_close_yields_nothing(self, make_pair, name):
        a, b, needs_pump = make_pair(name)
        a.start()
        b.start()
        if needs_pump:
            pump(a, b)
        b.send_application_data(b"in flight")
        wire = b.data_to_send()
        a.close()
        a.data_to_send()
        assert a.receive_bytes(wire) == []

    def test_peer_closed_is_idempotent(self, make_pair, name):
        a, _, _ = make_pair(name)
        a.start()
        first = a.peer_closed()
        assert isinstance(first, list)
        assert a.closed
        assert a.peer_closed() == []


# ---------------------------------------------------------------------------
# Middlebox (DuplexConnection) contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", DUPLEX_CASES)
class TestDuplexConnectionContract:
    def test_satisfies_protocol(self, make_duplex, name):
        conn, _ = make_duplex(name)
        assert isinstance(conn, DuplexConnection)

    def test_start_twice_raises(self, make_duplex, name):
        conn, _ = make_duplex(name)
        conn.start()
        with pytest.raises(ProtocolError):
            conn.start()

    def test_output_drains(self, make_duplex, name):
        conn, stimulate = make_duplex(name)
        conn.start()
        if stimulate is not None:
            stimulate()
        produced = conn.data_to_send_down() + conn.data_to_send_up()
        assert produced != b""
        assert conn.data_to_send_down() == b""
        assert conn.data_to_send_up() == b""

    def test_peer_closed_down_is_idempotent(self, make_duplex, name):
        conn, _ = make_duplex(name)
        conn.start()
        first = conn.peer_closed_down()
        assert isinstance(first, list)
        assert conn.peer_closed_down() == []

    def test_peer_closed_up_is_idempotent(self, make_duplex, name):
        conn, _ = make_duplex(name)
        conn.start()
        first = conn.peer_closed_up()
        assert isinstance(first, list)
        assert conn.peer_closed_up() == []

    def test_receive_after_close_yields_nothing(self, make_duplex, name):
        conn, _ = make_duplex(name)
        conn.start()
        conn.peer_closed_down()
        assert conn.receive_down(b"\x17\x03\x03\x00\x03abc") == []
        assert conn.receive_up(b"\x17\x03\x03\x00\x03abc") == []


# ---------------------------------------------------------------------------
# Abort contract: one hostile input, one attributed fatal alert per side
# ---------------------------------------------------------------------------

# An unknown record content type; read as a frame header, an absurd length.
_HOSTILE = b"\x63\x03\x03\x00\x01X"
# The mbTLS middlebox relays anything that is not TLS framing (legacy
# compatibility), so its hostile input is a flight past the inbound bound.
_HOSTILE_FOR = {"mbtls_middlebox": b"\x17\x03\x03" + bytes(MAX_BUFFERED_BYTES)}
_FRAMED = {"mctls_inspector", "blindbox_inspector"}


def _wire_alerts(name: str, data: bytes) -> list[Alert]:
    """The alerts in one outbound stream (all of them travel in plaintext)."""
    if name in _FRAMED:
        return [
            Alert.decode(payload)
            for kind, payload in pop_frames(bytearray(data))
            if kind == FRAME_ALERT
        ]
    buffer = RecordBuffer()
    buffer.feed(data)
    return [
        Alert.decode(bytes(record.payload))
        for record in buffer.pop_records()
        if record.content_type == ContentType.ALERT
    ]


def _assert_attributed(alerts: list[Alert], abort) -> None:
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.is_fatal and not alert.is_close
    assert alert.description.name.lower() == abort.alert
    assert alert.origin == abort.origin


def _abort_endpoint(make_pair, name):
    a, b, needs_pump = make_pair(name)
    a.start()
    b.start()
    if needs_pump:
        pump(a, b)
    events = a.receive_bytes(_HOSTILE)
    assert a.closed and a.abort is not None
    closed = events[-1]
    assert isinstance(closed, ConnectionClosed)
    assert (closed.alert, closed.origin) == (a.abort.alert, a.abort.origin)
    # The peer decodes the alert under whatever keys protect it.
    received = b.receive_bytes(a.data_to_send())
    _assert_attributed(
        [event.alert for event in received if isinstance(event, AlertReceived)],
        a.abort,
    )
    assert a.receive_bytes(_HOSTILE) == []
    assert a.data_to_send() == b""


def _abort_duplex(make_duplex, name):
    conn, stimulate = make_duplex(name)
    conn.start()
    if stimulate is not None:
        stimulate()
    conn.data_to_send_down()
    conn.data_to_send_up()
    hostile = _HOSTILE_FOR.get(name, _HOSTILE)
    events = conn.receive_down(hostile)
    if name == "splice_relay":
        # The splice parses nothing: it has no abort, only verbatim bytes.
        assert conn.data_to_send_up() == hostile
        assert (events, conn.closed, conn.abort) == ([], False, None)
        return
    assert conn.closed and conn.abort is not None
    closed = events[-1]
    assert isinstance(closed, ConnectionClosed)
    assert (closed.alert, closed.origin) == (conn.abort.alert, conn.abort.origin)
    _assert_attributed(_wire_alerts(name, conn.data_to_send_down()), conn.abort)
    _assert_attributed(_wire_alerts(name, conn.data_to_send_up()), conn.abort)
    assert conn.receive_down(hostile) == []
    assert conn.receive_up(hostile) == []
    assert conn.data_to_send_down() == b""
    assert conn.data_to_send_up() == b""


@pytest.mark.parametrize("name", [*ENDPOINT_CASES, *DUPLEX_CASES])
def test_hostile_input_aborts_with_one_attributed_alert(make_pair, make_duplex, name):
    if name in ENDPOINT_CASES:
        _abort_endpoint(make_pair, name)
    else:
        _abort_duplex(make_duplex, name)


# ---------------------------------------------------------------------------
# A rejected key share: one attributed illegal_parameter, nothing escapes
# ---------------------------------------------------------------------------

_DHE_ONLY = (TLS_DHE_RSA_WITH_AES_128_GCM_SHA256.code,)


def _dhe_tls_chain(pki, rng) -> HopChain:
    client = TLSClientEngine(
        TLSConfig(
            rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server",
            cipher_suites=_DHE_ONLY,
        )
    )
    server = TLSServerEngine(
        TLSConfig(
            rng=rng.fork(b"srv"), credential=pki.credential("server"),
            cipher_suites=_DHE_ONLY,
        )
    )
    return HopChain(client, [], server)


_SHARES = {
    "zero": lambda share: bytes(32),
    "short": lambda share: share[:31],
    "one": lambda share: (1).to_bytes(len(share), "big"),
}

# (implementation, share) -> the hop whose ClientKeyExchange is rewritten;
# the party on that hop's server side rejects the share.
_KEY_SHARE_CASES = {
    ("tls", "zero"): 0,
    ("tls", "short"): 0,
    ("tls_dhe", "one"): 0,
    ("mbtls", "zero"): 0,
    ("mbtls", "short"): 0,
    ("mbtls_middlebox", "zero"): 1,
    ("mbtls_middlebox", "short"): 1,
    ("split_tls", "zero"): 0,
    ("split_tls", "short"): 0,
    ("mdtls", "zero"): 0,
    ("mdtls", "short"): 0,
}


def _rewrite_key_share(data: bytes, share_kind: str) -> bytes:
    """``data`` with the share of every plaintext ClientKeyExchange replaced."""
    buffer = RecordBuffer()
    buffer.feed(data)
    out = bytearray()
    for record in buffer.pop_records():
        payload = bytes(record.payload)
        if (
            record.content_type == ContentType.HANDSHAKE
            and payload[0] == HandshakeType.CLIENT_KEY_EXCHANGE
        ):
            share = ClientKeyExchange.decode_body(payload[4:]).exchange_data
            rewritten = ClientKeyExchange(exchange_data=_SHARES[share_kind](share))
            payload = Handshake(
                msg_type=HandshakeType.CLIENT_KEY_EXCHANGE,
                body=rewritten.encode_body(),
            ).encode()
        out += Record(record.content_type, payload).encode()
    return bytes(out)


@pytest.mark.parametrize("name,share", list(_KEY_SHARE_CASES))
def test_rejected_key_share_draws_one_attributed_illegal_parameter(
    pki, rng, name, share
):
    hop = _KEY_SHARE_CASES[name, share]
    if name == "tls_dhe":
        chain = _dhe_tls_chain(pki, rng)
    else:
        chain = fuzzing.build_parties(name, b"key-share").chain()
    rejecter = chain.parties[hop + 1]
    if isinstance(rejecter, TLSServerEngine):
        rejecter.origin_label = "server"
    label = "split-tls-middlebox" if name == "split_tls" else rejecter.origin_label
    toward_client: list[bytes] = []

    def tap(at_hop, direction, data):
        if at_hop != hop:
            return [data]
        if direction == "c2s":
            return [_rewrite_key_share(data, share)]
        toward_client.append(data)
        return [data]

    chain.tap = tap
    chain.start()
    chain.pump()
    assert chain.errors == []
    assert (rejecter.abort.alert, rejecter.abort.origin) == ("illegal_parameter", label)
    alerts = [
        alert
        for alert in _wire_alerts(name, b"".join(toward_client))
        if alert.is_fatal
    ]
    _assert_attributed(alerts, rejecter.abort)
    client = chain.parties[0]
    assert client.closed
    assert (client.abort.alert, client.abort.origin) == ("illegal_parameter", label)


@pytest.mark.parametrize("kind", ["x25519-zero", "x25519-short", "dhe-one"])
def test_agree_pre_master_rejects_a_bad_share(rng, kind):
    """The one exchange site both TLS roles (and mdTLS) go through."""
    if kind == "dhe-one":
        private, share = DHPrivateKey(modp_group(1024), rng), 1
    else:
        private = X25519PrivateKey(rng.random_bytes(32))
        share = bytes(32) if kind == "x25519-zero" else bytes(31)
    with pytest.raises(HandshakeError) as raised:
        agree_pre_master(private, share)
    assert raised.value.alert == "illegal_parameter"


@pytest.mark.parametrize(
    "exc, alert",
    [
        (IntegrityError("tag mismatch"), "bad_record_mac"),
        (PolicyError("no read access"), "access_denied"),
        (ProtocolError("bad state", alert="unexpected_message"), "unexpected_message"),
        (ProtocolError("unnamed"), "internal_error"),
        (DecodeError("truncated"), "decode_error"),
        (CertificateError("untrusted"), "bad_certificate"),
        (CertificateError("stale", alert="certificate_expired"), "certificate_expired"),
        (AttestationError("bad quote"), "bad_certificate"),
        (HandshakeError("no common suite"), "handshake_failure"),
        (CryptoError("bad key size"), "decode_error"),
        (KeyError(7), "decode_error"),
    ],
)
def test_alert_for_maps_each_failure(exc, alert):
    assert alert_for(exc).name.lower() == alert


# ---------------------------------------------------------------------------
# Transcript determinism — golden hashes captured BEFORE the record-plane
# refactor. If any of these change, the sans-IO core changed observable
# behavior, which this refactor promised not to do.
# ---------------------------------------------------------------------------


class _WireTap:
    """Wraps a Connection so pump() traffic can be hashed and event-ordered."""

    def __init__(self, inner, tag: bytes, wire, event_log: list) -> None:
        self._inner = inner
        self._tag = tag
        self._wire = wire
        self._log = event_log

    def data_to_send(self) -> bytes:
        data = self._inner.data_to_send()
        if data:
            self._wire.update(self._tag + data)
        return data

    def receive_bytes(self, data: bytes) -> list:
        events = self._inner.receive_bytes(data)
        side = "client" if self._tag == b"C" else "server"
        self._log += [(side, type(event).__name__) for event in events]
        return events


def test_tls_transcript_golden():
    rng = HmacDrbg(b"golden-determinism")
    pki = Pki(rng=rng.fork(b"pki"))
    client = TLSClientEngine(
        TLSConfig(rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server")
    )
    server = TLSServerEngine(
        TLSConfig(rng=rng.fork(b"srv"), credential=pki.credential("server"))
    )
    client.start()
    server.start()

    wire = hashlib.sha256()
    events: list = []
    pump(
        _WireTap(client, b"C", wire, events),
        _WireTap(server, b"S", wire, events),
    )
    client.send_application_data(b"hello determinism")
    data = client.data_to_send()
    wire.update(b"C" + data)
    events += [("server", type(e).__name__) for e in server.receive_bytes(data)]

    assert events == [
        ("server", "HandshakeComplete"),
        ("client", "HandshakeComplete"),
        ("server", "ApplicationData"),
    ]
    assert (
        hashlib.sha256(b"".join(client._transcript)).hexdigest()
        == "d82ea685d71b3cf4a47842b93c37eae65202ea2fb5868d1f71b0c2c7ae99817e"
    )
    assert (
        hashlib.sha256(client.master_secret).hexdigest()
        == "267684709696ef657691f466362dcf03ebb6059eaf4aca974d901a3e988d3a47"
    )
    assert (
        wire.hexdigest()
        == "512e83a045db37e41c54cb971b6dfe3428e5d7dc47c8b3b272683f6507ce0e7b"
    )


def test_mdtls_transcript_golden():
    """One-middlebox mdTLS run: same seed, byte-identical wire transcript."""
    rng = HmacDrbg(b"golden-mdtls")
    pki = Pki(rng=rng.fork(b"pki"))
    deployment = MdTLSDeployment(
        rng=rng.fork(b"deploy"),
        trust_store=pki.trust,
        client_credential=pki.credential("client"),
        server_credential=pki.credential("server"),
        middleboxes=[("mbox", pki.credential("mbox"))],
    )
    client = deployment.build_client()
    middlebox = deployment.build_middlebox(0)
    server = deployment.build_server()
    client.start()
    middlebox.start()
    server.start()

    wire = hashlib.sha256()
    events: list = []
    for _ in range(12):
        progressed = False
        data = client.data_to_send()
        if data:
            wire.update(b"C" + data)
            middlebox.receive_down(data)
            progressed = True
        data = middlebox.data_to_send_up()
        if data:
            wire.update(b"MU" + data)
            events += [
                ("server", type(e).__name__) for e in server.receive_bytes(data)
            ]
            progressed = True
        data = server.data_to_send()
        if data:
            wire.update(b"S" + data)
            middlebox.receive_up(data)
            progressed = True
        data = middlebox.data_to_send_down()
        if data:
            wire.update(b"MD" + data)
            events += [
                ("client", type(e).__name__) for e in client.receive_bytes(data)
            ]
            progressed = True
        if not progressed:
            break

    assert events == [
        ("server", "HandshakeComplete"),
        ("client", "HandshakeComplete"),
    ]
    assert client.established and middlebox.established and server.established

    client.send_application_data(b"GOLDEN-MDTLS")
    data = client.data_to_send()
    wire.update(b"C" + data)
    middlebox.receive_down(data)
    data = middlebox.data_to_send_up()
    wire.update(b"MU" + data)
    received = server.receive_bytes(data)
    assert [type(e).__name__ for e in received] == ["ApplicationData"]
    assert received[0].data == b"GOLDEN-MDTLS"

    assert (
        hashlib.sha256(bytes(client._transcript)).hexdigest()
        == "2f4692cb2a98ca7a53d89b6702364251b4eb17b48223733786a0597c67261603"
    )
    assert (
        wire.hexdigest()
        == "270422efa68c48c3253846fc7095321e2da9b1564fbca0b6ce51c33bd63d51eb"
    )


def test_mbtls_transcript_golden():
    rng = HmacDrbg(b"golden-mbtls")
    pki = Pki(rng=rng.fork(b"pki"))
    scenario = MbTLSScenario(
        pki=pki,
        rng=rng,
        mbox_specs=[("mbox", MiddleboxRole.AUTO, identity, {})],
    ).run_client(b"GOLDEN-PING")

    assert [type(e).__name__ for e in scenario.events] == [
        "MiddleboxJoined",
        "SessionEstablished",
        "ApplicationData",
    ]
    assert [type(e).__name__ for e in scenario.server_events] == [
        "SessionEstablished",
        "ApplicationData",
    ]
    assert scenario.client_received == [b"REPLY:GOLDEN-PING"]
    assert (
        hashlib.sha256(
            b"".join(scenario.client_engine.primary._transcript)
        ).hexdigest()
        == "e51bf3a6aa57325822a341543bcbf6bbb77aecfef63a32e506e4982a5e84c565"
    )
    combined = hashlib.sha256()
    for event in scenario.events:
        combined.update(type(event).__name__.encode())
    for event in scenario.server_events:
        combined.update(type(event).__name__.encode())
    for chunk in scenario.client_received:
        combined.update(chunk)
    assert (
        combined.hexdigest()
        == "2b4c05c8b432dabd954e14e985ae154e97656867c5fb5473a741cb9187896c15"
    )
