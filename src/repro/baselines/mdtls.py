"""mdTLS (arXiv 2306.03573) — delegation certificates + proxy signatures.

mdTLS keeps mbTLS's per-hop record protection but replaces the per-hop
*secondary handshakes* with delegation: before the session, each endpoint
issues a signed warrant (:class:`~repro.wire.mdtls.DelegationCertificate`)
for every middlebox it wants on path, binding the middlebox's identity,
public key, and permissions to the endpoint's own certificate chain.  The
primary handshake then runs end to end **once**:

* the ClientHello / ServerHello carry the endpoints' warrant batches in
  the ``delegation_certificate`` extension;
* middleboxes forward every handshake record *verbatim* (so the endpoint
  Finished computation stays valid end to end) while shadowing the
  transcript, and each one **proxy-signs** the transcript hash after the
  Finished in each direction instead of handshaking for itself;
* the client delivers each middlebox's two hop secrets RSA-sealed under
  the warranted key (:class:`~repro.wire.mdtls.HopKeyDelivery`);
* both endpoints verify the aggregate proxy-signature chain against the
  warranted keys before declaring the session established.

The data plane is per-hop AEAD exactly like mbTLS: hop *i*'s keys are
derived from ``hop_secret(i)`` and a middlebox re-encrypts between its
client-side and server-side hops.

Simplifications, recorded in DESIGN.md §15: no ChangeCipherSpec (the
Finished flight travels in the clear, like our mcTLS reproduction), and
warrants are issued out of band by the deployment rather than via an
online enrollment protocol.
"""

from __future__ import annotations

import hashlib

from repro.crypto.kdf import prf
from repro.crypto.x25519 import X25519PrivateKey
from repro.errors import CryptoError, ProtocolError
from repro.io.endpoint import RecordDuplex, RecordEndpoint
from repro.io.record_plane import RecordPlane
from repro.pki.authority import Credential
from repro.pki.store import TrustStore
from repro.tls.ciphersuites import DEFAULT_SUITES, CipherSuite, suite_by_code
from repro.tls.events import ApplicationData, HandshakeComplete
from repro.tls.keyschedule import (
    agree_pre_master,
    derive_master_secret,
    finished_verify_data,
)
from repro.tls.record_layer import ConnectionState
from repro.wire.alerts import Alert
from repro.wire.extensions import ExtensionType
from repro.wire.handshake import (
    Certificate,
    ClientHello,
    ClientKeyExchange,
    Finished,
    Handshake,
    HandshakeBuffer,
    HandshakeType,
    KexAlgorithm,
    ServerHello,
    ServerHelloDone,
    ServerKeyExchange,
)
from repro.wire.mdtls import (
    DelegationCertificate,
    DelegationCertificateExtension,
    HopKeyDelivery,
    ProxySignature,
)
from repro.wire.records import ContentType, Record

__all__ = [
    "MdTLSDeployment",
    "MdTLSClientConnection",
    "MdTLSMiddleboxConnection",
    "MdTLSServerConnection",
    "derive_hop_secret",
    "hop_states",
]

_HOP_SECRET_LABEL = b"mdtls hop secret"
_HOP_EXPANSION_LABEL = b"mdtls key expansion"
_WARRANT_LIFETIME = 3600.0


def derive_hop_secret(
    master_secret: bytes, client_random: bytes, server_random: bytes, hop: int
) -> bytes:
    """The 32-byte secret protecting hop ``hop`` (0 = client-side hop)."""
    return prf(
        master_secret,
        _HOP_SECRET_LABEL,
        client_random + server_random + bytes([hop]),
        32,
    )


def hop_states(
    hop_secret: bytes,
    suite: CipherSuite,
    client_random: bytes,
    server_random: bytes,
) -> tuple[ConnectionState, ConnectionState]:
    """(client_write, server_write) record states for one hop."""
    total = 2 * suite.key_length + 2 * suite.fixed_iv_length
    block = prf(
        hop_secret, _HOP_EXPANSION_LABEL, server_random + client_random, total
    )
    offset = 0
    client_key = block[offset : offset + suite.key_length]
    offset += suite.key_length
    server_key = block[offset : offset + suite.key_length]
    offset += suite.key_length
    client_iv = block[offset : offset + suite.fixed_iv_length]
    offset += suite.fixed_iv_length
    server_iv = block[offset : offset + suite.fixed_iv_length]
    return (
        ConnectionState(suite, client_key, client_iv, sequence=0),
        ConnectionState(suite, server_key, server_iv, sequence=0),
    )


def _plaintext_alert(alert: Alert) -> Record:
    """Alerts always travel unprotected on the mdTLS alert plane."""
    return Record(content_type=ContentType.ALERT, payload=alert.encode())


class MdTLSDeployment:
    """Pre-session warrant issuance plus connection builders.

    The deployment models the out-of-band step of the mdTLS design: both
    endpoints know the on-path middleboxes ahead of time and sign one
    warrant each per middlebox.  ``build_client`` / ``build_middlebox`` /
    ``build_server`` then hand out sans-IO connections wired with exactly
    the material each party would hold.
    """

    def __init__(
        self,
        *,
        rng,
        trust_store: TrustStore,
        client_credential: Credential,
        server_credential: Credential,
        middleboxes: list[tuple[str, Credential]] | tuple = (),
        server_name: str | None = None,
        now: float = 0.0,
    ) -> None:
        self.rng = rng
        self.trust_store = trust_store
        self.client_credential = client_credential
        self.server_credential = server_credential
        self.middleboxes = list(middleboxes)
        self.server_name = (
            server_name
            if server_name is not None
            else server_credential.certificate.subject
        )
        self.now = now
        self.client_warrants = tuple(
            self._issue(client_credential, name, credential)
            for name, credential in self.middleboxes
        )
        self.server_warrants = tuple(
            self._issue(server_credential, name, credential)
            for name, credential in self.middleboxes
        )

    def _issue(
        self, delegator: Credential, name: str, credential: Credential
    ) -> DelegationCertificate:
        return DelegationCertificate.issue(
            delegator=delegator.certificate.subject,
            delegator_key=delegator.private_key,
            delegator_chain=delegator.encoded_chain(),
            middlebox=name,
            middlebox_key=credential.private_key.public_key,
            permissions="read-write",
            not_before=self.now,
            not_after=self.now + _WARRANT_LIFETIME,
        )

    def build_client(self, rng=None) -> "MdTLSClientConnection":
        return MdTLSClientConnection(
            rng=rng if rng is not None else self.rng.fork(b"mdtls-client"),
            trust_store=self.trust_store,
            server_name=self.server_name,
            warrants=self.client_warrants,
            now=self.now,
        )

    def build_middlebox(self, index: int, rng=None) -> "MdTLSMiddleboxConnection":
        name, credential = self.middleboxes[index]
        return MdTLSMiddleboxConnection(
            name=name,
            credential=credential,
            trust_store=self.trust_store,
            now=self.now,
        )

    def build_server(self, rng=None) -> "MdTLSServerConnection":
        return MdTLSServerConnection(
            rng=rng if rng is not None else self.rng.fork(b"mdtls-server"),
            credential=self.server_credential,
            trust_store=self.trust_store,
            warrants=self.server_warrants,
            expected_middleboxes=[
                (name, credential.private_key.public_key)
                for name, credential in self.middleboxes
            ],
            now=self.now,
        )


class _MdTLSEndpoint(RecordEndpoint):
    """State shared by both mdTLS endpoints: plane, transcript, aborts."""

    origin_label = "mdtls-endpoint"

    def __init__(self) -> None:
        super().__init__()
        self._handshake = HandshakeBuffer()
        self._transcript = bytearray()
        self.established = False

    def _send_alert(self, alert: Alert) -> None:
        self._plane.queue_encoded(_plaintext_alert(alert))

    def _append_transcript(self, message: Handshake) -> None:
        if message.msg_type != HandshakeType.MDTLS_PROXY_SIGNATURE:
            self._transcript += message.encode()

    def _transcript_hash(self) -> bytes:
        return hashlib.sha256(bytes(self._transcript)).digest()

    def _expect_state(self, state: str, kind: HandshakeType) -> None:
        if self._state != state:
            raise ProtocolError(
                f"unexpected {kind.name} in state {self._state}",
                alert="unexpected_message",
            )

    def _send_handshake(self, message) -> Handshake:
        framed = Handshake(msg_type=message.msg_type, body=message.encode_body())
        self._append_transcript(framed)
        self._plane.queue_record(ContentType.HANDSHAKE, framed.encode())
        return framed

    def _on_record(self, record: Record, plaintext: bytes | None) -> None:
        if record.content_type == ContentType.ALERT:
            self._handle_alert(record.payload, self._events)
            return
        if record.content_type == ContentType.HANDSHAKE:
            if self.established:
                raise ProtocolError(
                    "handshake record after establishment",
                    alert="unexpected_message",
                )
            self._handshake.feed(bytes(record.payload))
            for message in self._handshake.pop_messages():
                self._handle_handshake(message)
                if self.closed:
                    return
            return
        if record.content_type == ContentType.APPLICATION_DATA:
            if not self.established:
                raise ProtocolError(
                    "application data before handshake completion",
                    alert="unexpected_message",
                )
            if plaintext is None:
                plaintext = self._plane.unprotect(record)
            self._events.append(ApplicationData(data=plaintext))
            return
        raise ProtocolError(
            f"unexpected content type {int(record.content_type)}",
            alert="unexpected_message",
        )

    def send_application_data(self, data: bytes) -> None:
        if self.closed:
            raise ProtocolError("cannot send application data on a closed connection")
        if not self.established:
            raise ProtocolError("handshake is not complete")
        self._plane.queue_application_data(data)

    def _install_states(
        self, read_state: ConnectionState, write_state: ConnectionState
    ) -> None:
        self._plane.replace_states(read_state, write_state)

    def _handle_handshake(self, message: Handshake) -> None:
        raise NotImplementedError


class MdTLSClientConnection(_MdTLSEndpoint):
    """Sans-IO mdTLS client endpoint.

    Flight 1: ClientHello carrying the client's warrant batch.  Flight 3
    (after the server's hello flight): ClientKeyExchange, one
    HopKeyDelivery per warranted middlebox, and the client Finished.  The
    session is established once the server Finished *and* every
    middlebox's server-to-client proxy signature verify.
    """

    origin_label = "mdtls-client"

    def __init__(
        self,
        *,
        rng,
        trust_store: TrustStore,
        server_name: str,
        warrants: tuple[DelegationCertificate, ...] = (),
        now: float = 0.0,
    ) -> None:
        super().__init__()
        self._rng = rng
        self._trust = trust_store
        self._server_name = server_name
        self._warrants = tuple(warrants)
        self._now = now
        self._state = "start"
        self._client_random = b""
        self._server_random = b""
        self._suite: CipherSuite | None = None
        self._kex_private: X25519PrivateKey | None = None
        self._master_secret = b""
        self._server_certificate = None
        self._c2s_hash = b""
        self._s2c_hash = b""
        self._proxy_signatures: list[ProxySignature] = []
        self.peer_certificate = None

    def _on_start(self) -> None:
        self._client_random = self._rng.random_bytes(32)
        hello = ClientHello(
            random=self._client_random,
            cipher_suites=DEFAULT_SUITES,
            extensions=(
                DelegationCertificateExtension(self._warrants).to_extension(),
            ),
        )
        self._send_handshake(hello)
        self._state = "wait_server_hello"

    def _handle_handshake(self, message: Handshake) -> None:
        kind = message.msg_type
        if kind == HandshakeType.SERVER_HELLO:
            self._expect_state("wait_server_hello", kind)
            self._append_transcript(message)
            self._process_server_hello(ServerHello.decode_body(message.body))
            self._state = "wait_certificate"
            return
        if kind == HandshakeType.CERTIFICATE:
            self._expect_state("wait_certificate", kind)
            self._append_transcript(message)
            self._process_certificate(Certificate.decode_body(message.body))
            self._state = "wait_server_kex"
            return
        if kind == HandshakeType.SERVER_KEY_EXCHANGE:
            self._expect_state("wait_server_kex", kind)
            self._append_transcript(message)
            self._process_server_kex(ServerKeyExchange.decode_body(message.body))
            self._state = "wait_hello_done"
            return
        if kind == HandshakeType.SERVER_HELLO_DONE:
            self._expect_state("wait_hello_done", kind)
            self._append_transcript(message)
            ServerHelloDone.decode_body(message.body)
            self._send_client_flight()
            self._state = "wait_finished"
            return
        if kind == HandshakeType.FINISHED:
            self._expect_state("wait_finished", kind)
            finished = Finished.decode_body(message.body)
            expected = finished_verify_data(
                self._master_secret, self._transcript_hash(), is_client=False
            )
            if finished.verify_data != expected:
                raise ProtocolError(
                    "server Finished verification failed", alert="decrypt_error"
                )
            self._append_transcript(message)
            self._s2c_hash = self._transcript_hash()
            self._state = "wait_proxy_signatures"
            self._maybe_complete()
            return
        if kind == HandshakeType.MDTLS_PROXY_SIGNATURE:
            self._expect_state("wait_proxy_signatures", kind)
            self._proxy_signatures.append(ProxySignature.decode_body(message.body))
            self._maybe_complete()
            return
        raise ProtocolError(
            f"unexpected handshake message {kind.name} in state {self._state}",
            alert="unexpected_message",
        )

    def _process_server_hello(self, hello: ServerHello) -> None:
        if hello.cipher_suite not in DEFAULT_SUITES:
            raise ProtocolError(
                "server selected a suite we did not offer",
                alert="illegal_parameter",
            )
        self._server_random = hello.random
        self._suite = suite_by_code(hello.cipher_suite)
        extension = hello.find_extension(int(ExtensionType.DELEGATION_CERTIFICATE))
        if extension is None:
            # The in-band mdTLS signal was stripped: the server either does
            # not speak mdTLS or a downgrade box removed the extension.
            raise ProtocolError(
                "server hello carries no delegation certificates",
                alert="handshake_failure",
            )
        batch = DelegationCertificateExtension.from_extension(extension)
        if len(batch.warrants) != len(self._warrants):
            raise ProtocolError(
                "server warrant count does not match the client's",
                alert="handshake_failure",
            )
        for ours, theirs in zip(self._warrants, batch.warrants):
            theirs.verify(
                self._trust,
                now=self._now,
                middlebox=ours.middlebox,
                middlebox_key=ours.middlebox_key,
            )

    def _process_certificate(self, certificate: Certificate) -> None:
        from repro.pki.certificate import Certificate as PkiCertificate

        chain = tuple(PkiCertificate.decode(cert) for cert in certificate.chain)
        self._server_certificate = self._trust.validate_chain(
            chain, self._server_name, self._now
        )
        self.peer_certificate = self._server_certificate

    def _process_server_kex(self, kex: ServerKeyExchange) -> None:
        signed = self._client_random + self._server_random + kex.params
        if not self._server_certificate.public_key.verify(signed, kex.signature):
            raise ProtocolError(
                "bad signature on ServerKeyExchange", alert="decrypt_error"
            )
        server_public = kex.parse_ecdhe_public()
        self._kex_private = X25519PrivateKey(self._rng.random_bytes(32))
        shared = agree_pre_master(self._kex_private, server_public)
        self._master_secret = derive_master_secret(
            shared, self._client_random, self._server_random
        )

    def _send_client_flight(self) -> None:
        self._send_handshake(
            ClientKeyExchange(exchange_data=self._kex_private.public_bytes)
        )
        for hop, warrant in enumerate(self._warrants):
            secrets = derive_hop_secret(
                self._master_secret, self._client_random, self._server_random, hop
            ) + derive_hop_secret(
                self._master_secret,
                self._client_random,
                self._server_random,
                hop + 1,
            )
            sealed = warrant.middlebox_key.encrypt(secrets, self._rng)
            self._send_handshake(
                HopKeyDelivery(middlebox=warrant.middlebox, encrypted_secrets=sealed)
            )
        verify_data = finished_verify_data(
            self._master_secret, self._transcript_hash(), is_client=True
        )
        self._send_handshake(Finished(verify_data=verify_data))
        self._c2s_hash = self._transcript_hash()

    def _maybe_complete(self) -> None:
        if len(self._proxy_signatures) < len(self._warrants):
            return
        if len(self._proxy_signatures) > len(self._warrants):
            raise ProtocolError(
                "more proxy signatures than warranted middleboxes",
                alert="unexpected_message",
            )
        seen = {signature.middlebox for signature in self._proxy_signatures}
        for warrant in self._warrants:
            if warrant.middlebox not in seen:
                raise ProtocolError(
                    f"missing proxy signature from {warrant.middlebox!r}",
                    alert="handshake_failure",
                )
        by_name = {warrant.middlebox: warrant for warrant in self._warrants}
        payload_hash = self._s2c_hash
        for signature in self._proxy_signatures:
            if signature.direction != 1:
                raise ProtocolError(
                    "client received a client-to-server proxy signature",
                    alert="unexpected_message",
                )
            warrant = by_name[signature.middlebox]
            payload = ProxySignature.signed_payload(1, payload_hash)
            if not warrant.middlebox_key.verify(payload, signature.signature):
                raise ProtocolError(
                    f"bad proxy signature from {signature.middlebox!r}",
                    alert="decrypt_error",
                )
        client_write, server_write = hop_states(
            derive_hop_secret(
                self._master_secret, self._client_random, self._server_random, 0
            ),
            self._suite,
            self._client_random,
            self._server_random,
        )
        self._install_states(server_write, client_write)
        self.established = True
        self._state = "established"
        self._events.append(
            HandshakeComplete(
                cipher_suite=self._suite.code,
                peer_certificate=self._server_certificate,
            )
        )


class MdTLSServerConnection(_MdTLSEndpoint):
    """Sans-IO mdTLS server endpoint.

    Requires the client's warrant batch in the ClientHello (a stripped
    extension aborts the handshake — no silent fallback to vanilla TLS),
    answers with its own warrants, and withholds its Finished until the
    client Finished *and* every middlebox's client-to-server proxy
    signature verify against the warranted keys.
    """

    origin_label = "mdtls-server"

    def __init__(
        self,
        *,
        rng,
        credential: Credential,
        trust_store: TrustStore,
        warrants: tuple[DelegationCertificate, ...] = (),
        expected_middleboxes: list[tuple[str, object]] | tuple = (),
        now: float = 0.0,
    ) -> None:
        super().__init__()
        self._rng = rng
        self._credential = credential
        self._trust = trust_store
        self._warrants = tuple(warrants)
        self._expected = list(expected_middleboxes)
        self._now = now
        self._state = "wait_client_hello"
        self._client_random = b""
        self._server_random = b""
        self._suite: CipherSuite | None = None
        self._kex_private: X25519PrivateKey | None = None
        self._master_secret = b""
        self._c2s_hash = b""
        self._deliveries: list[HopKeyDelivery] = []
        self._proxy_signatures: list[ProxySignature] = []
        self._client_warrants: tuple[DelegationCertificate, ...] = ()

    def _handle_handshake(self, message: Handshake) -> None:
        kind = message.msg_type
        if kind == HandshakeType.CLIENT_HELLO:
            self._expect_state("wait_client_hello", kind)
            self._append_transcript(message)
            self._process_client_hello(ClientHello.decode_body(message.body))
            self._state = "wait_client_kex"
            return
        if kind == HandshakeType.CLIENT_KEY_EXCHANGE:
            self._expect_state("wait_client_kex", kind)
            self._append_transcript(message)
            kex = ClientKeyExchange.decode_body(message.body)
            shared = agree_pre_master(self._kex_private, kex.exchange_data)
            self._master_secret = derive_master_secret(
                shared, self._client_random, self._server_random
            )
            self._state = "wait_key_deliveries"
            return
        if kind == HandshakeType.MDTLS_KEY_DELIVERY:
            self._expect_state("wait_key_deliveries", kind)
            self._append_transcript(message)
            delivery = HopKeyDelivery.decode_body(message.body)
            if len(self._deliveries) >= len(self._expected):
                raise ProtocolError(
                    "more hop-key deliveries than warranted middleboxes",
                    alert="unexpected_message",
                )
            expected_name = self._expected[len(self._deliveries)][0]
            if delivery.middlebox != expected_name:
                raise ProtocolError(
                    f"hop-key delivery for {delivery.middlebox!r}, expected "
                    f"{expected_name!r}",
                    alert="handshake_failure",
                )
            self._deliveries.append(delivery)
            return
        if kind == HandshakeType.FINISHED:
            self._expect_state("wait_key_deliveries", kind)
            if len(self._deliveries) != len(self._expected):
                raise ProtocolError(
                    "client Finished before all hop-key deliveries",
                    alert="handshake_failure",
                )
            finished = Finished.decode_body(message.body)
            expected = finished_verify_data(
                self._master_secret, self._transcript_hash(), is_client=True
            )
            if finished.verify_data != expected:
                raise ProtocolError(
                    "client Finished verification failed", alert="decrypt_error"
                )
            self._append_transcript(message)
            self._c2s_hash = self._transcript_hash()
            self._state = "wait_proxy_signatures"
            self._maybe_finish()
            return
        if kind == HandshakeType.MDTLS_PROXY_SIGNATURE:
            self._expect_state("wait_proxy_signatures", kind)
            self._proxy_signatures.append(ProxySignature.decode_body(message.body))
            self._maybe_finish()
            return
        raise ProtocolError(
            f"unexpected handshake message {kind.name} in state {self._state}",
            alert="unexpected_message",
        )

    def _process_client_hello(self, hello: ClientHello) -> None:
        extension = hello.find_extension(int(ExtensionType.DELEGATION_CERTIFICATE))
        if extension is None:
            # mdTLS is delegation-or-abort: losing the extension means a
            # downgrade box stripped the in-band signal.
            raise ProtocolError(
                "client hello carries no delegation certificates",
                alert="handshake_failure",
            )
        batch = DelegationCertificateExtension.from_extension(extension)
        if len(batch.warrants) != len(self._expected):
            raise ProtocolError(
                "client warrant count does not match the deployment",
                alert="handshake_failure",
            )
        for (name, public_key), warrant in zip(self._expected, batch.warrants):
            warrant.verify(
                self._trust, now=self._now, middlebox=name, middlebox_key=public_key
            )
        self._client_warrants = batch.warrants
        selected = None
        for code in DEFAULT_SUITES:
            if code in hello.cipher_suites:
                selected = code
                break
        if selected is None:
            raise ProtocolError(
                "no cipher suite in common", alert="handshake_failure"
            )
        self._client_random = hello.random
        self._suite = suite_by_code(selected)
        self._server_random = self._rng.random_bytes(32)
        self._send_handshake(
            ServerHello(
                random=self._server_random,
                cipher_suite=selected,
                extensions=(
                    DelegationCertificateExtension(self._warrants).to_extension(),
                ),
            )
        )
        self._send_handshake(Certificate(chain=self._credential.encoded_chain()))
        self._kex_private = X25519PrivateKey(self._rng.random_bytes(32))
        params = ServerKeyExchange.encode_ecdhe_params(self._kex_private.public_bytes)
        signature = self._credential.private_key.sign(
            self._client_random + self._server_random + params
        )
        self._send_handshake(
            ServerKeyExchange(
                algorithm=KexAlgorithm.ECDHE_X25519,
                params=params,
                signature=signature,
            )
        )
        self._send_handshake(ServerHelloDone())

    def _maybe_finish(self) -> None:
        if len(self._proxy_signatures) < len(self._expected):
            return
        if len(self._proxy_signatures) > len(self._expected):
            raise ProtocolError(
                "more proxy signatures than warranted middleboxes",
                alert="unexpected_message",
            )
        by_name = dict(self._expected)
        seen = set()
        for signature in self._proxy_signatures:
            if signature.direction != 0:
                raise ProtocolError(
                    "server received a server-to-client proxy signature",
                    alert="unexpected_message",
                )
            if signature.middlebox not in by_name:
                raise ProtocolError(
                    f"proxy signature from unwarranted {signature.middlebox!r}",
                    alert="handshake_failure",
                )
            payload = ProxySignature.signed_payload(0, self._c2s_hash)
            if not by_name[signature.middlebox].verify(payload, signature.signature):
                raise ProtocolError(
                    f"bad proxy signature from {signature.middlebox!r}",
                    alert="decrypt_error",
                )
            seen.add(signature.middlebox)
        if len(seen) != len(self._expected):
            raise ProtocolError(
                "duplicate proxy signature in the aggregate chain",
                alert="handshake_failure",
            )
        verify_data = finished_verify_data(
            self._master_secret, self._transcript_hash(), is_client=False
        )
        self._send_handshake(Finished(verify_data=verify_data))
        hop = len(self._expected)
        client_write, server_write = hop_states(
            derive_hop_secret(
                self._master_secret, self._client_random, self._server_random, hop
            ),
            self._suite,
            self._client_random,
            self._server_random,
        )
        self._install_states(client_write, server_write)
        self.established = True
        self._state = "established"
        self._events.append(HandshakeComplete(cipher_suite=self._suite.code))


class MdTLSMiddleboxConnection(RecordDuplex):
    """Sans-IO duplex mdTLS middlebox.

    Forwards every handshake record *verbatim* (keeping the endpoints'
    Finished computation valid end to end) while shadowing the transcript,
    verifies its own warrants as they fly past, decrypts its
    :class:`HopKeyDelivery`, and appends a :class:`ProxySignature` after
    the Finished in each direction.  Once both Finished have passed it
    installs the two hop states and re-encrypts application data between
    its client-side and server-side hops.
    """

    origin_label = "mdtls-middlebox"

    def __init__(
        self,
        *,
        name: str,
        credential: Credential,
        trust_store: TrustStore,
        now: float = 0.0,
    ) -> None:
        super().__init__()
        self.name = name
        self.origin_label = f"mdtls-middlebox:{name}"
        self._credential = credential
        self._trust = trust_store
        self._now = now
        self._handshakes = [HandshakeBuffer(), HandshakeBuffer()]
        self._transcript = bytearray()
        self._suite: CipherSuite | None = None
        self._client_random = b""
        self._server_random = b""
        self._hop_secrets: tuple[bytes, bytes] | None = None
        self._client_warrant_seen = False
        self._server_warrant_seen = False
        self._client_finished_seen = False
        self.established = False
        self.records_forwarded = 0

    def _transcript_hash(self) -> bytes:
        return hashlib.sha256(bytes(self._transcript)).digest()

    def _send_alert(self, side: int, alert: Alert) -> None:
        self._planes[side].queue_encoded(_plaintext_alert(alert))

    def _on_record(
        self, side: int, record: Record, plaintext: bytes | None, events: list
    ) -> None:
        outbound = self._planes[1 - side]
        if record.content_type == ContentType.ALERT:
            encoded = bytes(record.payload)
            outbound.queue_encoded(
                Record(content_type=ContentType.ALERT, payload=encoded)
            )
            # Unlike the framed inspectors, an alert this hop cannot decode
            # raises here and aborts the session.
            self._pass_through(Alert.decode(encoded), events)
            return
        if record.content_type == ContentType.HANDSHAKE:
            # Still legal after establishment: trailing proxy signatures
            # from middleboxes closer to the server pass through here;
            # _shadow_handshake rejects anything else.
            encoded = bytes(record.payload)
            # Verbatim forwarding first: the endpoints' transcript must see
            # the exact bytes the other endpoint produced.
            outbound.queue_encoded(
                Record(content_type=ContentType.HANDSHAKE, payload=encoded)
            )
            buffer = self._handshakes[side]
            buffer.feed(encoded)
            for message in buffer.pop_messages():
                self._shadow_handshake(side, message, outbound)
            return
        if record.content_type == ContentType.APPLICATION_DATA:
            if not self.established:
                raise ProtocolError(
                    "application data before handshake completion",
                    alert="unexpected_message",
                )
            if plaintext is None:
                plaintext = self._planes[side].unprotect(record)
            outbound.queue_record(ContentType.APPLICATION_DATA, plaintext)
            self.records_forwarded += 1
            return
        raise ProtocolError(
            f"unexpected content type {int(record.content_type)}",
            alert="unexpected_message",
        )

    def _shadow_handshake(
        self, side: int, message: Handshake, outbound: RecordPlane
    ) -> None:
        kind = message.msg_type
        if kind == HandshakeType.MDTLS_PROXY_SIGNATURE:
            return  # not part of the signed transcript
        if self.established:
            raise ProtocolError(
                "handshake message after establishment",
                alert="unexpected_message",
            )
        self._transcript += message.encode()
        if kind == HandshakeType.CLIENT_HELLO:
            if side != 0:
                raise ProtocolError(
                    "ClientHello from the server side", alert="unexpected_message"
                )
            self._process_client_hello(ClientHello.decode_body(message.body))
            return
        if kind == HandshakeType.SERVER_HELLO:
            if side != 1:
                raise ProtocolError(
                    "ServerHello from the client side", alert="unexpected_message"
                )
            self._process_server_hello(ServerHello.decode_body(message.body))
            return
        if kind == HandshakeType.MDTLS_KEY_DELIVERY:
            delivery = HopKeyDelivery.decode_body(message.body)
            if delivery.middlebox == self.name:
                self._accept_delivery(delivery)
            return
        if kind == HandshakeType.FINISHED:
            direction = 0 if side == 0 else 1
            if direction == 0:
                self._client_finished_seen = True
            signature = self._credential.private_key.sign(
                ProxySignature.signed_payload(direction, self._transcript_hash())
            )
            framed = Handshake(
                msg_type=HandshakeType.MDTLS_PROXY_SIGNATURE,
                body=ProxySignature(
                    middlebox=self.name, direction=direction, signature=signature
                ).encode_body(),
            )
            outbound.queue_record(ContentType.HANDSHAKE, framed.encode())
            if direction == 1:
                if not self._client_finished_seen:
                    raise ProtocolError(
                        "server Finished before client Finished",
                        alert="unexpected_message",
                    )
                self._install_hop_states()
            return
        # Certificate / ServerKeyExchange / ServerHelloDone /
        # ClientKeyExchange: transcript-shadowed above, otherwise opaque to
        # the middlebox.

    def _process_client_hello(self, hello: ClientHello) -> None:
        extension = hello.find_extension(int(ExtensionType.DELEGATION_CERTIFICATE))
        if extension is None:
            raise ProtocolError(
                "client hello carries no delegation certificates",
                alert="handshake_failure",
            )
        batch = DelegationCertificateExtension.from_extension(extension)
        self._verify_own_warrant(batch, delegated_by="client")
        self._client_warrant_seen = True
        self._client_random = hello.random

    def _process_server_hello(self, hello: ServerHello) -> None:
        if not self._client_warrant_seen:
            raise ProtocolError(
                "ServerHello before ClientHello", alert="unexpected_message"
            )
        extension = hello.find_extension(int(ExtensionType.DELEGATION_CERTIFICATE))
        if extension is None:
            raise ProtocolError(
                "server hello carries no delegation certificates",
                alert="handshake_failure",
            )
        batch = DelegationCertificateExtension.from_extension(extension)
        self._verify_own_warrant(batch, delegated_by="server")
        self._server_warrant_seen = True
        self._server_random = hello.random
        self._suite = suite_by_code(hello.cipher_suite)

    def _verify_own_warrant(
        self, batch: DelegationCertificateExtension, delegated_by: str
    ) -> None:
        own_key = self._credential.private_key.public_key
        for warrant in batch.warrants:
            if warrant.middlebox == self.name:
                warrant.verify(
                    self._trust,
                    now=self._now,
                    middlebox=self.name,
                    middlebox_key=own_key,
                )
                return
        raise ProtocolError(
            f"no {delegated_by}-issued warrant for middlebox {self.name!r}",
            alert="access_denied",
        )

    def _accept_delivery(self, delivery: HopKeyDelivery) -> None:
        try:
            secrets = self._credential.private_key.decrypt(
                delivery.encrypted_secrets
            )
        except CryptoError as exc:
            raise ProtocolError(
                "hop-key delivery does not decrypt under our key",
                alert="decrypt_error",
            ) from exc
        if len(secrets) != 64:
            raise ProtocolError(
                "hop-key delivery has the wrong secret length",
                alert="decrypt_error",
            )
        self._hop_secrets = (secrets[:32], secrets[32:])

    def _install_hop_states(self) -> None:
        if self._hop_secrets is None:
            raise ProtocolError(
                "handshake finished without a hop-key delivery for us",
                alert="handshake_failure",
            )
        if self._suite is None:
            raise ProtocolError(
                "handshake finished before suite negotiation",
                alert="unexpected_message",
            )
        client_side, server_side = self._hop_secrets
        down_c2s, down_s2c = hop_states(
            client_side, self._suite, self._client_random, self._server_random
        )
        up_c2s, up_s2c = hop_states(
            server_side, self._suite, self._client_random, self._server_random
        )
        # Down plane: read what the client wrote, write toward the client.
        self._planes[0].replace_states(down_c2s, down_s2c)
        # Up plane: read what the server wrote, write toward the server.
        self._planes[1].replace_states(up_s2c, up_c2s)
        self.established = True
