"""Sans-IO TLS 1.2 engines: the client and server handshake state machines.

The engines never touch a socket. Drivers feed raw bytes in with
:meth:`TLSEngine.receive_bytes` (getting protocol events back) and pump
:meth:`TLSEngine.data_to_send` out to whatever transport exists — a
simulated TCP stream, an in-memory pipe, or an mbTLS subchannel.

Supported: full ECDHE/DHE-RSA handshakes, AEAD record protection, session-ID
and ticket resumption, alerts, and the mbTLS hooks (SGX attestation messages,
preset ClientHellos for secondary sessions, tolerant handling of mbTLS
record types for legacy endpoints).
"""

from __future__ import annotations

import hashlib
from enum import Enum, auto

from repro import obs
from repro.crypto.dh import DHGroup, DHPrivateKey, modp_group
from repro.crypto.x25519 import X25519PrivateKey
from repro.io.endpoint import RecordEndpoint
from repro.errors import (
    AttestationError,
    CertificateError,
    DecodeError,
    HandshakeError,
    IntegrityError,
    ProtocolError,
)
from repro.pki.certificate import Certificate as PkiCertificate
from repro.tls.ciphersuites import CipherSuite, KeyExchange, suite_by_code
from repro.tls.config import TLSConfig
from repro.tls.events import (
    ApplicationData,
    Event,
    HandshakeComplete,
    RawRecordReceived,
    TicketIssued,
)
from repro.tls.keyschedule import (
    KeyBlock,
    agree_pre_master,
    derive_key_block,
    derive_master_secret,
    finished_verify_data,
)
from repro.tls.record_layer import ConnectionState
from repro.tls.session import SessionState
from repro.wire.alerts import AlertDescription
from repro.wire.extensions import (
    AttestationRequestExtension,
    Extension,
    ExtensionType,
    ServerNameExtension,
    SessionTicketExtension,
)
from repro.wire.handshake import (
    Certificate,
    ClientHello,
    ClientKeyExchange,
    Finished,
    Handshake,
    HandshakeBuffer,
    HandshakeType,
    KexAlgorithm,
    NewSessionTicket,
    ServerHello,
    ServerHelloDone,
    ServerKeyExchange,
    SGXAttestation,
)
from repro.wire.records import ContentType, Record

__all__ = ["TLSEngine", "TLSClientEngine", "TLSServerEngine"]

_RANDOM_LEN = 32
_SESSION_ID_LEN = 32
_TICKET_LIFETIME = 3600


class _State(Enum):
    START = auto()
    # client
    WAIT_SERVER_HELLO = auto()
    WAIT_SERVER_FLIGHT = auto()
    WAIT_SERVER_CCS = auto()
    WAIT_SERVER_FINISHED = auto()
    # server
    WAIT_CLIENT_HELLO = auto()
    WAIT_CLIENT_KEX = auto()
    WAIT_CLIENT_CCS = auto()
    WAIT_CLIENT_FINISHED = auto()
    # both
    ESTABLISHED = auto()


class TLSEngine(RecordEndpoint):
    """Shared machinery for both TLS roles.

    The receive loop, the alert/abort/close plumbing and the batched opens
    of application data come from :class:`~repro.io.endpoint.RecordEndpoint`;
    this class adds the handshake, the per-record dispatch and the
    engine's observability (``alerts_sent``/``alerts_received`` counters,
    the ``handshake.tls`` span).
    """

    is_client: bool

    def __init__(self, config: TLSConfig) -> None:
        super().__init__()
        self.config = config
        self._handshakes = HandshakeBuffer()
        self._transcript: list[bytes] = []
        self._state = _State.START
        self.suite: CipherSuite | None = None
        self.master_secret: bytes | None = None
        self.key_block: KeyBlock | None = None
        self.client_random: bytes | None = None
        self.server_random: bytes | None = None
        self.session_state: SessionState | None = None
        self.peer_certificate: PkiCertificate | None = None
        self.attested_measurement: bytes | None = None
        self.resumed = False
        # ``origin_label`` names this party in any fatal alert it
        # originates (see DESIGN.md §9).
        self.origin_label = ""
        self._hs_span = None

    @property
    def origin_label(self) -> str:
        return self._origin_label

    @origin_label.setter
    def origin_label(self, value: str) -> None:
        # The origin label doubles as the observability party name for this
        # engine's record plane, so stamping one stamps both.
        self._origin_label = value
        if value:
            self._plane.party = value

    def _obs_party(self) -> str:
        # Prefer the alert origin, then any party stamped on the plane
        # (middlebox secondaries), then the bare role.
        return (self.origin_label or self._plane.party
                or ("client" if self.is_client else "server"))

    def _begin_handshake_span(self) -> None:
        if self._hs_span is None:
            self._hs_span = obs.tracer().begin(
                "handshake.tls", party=self._obs_party())

    # ------------------------------------------------------------------ API

    @property
    def handshake_complete(self) -> bool:
        return self._state == _State.ESTABLISHED and not self.closed

    @property
    def first_transcript_message(self) -> bytes:
        """The first handshake message sent/received (mbTLS reuses the
        primary ClientHello as the preset hello for secondary sessions)."""
        if not self._transcript:
            raise ProtocolError("transcript is empty")
        return self._transcript[0]

    def _on_start(self) -> None:
        """Kick off the handshake (client sends its hello; server waits)."""
        raise NotImplementedError

    def send_application_data(self, data: bytes) -> None:
        """Queue application data (only valid once established)."""
        if self.closed:
            raise ProtocolError("cannot send application data on a closed connection")
        if self._state != _State.ESTABLISHED:
            raise ProtocolError("cannot send application data before handshake")
        self._plane.queue_application_data(data)

    def send_raw_record(self, content_type: ContentType, payload: bytes) -> None:
        """Queue a protected record of an arbitrary content type.

        The mbTLS layer sends MBTLSKeyMaterial records through established
        secondary sessions this way.
        """
        if not self.handshake_complete:
            raise ProtocolError("cannot send raw records before handshake")
        self._send_record(content_type, payload)

    def send_fatal_alert(
        self, description: AlertDescription, message: str
    ) -> list[Event]:
        """Originate a fatal alert and close.

        Splicing middleboxes (split TLS) use this to propagate a teardown
        from one segment's session onto the other's.
        """
        events: list[Event] = []
        self._abort(ProtocolError(message, alert=description.name.lower()), events)
        return events

    def export_key_block(self) -> tuple[CipherSuite, KeyBlock]:
        """The primary key block (mbTLS bridge keys)."""
        if self.suite is None or self.key_block is None:
            raise ProtocolError("key block not yet derived")
        return self.suite, self.key_block

    def record_sequences(self) -> tuple[int, int]:
        """(write_seq, read_seq) of the protected record states."""
        return self._plane.sequences()

    def replace_data_states(
        self,
        read_state: ConnectionState | None,
        write_state: ConnectionState | None,
    ) -> None:
        """Swap record-protection states (mbTLS per-hop key installation)."""
        self._plane.replace_states(read_state, write_state)

    # ------------------------------------------------------------ internals

    def _emit(self, event: Event) -> None:
        self._events.append(event)

    def _abort(self, exc: Exception, events: list) -> None:
        if isinstance(exc, IntegrityError):
            exc = IntegrityError("record authentication failed")
        super()._abort(exc, events)
        name = self.abort.alert
        obs.counter("alerts_sent", origin=self._obs_party(), alert=name).inc()
        obs.tracer().end(self._hs_span, error=name)

    def _handle_alert(self, payload, events: list) -> bool:
        ended = super()._handle_alert(payload, events)
        alert = self.alert_received
        obs.counter(
            "alerts_received", party=self._obs_party(),
            origin=alert.origin or "unknown",
            alert=alert.description.name.lower(),
        ).inc()
        return ended

    def _send_record(self, content_type: ContentType, payload: bytes) -> None:
        self._plane.queue_record(content_type, payload)

    def _send_handshake(self, message, to_transcript: bool = True) -> None:
        framed = Handshake(msg_type=message.msg_type, body=message.encode_body()).encode()
        if to_transcript:
            self._transcript.append(framed)
        self._send_record(ContentType.HANDSHAKE, framed)

    def _send_ccs(self) -> None:
        self._send_record(ContentType.CHANGE_CIPHER_SPEC, b"\x01")
        self._plane.activate_pending_write()

    def _transcript_hash(self) -> bytes:
        return hashlib.sha256(b"".join(self._transcript)).digest()

    def _on_record(self, record: Record, payload: bytes | None) -> None:
        if payload is None:
            payload = self._plane.unprotect(record)

        if record.content_type == ContentType.CHANGE_CIPHER_SPEC:
            if payload != b"\x01":
                raise DecodeError("malformed ChangeCipherSpec")
            if self._plane.pending_read is None:
                raise HandshakeError(
                    "unexpected ChangeCipherSpec", alert="unexpected_message"
                )
            self._plane.activate_pending_read()
            return

        if record.content_type == ContentType.HANDSHAKE:
            self._handshakes.feed(payload)
            for message in self._handshakes.pop_messages():
                self._process_handshake(message)
            return

        if record.content_type == ContentType.ALERT:
            self._handle_alert(payload, self._events)
            return

        if record.content_type == ContentType.APPLICATION_DATA:
            if self._state != _State.ESTABLISHED:
                raise HandshakeError(
                    "application data before handshake completion",
                    alert="unexpected_message",
                )
            self._emit(ApplicationData(data=payload))
            return

        # mbTLS content types reaching a plain engine: a legacy endpoint
        # either ignores them or fails, depending on its implementation.
        if record.content_type in (
            ContentType.MBTLS_ENCAPSULATED,
            ContentType.MBTLS_KEY_MATERIAL,
            ContentType.MBTLS_MIDDLEBOX_ANNOUNCEMENT,
        ):
            self._handle_mbtls_record(record, payload)
            return

        raise DecodeError(f"unhandled content type {record.content_type}")

    def _handle_mbtls_record(self, record: Record, payload: bytes) -> None:
        """Plain TLS engines tolerate or reject mbTLS records (see §3.4)."""
        if self._state == _State.ESTABLISHED and record.content_type == (
            ContentType.MBTLS_KEY_MATERIAL
        ):
            self._emit(RawRecordReceived(record.content_type, payload))
            return
        if record.content_type == ContentType.MBTLS_MIDDLEBOX_ANNOUNCEMENT:
            # Servers that understand announcements override this hook.
            if self.config.ignore_unknown_records:
                return
            raise HandshakeError(
                "middlebox announcement not supported", alert="unexpected_message"
            )
        if self.config.ignore_unknown_records:
            return
        raise HandshakeError("unexpected mbTLS record", alert="unexpected_message")

    def _process_handshake(self, message: Handshake) -> None:
        raise NotImplementedError

    # ------------------------------------------------- shared crypto helpers

    def _install_key_block(self) -> None:
        assert self.suite and self.master_secret
        assert self.client_random and self.server_random
        self.key_block = derive_key_block(
            self.master_secret, self.client_random, self.server_random, self.suite
        )
        self.config.report_secret("master_secret", self.master_secret)
        self.config.report_secret("client_write_key", self.key_block.client_write_key)
        self.config.report_secret("server_write_key", self.key_block.server_write_key)
        if self.is_client:
            write_key, write_iv = (
                self.key_block.client_write_key,
                self.key_block.client_write_iv,
            )
            read_key, read_iv = (
                self.key_block.server_write_key,
                self.key_block.server_write_iv,
            )
        else:
            write_key, write_iv = (
                self.key_block.server_write_key,
                self.key_block.server_write_iv,
            )
            read_key, read_iv = (
                self.key_block.client_write_key,
                self.key_block.client_write_iv,
            )
        self._plane.pending_write = ConnectionState(self.suite, write_key, write_iv)
        self._plane.pending_read = ConnectionState(self.suite, read_key, read_iv)
        obs.counter(
            "key_installs", party=self._obs_party(), kind="session",
            suite=self.suite.name,
        ).inc()

    def _verify_finished(self, message: Handshake, from_client: bool) -> None:
        finished = Finished.decode_body(message.body)
        expected = finished_verify_data(
            self.master_secret, self._transcript_hash(), is_client=from_client
        )
        if finished.verify_data != expected:
            raise HandshakeError("Finished verification failed", alert="decrypt_error")
        self._transcript.append(
            Handshake(msg_type=message.msg_type, body=message.body).encode()
        )

    def _send_finished(self) -> None:
        verify = finished_verify_data(
            self.master_secret, self._transcript_hash(), is_client=self.is_client
        )
        self._send_handshake(Finished(verify_data=verify))

    def _complete(self) -> None:
        self._state = _State.ESTABLISHED
        obs.tracer().end(self._hs_span, resumed=self.resumed)
        self._emit(
            HandshakeComplete(
                cipher_suite=self.suite.code,
                resumed=self.resumed,
                peer_certificate=self.peer_certificate,
                attested_measurement=self.attested_measurement,
            )
        )


class TLSClientEngine(TLSEngine):
    """The TLS 1.2 client state machine."""

    is_client = True

    def __init__(self, config: TLSConfig) -> None:
        super().__init__(config)
        self._offered_session: SessionState | None = None
        self._offered_ticket: bytes | None = None
        self._kex_private: object | None = None
        self._attestation_required = config.require_attestation
        self._attestation_seen = False
        self._pending_ticket: bytes | None = None

    def _on_start(self) -> None:
        self._begin_handshake_span()
        if self.config.preset_client_hello is not None:
            self._start_from_preset()
            return
        hello = self._build_client_hello()
        self.client_random = hello.random
        self._send_handshake(hello)
        self._state = _State.WAIT_SERVER_HELLO

    def _start_from_preset(self) -> None:
        """mbTLS secondary sessions: the primary ClientHello does double duty."""
        framed = self.config.preset_client_hello
        message_body = framed[4:]
        hello = ClientHello.decode_body(message_body)
        self.client_random = hello.random
        # §3.5 resumption: the primary hello's session ID doubles as the
        # secondary session's resumption offer; the mbTLS layer supplies the
        # matching secondary session state if it has one.
        resume = self.config.preset_resume_session
        if resume is not None and resume.session_id == hello.session_id:
            self._offered_session = resume
        self._transcript.append(framed)
        self._state = _State.WAIT_SERVER_HELLO

    def _build_client_hello(self) -> ClientHello:
        config = self.config
        extensions: list[Extension] = []
        if config.server_name:
            extensions.append(ServerNameExtension(config.server_name).to_extension())
        session_id = b""
        if config.offer_resumption and config.session_store and config.server_name:
            stored = config.session_store.lookup(config.server_name)
            ticket = config.session_store.lookup_ticket(config.server_name)
            if ticket is not None:
                self._offered_ticket = ticket
                session_id = hashlib.sha256(ticket).digest()[:_SESSION_ID_LEN]
                extensions.append(SessionTicketExtension(ticket).to_extension())
            elif stored is not None:
                self._offered_session = stored
                session_id = stored.session_id
        if config.request_ticket and self._offered_ticket is None:
            extensions.append(SessionTicketExtension(b"").to_extension())
        if config.require_attestation:
            extensions.append(AttestationRequestExtension().to_extension())
        extensions.extend(config.extra_extensions)
        return ClientHello(
            random=config.rng.random_bytes(_RANDOM_LEN),
            session_id=session_id,
            cipher_suites=tuple(config.cipher_suites),
            extensions=tuple(extensions),
        )

    def _process_handshake(self, message: Handshake) -> None:
        handler = {
            _State.WAIT_SERVER_HELLO: self._on_wait_server_hello,
            _State.WAIT_SERVER_FLIGHT: self._on_wait_server_flight,
            _State.WAIT_SERVER_CCS: self._on_wait_server_finished,
            _State.WAIT_SERVER_FINISHED: self._on_wait_server_finished,
            _State.ESTABLISHED: self._on_established_handshake,
        }.get(self._state)
        if handler is None:
            raise HandshakeError(
                f"handshake message in state {self._state.name}",
                alert="unexpected_message",
            )
        handler(message)

    def _on_wait_server_hello(self, message: Handshake) -> None:
        if message.msg_type != HandshakeType.SERVER_HELLO:
            raise HandshakeError(
                f"expected ServerHello, got {message.msg_type.name}",
                alert="unexpected_message",
            )
        hello = ServerHello.decode_body(message.body)
        self._transcript.append(message.encode())
        self.server_random = hello.random
        self.suite = suite_by_code(hello.cipher_suite)
        if hello.cipher_suite not in self.config.cipher_suites:
            raise HandshakeError(
                "server selected a suite we did not offer", alert="illegal_parameter"
            )
        self._server_session_id = hello.session_id

        offered_id = None
        resumable: SessionState | None = None
        if self._offered_ticket is not None:
            offered_id = hashlib.sha256(self._offered_ticket).digest()[:_SESSION_ID_LEN]
            stored = (
                self.config.session_store.lookup(self.config.server_name or "")
                if self.config.session_store
                else None
            )
            resumable = stored
        elif self._offered_session is not None:
            offered_id = self._offered_session.session_id
            resumable = self._offered_session

        if (
            offered_id
            and hello.session_id == offered_id
            and resumable is not None
            and resumable.cipher_suite == hello.cipher_suite
        ):
            # Abbreviated handshake: server accepted our session.
            self.resumed = True
            self.master_secret = resumable.master_secret
            self._install_key_block()
            self._state = _State.WAIT_SERVER_CCS
        else:
            self._state = _State.WAIT_SERVER_FLIGHT

    def _on_wait_server_flight(self, message: Handshake) -> None:
        if message.msg_type == HandshakeType.SGX_ATTESTATION:
            self._handle_attestation(message)
            return
        if message.msg_type == HandshakeType.CERTIFICATE:
            self._transcript.append(message.encode())
            self._handle_certificate(Certificate.decode_body(message.body))
            return
        if message.msg_type == HandshakeType.SERVER_KEY_EXCHANGE:
            self._transcript.append(message.encode())
            self._server_kex = ServerKeyExchange.decode_body(message.body)
            return
        if message.msg_type == HandshakeType.SERVER_HELLO_DONE:
            ServerHelloDone.decode_body(message.body)
            self._transcript.append(message.encode())
            self._handle_server_done()
            return
        raise HandshakeError(
            f"unexpected {message.msg_type.name} in server flight",
            alert="unexpected_message",
        )

    def _handle_certificate(self, certificate: Certificate) -> None:
        chain = []
        for encoded in certificate.chain:
            chain.append(PkiCertificate.decode(encoded))
        if not chain:
            raise CertificateError("server sent an empty certificate chain")
        if self.config.trust_store is not None:
            leaf = self.config.trust_store.validate_chain(
                chain, self.config.server_name, self.config.now()
            )
        else:
            leaf = chain[0]
        self.peer_certificate = leaf

    def _handle_attestation(self, message: Handshake) -> None:
        attestation = SGXAttestation.decode_body(message.body)
        verifier = self.config.attestation_verifier
        if verifier is None:
            raise AttestationError("no attestation verifier configured")
        # report_data binds the transcript up to (not including) this message.
        quote = verifier.verify(attestation.quote, self._transcript_hash())
        self.attested_measurement = quote.measurement
        self._attestation_seen = True
        self._transcript.append(message.encode())

    def _handle_server_done(self) -> None:
        if self.peer_certificate is None:
            raise HandshakeError("server never sent a certificate")
        if getattr(self, "_server_kex", None) is None:
            raise HandshakeError("server never sent a key exchange")
        if self._attestation_required and not self._attestation_seen:
            raise AttestationError("server did not attest and attestation is required")

        kex = self._server_kex
        signed = self.client_random + self.server_random + kex.params
        if not self.peer_certificate.public_key.verify(signed, kex.signature):
            raise HandshakeError(
                "ServerKeyExchange signature invalid", alert="decrypt_error"
            )

        if kex.algorithm == KexAlgorithm.ECDHE_X25519:
            server_public = kex.parse_ecdhe_public()
            private = X25519PrivateKey(self.config.rng.random_bytes(32))
            pre_master = agree_pre_master(private, server_public)
            exchange_data = private.public_bytes
        else:
            p, g, server_public = kex.parse_dhe_params()
            group = DHGroup(p=p, g=g)
            private = DHPrivateKey(group, self.config.rng)
            pre_master = agree_pre_master(private, server_public)
            exchange_data = private.public_value.to_bytes(group.byte_length, "big")

        self.config.report_secret("pre_master_secret", pre_master)
        self.master_secret = derive_master_secret(
            pre_master, self.client_random, self.server_random
        )
        self._send_handshake(ClientKeyExchange(exchange_data=exchange_data))
        self._install_key_block()
        self._send_ccs()
        self._send_finished()
        self._state = _State.WAIT_SERVER_CCS

    def _on_wait_server_finished(self, message: Handshake) -> None:
        if message.msg_type == HandshakeType.NEW_SESSION_TICKET:
            ticket_msg = NewSessionTicket.decode_body(message.body)
            self._transcript.append(message.encode())
            self._pending_ticket = ticket_msg.ticket
            self._emit(
                TicketIssued(
                    ticket=ticket_msg.ticket,
                    lifetime_seconds=ticket_msg.lifetime_seconds,
                )
            )
            return
        if message.msg_type != HandshakeType.FINISHED:
            raise HandshakeError(
                f"expected Finished, got {message.msg_type.name}",
                alert="unexpected_message",
            )
        self._verify_finished(message, from_client=False)
        if self.resumed:
            # Abbreviated: now send our CCS + Finished.
            self._send_ccs()
            self._send_finished()
        self._finish_client()

    def _finish_client(self) -> None:
        session_id = getattr(self, "_server_session_id", b"")
        self.session_state = SessionState(
            session_id=session_id,
            master_secret=self.master_secret,
            cipher_suite=self.suite.code,
            server_name=self.config.server_name or "",
        )
        store = self.config.session_store
        if store is not None and self.config.server_name:
            if self._pending_ticket is not None:
                store.remember_ticket(self.config.server_name, self._pending_ticket)
            if session_id:
                store.remember(self.config.server_name, self.session_state)
        self._complete()

    def _on_established_handshake(self, message: Handshake) -> None:
        raise HandshakeError(
            "renegotiation is not supported", alert="no_renegotiation"
        )


class TLSServerEngine(TLSEngine):
    """The TLS 1.2 server state machine."""

    is_client = False

    def __init__(self, config: TLSConfig) -> None:
        super().__init__(config)
        if config.credential is None:
            raise ProtocolError("server role requires a credential")
        self._client_requested_ticket = False
        self._client_requested_attestation = False
        self._session_id: bytes = b""
        self._announcement_seen = False

    def _on_start(self) -> None:
        self._begin_handshake_span()
        self._state = _State.WAIT_CLIENT_HELLO

    def _process_handshake(self, message: Handshake) -> None:
        handler = {
            _State.WAIT_CLIENT_HELLO: self._on_client_hello,
            _State.WAIT_CLIENT_KEX: self._on_client_kex,
            _State.WAIT_CLIENT_CCS: self._on_client_finished,
            _State.WAIT_CLIENT_FINISHED: self._on_client_finished,
            _State.ESTABLISHED: self._on_established_handshake,
        }.get(self._state)
        if handler is None:
            raise HandshakeError(
                f"handshake message in state {self._state.name}",
                alert="unexpected_message",
            )
        handler(message)

    def _on_client_hello(self, message: Handshake) -> None:
        if message.msg_type != HandshakeType.CLIENT_HELLO:
            raise HandshakeError(
                f"expected ClientHello, got {message.msg_type.name}",
                alert="unexpected_message",
            )
        hello = ClientHello.decode_body(message.body)
        self._transcript.append(message.encode())
        self.client_hello = hello
        self.client_random = hello.random
        self.server_random = self.config.rng.random_bytes(_RANDOM_LEN)

        suite_code = self._negotiate_suite(hello)
        self.suite = suite_by_code(suite_code)

        ticket_ext = hello.find_extension(int(ExtensionType.SESSION_TICKET))
        self._client_requested_ticket = ticket_ext is not None
        self._client_requested_attestation = (
            hello.find_extension(int(ExtensionType.ATTESTATION_REQUEST)) is not None
        )

        resumed_state = self._try_resume(hello, ticket_ext, suite_code)
        if resumed_state is not None:
            self._do_abbreviated(resumed_state, hello)
        else:
            self._do_full_flight(hello, suite_code)

    def _negotiate_suite(self, hello: ClientHello) -> int:
        for code in self.config.cipher_suites:
            if code in hello.cipher_suites:
                return code
        raise HandshakeError("no cipher suite in common", alert="handshake_failure")

    def _try_resume(self, hello, ticket_ext, suite_code) -> SessionState | None:
        if ticket_ext is not None and ticket_ext.data and self.config.ticket_keeper:
            state = self.config.ticket_keeper.unseal(ticket_ext.data)
            if state is not None and state.cipher_suite == suite_code:
                expected_id = hashlib.sha256(ticket_ext.data).digest()[:_SESSION_ID_LEN]
                if hello.session_id == expected_id:
                    return state
        if hello.session_id and self.config.session_cache is not None:
            state = self.config.session_cache.lookup(hello.session_id)
            if state is not None and state.cipher_suite == suite_code:
                return state
        return None

    def _do_abbreviated(self, state: SessionState, hello: ClientHello) -> None:
        self.resumed = True
        self.master_secret = state.master_secret
        self._session_id = hello.session_id
        server_hello = ServerHello(
            random=self.server_random,
            cipher_suite=state.cipher_suite,
            session_id=hello.session_id,  # echo = resumption accepted
        )
        self._send_handshake(server_hello)
        self._install_key_block()
        if self._client_requested_ticket and self.config.ticket_keeper is not None:
            self._issue_ticket()
        self._send_ccs()
        self._send_finished()
        self._state = _State.WAIT_CLIENT_CCS

    def _do_full_flight(self, hello: ClientHello, suite_code: int) -> None:
        self._session_id = self.config.rng.random_bytes(_SESSION_ID_LEN)
        server_hello = ServerHello(
            random=self.server_random,
            cipher_suite=suite_code,
            session_id=self._session_id,
        )
        self._send_handshake(server_hello)
        self._send_handshake(
            Certificate(chain=self.config.credential.encoded_chain())
        )

        if self.suite.key_exchange == KeyExchange.ECDHE_RSA:
            private = X25519PrivateKey(self.config.rng.random_bytes(32))
            params = ServerKeyExchange.encode_ecdhe_params(private.public_bytes)
            self._kex_private = private
        else:
            group = modp_group(self.config.dhe_group_bits)
            private = DHPrivateKey(group, self.config.rng)
            params = ServerKeyExchange.encode_dhe_params(
                group.p, group.g, private.public_value
            )
            self._kex_private = private
        signed = self.client_random + self.server_random + params
        signature = self.config.credential.private_key.sign(signed)
        self._send_handshake(
            ServerKeyExchange(
                algorithm=(
                    KexAlgorithm.ECDHE_X25519
                    if self.suite.key_exchange == KeyExchange.ECDHE_RSA
                    else KexAlgorithm.DHE
                ),
                params=params,
                signature=signature,
            )
        )
        if self._client_requested_attestation and self.config.enclave is not None:
            quote = self.config.enclave.quote(self._transcript_hash())
            self._send_handshake(SGXAttestation(quote=quote))
        self._send_handshake(ServerHelloDone())
        self._state = _State.WAIT_CLIENT_KEX

    def _on_client_kex(self, message: Handshake) -> None:
        if message.msg_type != HandshakeType.CLIENT_KEY_EXCHANGE:
            raise HandshakeError(
                f"expected ClientKeyExchange, got {message.msg_type.name}",
                alert="unexpected_message",
            )
        kex = ClientKeyExchange.decode_body(message.body)
        self._transcript.append(message.encode())
        peer_share = kex.exchange_data
        if self.suite.key_exchange != KeyExchange.ECDHE_RSA:
            peer_share = int.from_bytes(peer_share, "big")
        pre_master = agree_pre_master(self._kex_private, peer_share)
        self.config.report_secret("pre_master_secret", pre_master)
        self.master_secret = derive_master_secret(
            pre_master, self.client_random, self.server_random
        )
        self._install_key_block()
        self._state = _State.WAIT_CLIENT_CCS

    def _on_client_finished(self, message: Handshake) -> None:
        if message.msg_type != HandshakeType.FINISHED:
            raise HandshakeError(
                f"expected Finished, got {message.msg_type.name}",
                alert="unexpected_message",
            )
        self._verify_finished(message, from_client=True)
        if self.resumed:
            self._finish_server()
            return
        if self._client_requested_ticket and self.config.ticket_keeper is not None:
            self._issue_ticket()
        self._send_ccs()
        self._send_finished()
        self._finish_server()

    def _issue_ticket(self) -> None:
        extra = self.config.ticket_extra() if self.config.ticket_extra else b""
        state = SessionState(
            session_id=self._session_id,
            master_secret=self.master_secret,
            cipher_suite=self.suite.code,
            extra=extra,
        )
        ticket = self.config.ticket_keeper.seal(state)
        self._send_handshake(
            NewSessionTicket(lifetime_seconds=_TICKET_LIFETIME, ticket=ticket)
        )

    def _finish_server(self) -> None:
        self.session_state = SessionState(
            session_id=self._session_id,
            master_secret=self.master_secret,
            cipher_suite=self.suite.code,
        )
        if self.config.session_cache is not None and self._session_id:
            self.config.session_cache.store(self.session_state)
        self._complete()

    def _on_established_handshake(self, message: Handshake) -> None:
        raise HandshakeError(
            "renegotiation is not supported", alert="no_renegotiation"
        )
