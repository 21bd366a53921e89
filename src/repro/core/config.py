"""Configuration and event types for the mbTLS endpoints and middleboxes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.pki.certificate import Certificate
from repro.pki.store import TrustStore
from repro.tls.config import TLSConfig
from repro.tls.events import Event

__all__ = [
    "MiddleboxInfo",
    "MbTLSEndpointConfig",
    "MiddleboxRole",
    "MiddleboxConfig",
    "SessionEstablished",
    "MiddleboxRejected",
]


@dataclass(frozen=True)
class MiddleboxInfo:
    """What an endpoint learns about a middlebox that joined its session.

    On a resumed session no certificate crosses the wire; ``known_name``
    carries the identity remembered from the original handshake (§3.5).
    """

    subchannel_id: int
    certificate: Certificate | None
    measurement: bytes | None
    discovered: bool
    known_name: str | None = None

    @property
    def name(self) -> str:
        if self.certificate is not None:
            return self.certificate.subject
        if self.known_name:
            return self.known_name
        return "<unauthenticated>"


@dataclass(frozen=True)
class SessionEstablished(Event):
    """The mbTLS session is fully set up: keys distributed, data may flow.

    Attributes:
        cipher_suite: the primary session's suite.
        middleboxes: this endpoint's middleboxes, in path order from the
            client side.
        resumed: whether the primary handshake was abbreviated.
    """

    cipher_suite: int
    middleboxes: tuple[MiddleboxInfo, ...]
    resumed: bool = False


@dataclass(frozen=True)
class MiddleboxRejected(Event):
    """A middlebox failed authentication/approval and was excluded."""

    subchannel_id: int
    reason: str


@dataclass
class MbTLSEndpointConfig:
    """Configuration for an mbTLS client or server endpoint.

    Attributes:
        tls: the primary-session TLS configuration (randomness, credential,
            trust store, server name, suites, resumption stores ...).
        middlebox_trust_store: roots for validating middlebox certificates
            (defaults to ``tls.trust_store``).
        require_middlebox_attestation: demand a valid SGX quote from every
            middlebox before giving it session keys (the outsourced-
            middlebox deployment of §3.2).
        middlebox_attestation_verifier: verifier for middlebox quotes.
        approve_middlebox: policy callback deciding whether an authenticated
            middlebox may join (default: accept). This is the "application
            approval" hook of §3.4.
        preconfigured_middleboxes: middlebox addresses known a priori,
            listed in the MiddleboxSupport extension (client only).
        accept_announcements: server only: expect and accept server-side
            middlebox announcements.
        max_middleboxes: safety cap on how many middleboxes may join.
        tamper_policy: what the data plane does with a record failing AEAD
            verification: ``"drop"`` discards it and counts it in
            ``records_dropped`` (the paper's forward-progress behaviour),
            ``"abort"`` originates a fatal ``bad_record_mac`` alert and
            tears the session down (classic TLS behaviour).  The policy
            only governs hops under per-hop keys: an endpoint with no
            middlebox on its side runs its hop through the primary
            :class:`~repro.tls.engine.TLSEngine`, which always aborts with
            ``bad_record_mac``, whatever this says.
        allow_fallback: may the session establish after *excluding* path
            members (bypassed, failed, or policy-rejected middleboxes)?
            ``True`` is the paper's optimistic behaviour; every such
            fallback decision is still recorded as a ``session.fallback``
            counter. ``False`` fails closed: establishing on the weakened
            path is refused with a fatal ``insufficient_security`` alert
            (surfaced as :class:`~repro.errors.DegradedPathError` by the
            supervisor), so an on-path attacker cannot silently force a
            weaker party set.
    """

    tls: TLSConfig
    middlebox_trust_store: TrustStore | None = None
    require_middlebox_attestation: bool = False
    middlebox_attestation_verifier: object | None = None
    approve_middlebox: Callable[[MiddleboxInfo], bool] = lambda info: True
    preconfigured_middleboxes: tuple[str, ...] = ()
    accept_announcements: bool = True
    max_middleboxes: int = 16
    middlebox_session_store: object | None = None  # MiddleboxSessionStore
    tamper_policy: str = "drop"
    allow_fallback: bool = True

    def secondary_trust_store(self) -> TrustStore | None:
        if self.middlebox_trust_store is not None:
            return self.middlebox_trust_store
        return self.tls.trust_store


class MiddleboxRole:
    """How a middlebox decides to join sessions passing through it."""

    CLIENT_SIDE = "client-side"
    SERVER_SIDE = "server-side"
    AUTO = "auto"


@dataclass
class MiddleboxConfig:
    """Configuration for an mbTLS middlebox.

    Attributes:
        name: the middlebox service's name (must match its certificate).
        tls: TLS settings for secondary handshakes (credential required;
            ``enclave`` set when running inside SGX).
        role: CLIENT_SIDE (join when the ClientHello carries
            MiddleboxSupport), SERVER_SIDE (announce toward servers in
            ``served_servers``), or AUTO (client-side if the extension is
            present, else server-side if the destination is served, else
            relay).
        served_servers: destinations this middlebox fronts when acting
            server-side; empty set = serve every destination.
        process: the middlebox application: ``process(direction, data) ->
            data`` where direction is "c2s" or "s2c". Default: identity
            (a transparent forwarder, like the paper's baseline behaviour).
        non_mbtls_servers: cache of servers that ignored our announcement;
            we relay silently for these from then on (§3.4).
        tamper_policy: as on :class:`MbTLSEndpointConfig` — ``"drop"``
            discards records failing AEAD verification, ``"abort"``
            originates fatal ``bad_record_mac`` alerts toward both
            endpoints and tears the session down.
    """

    name: str
    tls: TLSConfig
    role: str = MiddleboxRole.AUTO
    served_servers: frozenset[str] = frozenset()
    process: Callable[[str, bytes], bytes] = lambda direction, data: data
    non_mbtls_servers: set[str] = field(default_factory=set)
    tamper_policy: str = "drop"

    def serves(self, destination: str) -> bool:
        return not self.served_servers or destination in self.served_servers
