"""Split TLS: interception with a custom root certificate (§2.2).

The standard practice mbTLS replaces: an administrator provisions clients
with a custom root CA; the interception middlebox terminates the client's
TLS connection with a certificate it *fabricates on the fly* for the
destination, and opens its own second TLS connection to the server.

The well-known weaknesses are intentionally reproduced and surfaced by the
security benchmarks:

* the client authenticates the *middlebox's* fabricated certificate, never
  the real server [Authentication: owner ✗];
* whether the middlebox validates the real server at all is a middlebox
  configuration knob the client cannot observe (``validate_upstream``);
* all session keys and plaintext live in ordinary middlebox memory, fully
  visible to the infrastructure provider.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SessionAborted
from repro.netsim.driver import CpuMeter, DuplexDriver
from repro.netsim.network import Host, InterceptedFlow
from repro.pki.authority import CertificateAuthority
from repro.pki.store import TrustStore
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import ApplicationData, ConnectionClosed
from repro.wire.alerts import AlertDescription

__all__ = ["SplitTLSMiddlebox", "SplitTLSService"]


class SplitTLSMiddlebox:
    """Sans-IO split-TLS interceptor for one connection.

    Runs a full TLS *server* toward the client (with a fabricated leaf for
    the intended destination) and a full TLS *client* toward the server,
    splicing plaintext between them through ``process``.
    """

    def __init__(
        self,
        interception_ca: CertificateAuthority,
        destination: str,
        rng,
        upstream_trust: TrustStore | None = None,
        validate_upstream: bool = True,
        process: Callable[[str, bytes], bytes] = lambda direction, data: data,
        on_secret: Callable[[str, bytes], None] | None = None,
        now: Callable[[], float] = lambda: 0.0,
        key_bits: int | None = None,
        fabricated_credential=None,
    ) -> None:
        # Fabricate a certificate for the destination, signed by our CA
        # (or accept a service-cached credential to skip per-connection
        # key generation, like real interceptors do).
        if fabricated_credential is not None:
            fake_credential = fabricated_credential
        else:
            from repro.pki.authority import DEFAULT_KEY_BITS

            fake_credential = interception_ca.issue_credential(
                destination, rng=rng, now=now(),
                key_bits=key_bits if key_bits else DEFAULT_KEY_BITS,
            )
        self.down_engine = TLSServerEngine(
            TLSConfig(rng=rng.fork(b"down"), credential=fake_credential, on_secret=on_secret)
        )
        self.up_engine = TLSClientEngine(
            TLSConfig(
                rng=rng.fork(b"up"),
                trust_store=upstream_trust if validate_upstream else None,
                server_name=destination if validate_upstream else None,
                on_secret=on_secret,
                now=now,
            )
        )
        self.down_engine.origin_label = "split-tls-middlebox"
        self.up_engine.origin_label = "split-tls-middlebox"
        self._process = process
        # Client data that arrived before the upstream handshake finished.
        self._pending_up = b""
        self.records_processed = 0
        self.closed = False
        self.abort: SessionAborted | None = None

    def start(self) -> None:
        self.down_engine.start()
        self.up_engine.start()

    def receive_down(self, data: bytes) -> list:
        if self.closed:
            return []
        events = self.down_engine.receive_bytes(data)
        out = []
        for event in events:
            if isinstance(event, ApplicationData):
                transformed = self._process("c2s", event.data)
                self.records_processed += 1
                if self.up_engine.handshake_complete:
                    self.up_engine.send_application_data(transformed)
                else:
                    self._pending_up += transformed
            elif isinstance(event, ConnectionClosed):
                self._segment_closed(self.down_engine, self.up_engine)
            out.append(event)
        return out

    def receive_up(self, data: bytes) -> list:
        if self.closed:
            return []
        events = self.up_engine.receive_bytes(data)
        for event in events:
            if isinstance(event, ApplicationData):
                transformed = self._process("s2c", event.data)
                self.records_processed += 1
                if self.down_engine.handshake_complete:
                    self.down_engine.send_application_data(transformed)
            elif isinstance(event, ConnectionClosed):
                self._segment_closed(self.up_engine, self.down_engine)
        # Flush data the client sent before the upstream handshake finished.
        if self._pending_up and self.up_engine.handshake_complete:
            self.up_engine.send_application_data(self._pending_up)
            self._pending_up = b""
        return events

    def _segment_closed(self, source, other) -> None:
        """One session ended; end the other too (no half-open splice).

        Split TLS runs two *independent* TLS sessions, so a fatal alert on
        one cannot be forwarded verbatim — it is re-originated on the other
        session, preserving the original hop attribution.
        """
        self.closed = True
        if self.abort is None and source.abort is not None:
            self.abort = source.abort
        if other.closed:
            return
        if source.abort is not None:
            other.origin_label = source.abort.origin or other.origin_label
            other.send_fatal_alert(
                AlertDescription.from_name(source.abort.alert),
                str(source.abort),
            )
        else:
            other.close()

    def data_to_send_down(self) -> bytes:
        return self.down_engine.data_to_send()

    def data_to_send_up(self) -> bytes:
        return self.up_engine.data_to_send()

    def peer_closed_down(self) -> list:
        """The client segment died: say a clean goodbye toward the server."""
        if self.closed:
            return []
        self.closed = True
        if not self.up_engine.closed:
            self.up_engine.close()
        return [ConnectionClosed(error="client segment closed")]

    def peer_closed_up(self) -> list:
        """The server segment died: say a clean goodbye toward the client."""
        if self.closed:
            return []
        self.closed = True
        if not self.down_engine.closed:
            self.down_engine.close()
        return [ConnectionClosed(error="server segment closed")]

    # MbTLSMiddlebox-compatible surface for drivers.
    dial_target = None

    @property
    def joined(self) -> bool:
        return (
            self.down_engine.handshake_complete and self.up_engine.handshake_complete
        )


class SplitTLSService:
    """Deploys split-TLS interception on a host."""

    def __init__(
        self,
        host: Host,
        interception_ca: CertificateAuthority,
        rng,
        upstream_trust: TrustStore | None = None,
        validate_upstream: bool = True,
        process: Callable[[str, bytes], bytes] = lambda direction, data: data,
        port: int = 443,
        meter: CpuMeter | None = None,
        on_secret: Callable[[str, bytes], None] | None = None,
        key_bits: int | None = None,
    ) -> None:
        self.host = host
        self.meter = meter if meter is not None else CpuMeter(host.name)
        self.middleboxes: list[SplitTLSMiddlebox] = []
        self.drivers: list[DuplexDriver] = []
        self._ca = interception_ca
        self._rng = rng
        self._trust = upstream_trust
        self._validate = validate_upstream
        self._process = process
        self._on_secret = on_secret
        self._key_bits = key_bits
        # One leaf key pair for all fabrications: real interceptors generate
        # a key once and only sign a fresh certificate per destination.
        self._leaf_key = None
        self._fab_cache = {}
        host.intercept(port, self._on_intercept)

    def _fabricate(self, destination: str):
        from repro.crypto.rsa import generate_rsa_key
        from repro.pki.authority import Credential, DEFAULT_KEY_BITS

        if destination in self._fab_cache:
            return self._fab_cache[destination]
        if self._leaf_key is None:
            self._leaf_key = generate_rsa_key(
                self._key_bits or DEFAULT_KEY_BITS, self._rng.fork(b"leaf")
            )
        leaf = self._ca.issue(destination, self._leaf_key.public_key)
        credential = Credential(
            private_key=self._leaf_key,
            chain=(leaf, self._ca.certificate),
        )
        self._fab_cache[destination] = credential
        return credential

    def _on_intercept(self, flow: InterceptedFlow) -> None:
        middlebox = SplitTLSMiddlebox(
            self._ca,
            flow.destination,
            self._rng.fork(flow.destination.encode()),
            upstream_trust=self._trust,
            validate_upstream=self._validate,
            process=self._process,
            on_secret=self._on_secret,
            fabricated_credential=self._fabricate(flow.destination),
        )
        self.middleboxes.append(middlebox)
        driver = DuplexDriver(middlebox, flow.socket, meter=self.meter)
        self.drivers.append(driver)
        with self.meter.measure():
            middlebox.start()
        driver.bind_up(flow.dial_onward())
