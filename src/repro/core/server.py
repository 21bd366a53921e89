"""The mbTLS server endpoint (§3.4).

Wraps a primary TLS server engine and adds:

* acceptance of optimistic ``MiddleboxAnnouncement`` records from
  server-side middleboxes (each on its own subchannel);
* a secondary TLS handshake per announced middlebox, with the *server*
  playing the TLS client role (this is why Figure 5 shows server cost
  growing by roughly one client-handshake — ~20% — per middlebox);
* per-hop key generation for the server side of the path and the
  server-side data plane.

A legacy TLS server would instead ignore (or choke on) the announcements —
that behaviour lives in the plain :class:`~repro.tls.engine.TLSServerEngine`
via ``ignore_unknown_records``.
"""

from __future__ import annotations

from repro.core.config import MbTLSEndpointConfig, MiddleboxInfo, SessionEstablished
from repro.core.endpoint import MbTLSEndpoint
from repro.core.keys import build_hop_chain, bridge_hop_keys, hop_states_for_endpoint
from repro.core.mux import Subchannel
from repro import obs
from repro.errors import DecodeError, ProtocolError
from repro.tls.ciphersuites import suite_by_code
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import AnnouncementReceived
from repro.wire.mbtls import EncapsulatedRecord, MiddleboxAnnouncement

__all__ = ["MbTLSServerEngine"]


class MbTLSServerEngine(MbTLSEndpoint):
    """Sans-IO mbTLS server."""

    is_client = False
    origin_label = "server"

    def __init__(self, config: MbTLSEndpointConfig) -> None:
        super().__init__(config, TLSServerEngine(config.tls))
        self._announcement_window_open = True
        self._pending_app_data: tuple[bytes, ...] = ()

    # ------------------------------------------------------------------ API

    def send_application_data(self, data: bytes) -> None:
        if self.closed:
            raise ProtocolError("cannot send application data on a closed connection")
        if not self.established:
            # §3.5 False-Start territory: queue until keys are distributed.
            self._pending_app_data += (bytes(data),)
            return
        self._send_app_now(data)

    # ------------------------------------------------------------ internals

    def _open_subchannel(self, encap: EncapsulatedRecord) -> None:
        """A server-side middlebox announced itself on a new subchannel."""
        try:
            MiddleboxAnnouncement.from_record(encap.inner)
        except DecodeError:
            return  # not an announcement: stray subchannel traffic; drop
        if (
            not self.config.accept_announcements
            or not self._announcement_window_open
            or len(self._secondaries) >= self.config.max_middleboxes
        ):
            return  # behave like a legacy server: silently ignore (§3.4)
        self._events.append(AnnouncementReceived(subchannel_id=encap.subchannel_id))
        secondary_config = TLSConfig(
            rng=self.config.tls.rng.fork(b"secondary-%d" % encap.subchannel_id),
            trust_store=self.config.secondary_trust_store(),
            server_name=None,
            cipher_suites=self.config.tls.cipher_suites,
            now=self.config.tls.now,
            require_attestation=self.config.require_middlebox_attestation,
            attestation_verifier=self.config.middlebox_attestation_verifier,
            on_secret=self.config.tls.on_secret,
        )
        engine = TLSClientEngine(secondary_config)
        # Metrics attribution only — origin_label stays unset so the
        # wire-visible alert plane is untouched.
        engine._plane.party = f"server:sub{encap.subchannel_id}"
        engine.start()  # the server initiates: it is the TLS client here
        sub = Subchannel(encap.subchannel_id, engine)
        self._secondaries[encap.subchannel_id] = sub
        self._arrival_order += (encap.subchannel_id,)
        self._drain_secondary(sub)

    def _middlebox_info(self, sub: Subchannel) -> MiddleboxInfo:
        return MiddleboxInfo(
            subchannel_id=sub.subchannel_id,
            certificate=sub.engine.peer_certificate,
            measurement=sub.engine.attested_measurement,
            discovered=True,
        )

    def _check_established(self) -> None:
        if self.established or not self.primary.handshake_complete:
            return
        # Snapshot: anything not announced by primary completion is too late.
        self._announcement_window_open = False
        if any(not sub.complete for sub in self._secondaries.values()):
            return
        self._establish()

    def _establish(self) -> None:
        if self._refuse_fallback():
            return
        suite = suite_by_code(self.primary.suite.code)
        active_order = self._active_order()
        _, key_block = self.primary.export_key_block()
        bridge = bridge_hop_keys(suite, key_block)
        if active_order:
            hops = build_hop_chain(
                suite,
                len(active_order),
                self.config.tls.rng,
                bridge,
                client_side=False,
            )
            self._send_key_material(active_order, hops)
            data_read, data_write = hop_states_for_endpoint(
                suite, hops[-1], is_client=False
            )
            self._plane.replace_states(data_read, data_write)
            obs.counter(
                "key_installs", party=self.origin_label, kind="hop",
                suite=suite.name,
            ).inc()
            for hop in hops[1:]:
                self.config.tls.report_secret("hop_key", hop.client_write_key)
                self.config.tls.report_secret("hop_key", hop.server_write_key)
        self.established = True
        obs.tracer().end(
            self._session_span,
            middleboxes=len(self.middleboxes), resumed=self.primary.resumed,
        )
        self._events.append(
            SessionEstablished(
                cipher_suite=suite.code,
                middleboxes=self.middleboxes,
                resumed=self.primary.resumed,
            )
        )
        for data in self._pending_app_data:
            self._send_app_now(data)
        self._pending_app_data = ()
