"""What the mbTLS client and server endpoints share (§3.4).

Both endpoints wrap a primary TLS engine, demultiplex Encapsulated records
into per-middlebox secondary sessions, hand each joined middlebox its hop
keys, and run the data plane under their own adjacent hop keys; both
receive through :class:`~repro.io.endpoint.RecordEndpoint`'s loop. The
role-specific parts — how a subchannel opens, which hop keys the endpoint
keeps, when the session counts as established — stay in
:class:`~repro.core.client.MbTLSClientEngine` and
:class:`~repro.core.server.MbTLSServerEngine`.
"""

from __future__ import annotations

from repro import obs
from repro.core.config import (
    MbTLSEndpointConfig,
    MiddleboxInfo,
    MiddleboxRejected,
)
from repro.core.mux import Subchannel
from repro.errors import IntegrityError, ProtocolError
from repro.io.endpoint import RecordEndpoint
from repro.tls.engine import TLSEngine
from repro.tls.events import (
    AlertReceived,
    ApplicationData,
    ConnectionClosed,
    Event,
    HandshakeComplete,
    MiddleboxJoined,
)
from repro.wire.alerts import Alert
from repro.wire.mbtls import EncapsulatedRecord, KeyMaterial
from repro.wire.records import ContentType, Record

__all__ = ["MbTLSEndpoint"]


class MbTLSEndpoint(RecordEndpoint):
    """Shared state and plumbing of the two sans-IO mbTLS endpoints."""

    def __init__(self, config: MbTLSEndpointConfig, primary: TLSEngine) -> None:
        super().__init__()
        self.config = config
        self.primary = primary
        # The plane's read/write states are the endpoint-adjacent hop keys,
        # installed at establishment; before that everything is forwarded raw.
        # Per-session ledgers that stay empty on most sessions are tuples,
        # extended by rebinding, so an engine without middleboxes holds no
        # list for the cycle collector to walk.
        self._secondaries: dict[int, Subchannel] = {}
        self._arrival_order: tuple[int, ...] = ()
        self._middlebox_infos: dict[int, MiddleboxInfo] = {}
        self.established = False
        self.records_dropped = 0
        # Alert-plane attribution (see DESIGN.md §9).
        self.primary.origin_label = self.origin_label
        self._plane.party = self.origin_label
        self._session_span = None
        # Subchannels abandoned because their middlebox stalled or died
        # mid-handshake (graceful degradation, not rejection-by-policy).
        self.bypassed_subchannels: tuple[int, ...] = ()
        # Every decision to proceed without a path member, as
        # (subchannel_id, reason) — the downgrade-visibility ledger.
        self.fallback_decisions: tuple[tuple[int, str], ...] = ()

    # ------------------------------------------------------------------ API

    def _on_start(self) -> None:
        self._session_span = obs.tracer().begin(
            "handshake.mbtls", party=self.origin_label)
        self.primary.start()
        self._drain_primary()

    def close(self) -> None:
        """close_notify under the hop keys, else the primary's own close."""
        if self._plane.write_state is not None:
            super().close()
        elif not self.closed:
            self.closed = True
            self.primary.close()
            self._drain_primary()

    @property
    def middleboxes(self) -> tuple[MiddleboxInfo, ...]:
        """Joined middleboxes in path order from the client.

        Both endpoints see middleboxes arrive farthest-from-the-client
        first (a server-side middlebox emits its own announcement before
        relaying those of middleboxes closer to the client), so path order
        is the reverse of arrival order.
        """
        return tuple(
            self._middlebox_infos[sub]
            for sub in reversed(self._arrival_order)
            if sub in self._middlebox_infos and not self._secondaries[sub].rejected
        )

    @property
    def resumed(self) -> bool:
        return self.primary.resumed

    @property
    def _data_read(self):
        """The endpoint-adjacent hop read state (None until established)."""
        return self._plane.read_state

    @property
    def _data_write(self):
        """The endpoint-adjacent hop write state (None until established)."""
        return self._plane.write_state

    def bypass_pending_middleboxes(
        self, reason: str = "secondary handshake timed out"
    ) -> list[Event]:
        """Give up on middleboxes whose secondary handshakes never finished.

        The paper's middleboxes join *optimistically*; the mirror image is
        that an endpoint must not wait forever for one that stalled or died
        mid-handshake. Each pending subchannel is excluded from the session,
        and if the primary handshake is done the session establishes
        without them (degraded to the surviving path members). Driven by
        the driver's handshake timer.
        """
        if self.established or self.closed:
            return []
        for sub in self._secondaries.values():
            if sub.complete:
                continue
            sub.complete = True
            sub.rejected = True
            sub.reject_reason = reason
            self.bypassed_subchannels += (sub.subchannel_id,)
            self._note_fallback(sub.subchannel_id, "middlebox_bypassed")
            obs.counter("middleboxes_bypassed", party=self.origin_label).inc()
            obs.tracer().mark(
                "middlebox.bypassed", party=self.origin_label,
                subchannel=sub.subchannel_id, reason=reason,
            )
            self._on_bypass(sub)
            self._events.append(
                MiddleboxRejected(subchannel_id=sub.subchannel_id, reason=reason)
            )
        self._check_established()
        return self._take_events()

    # ------------------------------------------------------------ internals

    def _send_app_now(self, data: bytes) -> None:
        if self._plane.write_state is not None:
            self._plane.queue_application_data(data)
        else:
            self.primary.send_application_data(data)
            self._drain_primary()

    def _drain_primary(self) -> None:
        self._plane.queue_raw(self.primary.data_to_send())

    def _drain_secondary(self, sub: Subchannel) -> None:
        self._plane.queue_raw(sub.drain())

    def _send_alert(self, alert: Alert) -> None:
        """Under the hop keys once installed; before that the alert travels
        on the primary stream under whatever protection it currently has."""
        try:
            if self._plane.write_state is not None:
                self._plane.queue_record(ContentType.ALERT, alert.encode())
            else:
                self.primary._plane.queue_record(ContentType.ALERT, alert.encode())
                self._drain_primary()
        except ProtocolError:
            pass

    def _abort(self, exc: Exception, events: list) -> None:
        if self.closed:
            return
        super()._abort(exc, events)
        name = self.abort.alert
        obs.counter("alerts_sent", origin=self.origin_label, alert=name).inc()
        obs.tracer().end(self._session_span, error=name)

    def _on_record(self, record: Record, plaintext: bytes | None) -> None:
        if plaintext is not None:
            # One of a batch-opened run of hop-protected application data.
            self._events.append(ApplicationData(data=plaintext))
            return
        if record.content_type == ContentType.MBTLS_ENCAPSULATED:
            self._process_encapsulated(EncapsulatedRecord.from_record(record))
            return
        if self.established and self._plane.write_state is not None and record.content_type in (
            ContentType.APPLICATION_DATA,
            ContentType.ALERT,
        ):
            self._process_data_record(record)
            return
        events = self.primary.receive_bytes(record.encode())
        self._drain_primary()
        for event in events:
            if isinstance(event, (ApplicationData, AlertReceived, ConnectionClosed)):
                self._events.append(event)
                if isinstance(event, ConnectionClosed):
                    self.closed = True
                    if self.abort is None:
                        self.abort = self.primary.abort
            # HandshakeComplete is folded into SessionEstablished.

    def _process_data_record(self, record: Record) -> None:
        try:
            plaintext = self._plane.unprotect(record)
        except IntegrityError as exc:
            if self.config.tamper_policy == "abort":
                self._abort(exc, self._events)
            else:
                # Tampered, replayed, or cross-hop record: discard it (P2/P4).
                self.records_dropped += 1
            return
        if record.content_type == ContentType.APPLICATION_DATA:
            self._events.append(ApplicationData(data=plaintext))
        else:
            self._handle_alert(plaintext, self._events)

    def _process_encapsulated(self, encap: EncapsulatedRecord) -> None:
        sub = self._secondaries.get(encap.subchannel_id)
        if sub is None:
            self._open_subchannel(encap)
            return
        events = sub.feed_inner(encap.inner)
        self._drain_secondary(sub)
        self._handle_secondary_events(sub, events)

    def _handle_secondary_events(self, sub: Subchannel, events: list[Event]) -> None:
        for event in events:
            if isinstance(event, HandshakeComplete):
                sub.complete = True
                info = self._middlebox_info(sub)
                self._middlebox_infos[sub.subchannel_id] = info
                if not self.config.approve_middlebox(info):
                    self._reject(sub, "application policy rejected the middlebox")
                else:
                    self._events.append(
                        MiddleboxJoined(
                            subchannel_id=sub.subchannel_id,
                            name=info.name,
                            certificate=info.certificate,
                            measurement=info.measurement,
                        )
                    )
            elif isinstance(event, ConnectionClosed) and not sub.complete:
                sub.rejected = True
                sub.complete = True
                self._note_fallback(sub.subchannel_id, "secondary_failed")
                self._events.append(
                    MiddleboxRejected(
                        subchannel_id=sub.subchannel_id,
                        reason=event.error or "secondary handshake failed",
                    )
                )

    def _reject(self, sub: Subchannel, reason: str) -> None:
        """Application policy refused a middlebox whose handshake finished."""
        sub.rejected = True
        self._note_fallback(sub.subchannel_id, "policy_rejected")
        self._events.append(
            MiddleboxRejected(subchannel_id=sub.subchannel_id, reason=reason)
        )

    def _note_fallback(self, subchannel_id: int, reason: str) -> None:
        """Ledger + counter: the session will proceed without this member."""
        self.fallback_decisions += ((subchannel_id, reason),)
        obs.counter(
            "session.fallback", party=self.origin_label, reason=reason
        ).inc()

    def _refuse_fallback(self) -> bool:
        """Abort instead of establishing on a degraded path, if configured.

        Fail closed: an on-path attacker who broke a middlebox's secondary
        handshake must not be able to force a session on the weakened party
        set (forced-fallback downgrade). True if the session was aborted.
        """
        if not self.fallback_decisions or self.config.allow_fallback:
            return False
        reasons = sorted({reason for _, reason in self.fallback_decisions})
        self._abort(
            ProtocolError(
                "refusing fallback to a degraded path "
                f"({len(self.fallback_decisions)} middlebox(es) excluded: "
                f"{', '.join(reasons)})",
                alert="insufficient_security",
            ),
            self._events,
        )
        return True

    def _active_order(self) -> list[int]:
        """Subchannels still on the path, in path order from the client."""
        return [
            sub_id
            for sub_id in reversed(self._arrival_order)
            if not self._secondaries[sub_id].rejected
        ]

    def _send_key_material(self, active_order: list[int], hops: list) -> None:
        """Hand each active middlebox the keys of its two adjacent hops."""
        for index, sub_id in enumerate(active_order):
            sub = self._secondaries[sub_id]
            material = KeyMaterial(
                toward_client=hops[index], toward_server=hops[index + 1]
            )
            sub.engine.send_raw_record(
                ContentType.MBTLS_KEY_MATERIAL, material.encode_payload()
            )
            sub.keys_sent = True
            self._drain_secondary(sub)

    # ------------------------------------------------------- role-specific

    def _open_subchannel(self, encap: EncapsulatedRecord) -> None:
        """The first record on an unknown subchannel arrived."""
        raise NotImplementedError

    def _middlebox_info(self, sub: Subchannel) -> MiddleboxInfo:
        """What is known about a middlebox whose handshake just finished."""
        raise NotImplementedError

    def _on_bypass(self, sub: Subchannel) -> None:
        """A pending subchannel was just excluded (nothing by default)."""

    def _after_records(self) -> None:
        self._check_established()

    def _check_established(self) -> None:
        raise NotImplementedError
