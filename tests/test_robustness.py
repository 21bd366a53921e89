"""Fuzz-style robustness: engines must survive hostile or garbage input by
closing cleanly (or ignoring it), never by raising out of receive_bytes —
during the handshake AND on an established data-phase session."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import MbTLSScenario, identity
from repro.core.config import MbTLSEndpointConfig, MiddleboxConfig, MiddleboxRole
from repro.core.client import MbTLSClientEngine
from repro.core.middlebox import MbTLSMiddlebox
from repro.crypto.drbg import HmacDrbg
from repro.netsim.adversary import MutatingTap
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import ConnectionClosed
from repro.wire.mbtls import EncapsulatedRecord
from repro.wire.records import ContentType, Record


class TestGarbageInput:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(garbage=st.binary(min_size=1, max_size=300))
    def test_tls_server_survives_garbage(self, pki, garbage):
        engine = TLSServerEngine(
            TLSConfig(rng=HmacDrbg(garbage[:8].ljust(8, b"\x00")),
                      credential=pki.credential("server"))
        )
        engine.start()
        engine.receive_bytes(garbage)  # must not raise
        engine.data_to_send()

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(garbage=st.binary(min_size=1, max_size=300))
    def test_tls_client_survives_garbage(self, pki, garbage):
        engine = TLSClientEngine(
            TLSConfig(rng=HmacDrbg(b"fuzz"), trust_store=pki.trust,
                      server_name="server")
        )
        engine.start()
        engine.data_to_send()
        engine.receive_bytes(garbage)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(garbage=st.binary(min_size=1, max_size=300))
    def test_mbtls_client_survives_garbage(self, pki, garbage):
        engine = MbTLSClientEngine(
            MbTLSEndpointConfig(
                tls=TLSConfig(rng=HmacDrbg(b"fuzz"), trust_store=pki.trust,
                              server_name="server"),
            )
        )
        engine.start()
        engine.data_to_send()
        engine.receive_bytes(garbage)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        garbage=st.binary(min_size=1, max_size=300),
        side=st.sampled_from(["down", "up"]),
    )
    def test_middlebox_survives_garbage(self, pki, garbage, side):
        middlebox = MbTLSMiddlebox(
            MiddleboxConfig(
                name="m",
                tls=TLSConfig(rng=HmacDrbg(b"fuzz"),
                              credential=pki.credential("m")),
                role=MiddleboxRole.CLIENT_SIDE,
            ),
            destination="server",
        )
        if side == "down":
            middlebox.receive_down(garbage)
        else:
            middlebox.receive_up(garbage)
        middlebox.data_to_send_down()
        middlebox.data_to_send_up()


class TestHostileRecords:
    def _record_strategy(self):
        return st.builds(
            Record,
            content_type=st.sampled_from(list(ContentType)),
            payload=st.binary(max_size=200),
        )

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(records=st.lists(st.builds(
        Record,
        content_type=st.sampled_from(list(ContentType)),
        payload=st.binary(max_size=200),
    ), min_size=1, max_size=5))
    def test_server_survives_arbitrary_record_sequences(self, pki, records):
        engine = TLSServerEngine(
            TLSConfig(rng=HmacDrbg(b"records"), credential=pki.credential("server"))
        )
        engine.start()
        for record in records:
            engine.receive_bytes(record.encode())
            engine.data_to_send()

    def test_established_session_survives_injected_record_storm(self, rng, pki):
        scenario = MbTLSScenario(
            pki, rng,
            mbox_specs=[("proxy", MiddleboxRole.CLIENT_SIDE, identity, {})],
            server_kind="tls",
        ).run_client(b"PING")
        client = scenario.client_engine
        storm_rng = HmacDrbg(b"storm")
        for _ in range(50):
            content_type = storm_rng.choice(
                [ContentType.APPLICATION_DATA, ContentType.ALERT,
                 ContentType.MBTLS_ENCAPSULATED]
            )
            payload = storm_rng.random_bytes(storm_rng.randint_range(1, 60))
            if content_type == ContentType.MBTLS_ENCAPSULATED:
                payload = bytes([storm_rng.randint_range(0, 255)]) + Record(
                    ContentType.HANDSHAKE, payload
                ).encode()
            client.receive_bytes(Record(content_type, payload).encode())
        # The genuine session still works after the storm.
        if not client.closed:
            scenario.client_driver.send_application_data(b"alive")
            scenario.network.sim.run()
            assert b"alive" in scenario.server_received[-1]


class TestEstablishedSessionRobustness:
    """Data-phase robustness: hostile bytes on a live session must end in a
    clean close or a dropped record — never an uncaught exception."""

    def _established(self, pki, rng):
        return MbTLSScenario(
            pki, rng,
            mbox_specs=[("proxy", MiddleboxRole.CLIENT_SIDE, identity, {})],
        ).run_client(b"PING")

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.data_too_large,
        ],
    )
    @given(garbage=st.binary(min_size=1, max_size=120))
    def test_garbage_on_established_subchannel(self, pki, garbage):
        """Garbage wrapped on the middlebox's live subchannel: the
        secondary engine absorbs or closes; the client never raises."""
        scenario = self._established(pki, HmacDrbg(garbage[:16].ljust(4, b"\0")))
        client = scenario.client_engine
        subchannel_id = next(iter(client._secondaries))
        hostile = EncapsulatedRecord(
            subchannel_id=subchannel_id,
            inner=Record(ContentType.HANDSHAKE, garbage),
        )
        client.receive_bytes(hostile.to_record().encode())  # must not raise
        client.data_to_send()

    def test_corrupted_ciphertext_is_dropped_not_fatal(self, pki, rng):
        """Flip a ciphertext byte of the server's reply: the client's AEAD
        rejects the record, drops it, and the session stays usable."""
        scenario = self._established(pki, rng)
        stream = scenario.network.streams[0]  # client <-> mb0 segment

        class FlipPayloadByte(MutatingTap):
            def process(self, sender, data, stream):
                if self.mutations >= 1 or sender.name != "mb0" or len(data) < 10:
                    return data
                self.mutations += 1
                index = len(data) // 2  # inside the ciphertext, not the header
                return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1:]

        stream.add_tap(FlipPayloadByte(mutate=lambda d: d))
        scenario.client_driver.send_application_data(b"probe")
        scenario.network.sim.run()  # must not raise out of the event loop
        client = scenario.client_engine
        assert not client.closed
        assert client.records_dropped >= 1
        # A later, untampered exchange still goes through.
        stream.taps.clear()
        scenario.client_driver.send_application_data(b"again")
        scenario.network.sim.run()
        assert b"again" in scenario.server_received[-1]

    def test_corrupted_record_header_closes_cleanly(self, pki, rng):
        """Flip the record-header byte: framing breaks; the client must
        close with a clean ConnectionClosed, never an exception."""
        scenario = self._established(pki, rng)
        stream = scenario.network.streams[0]

        class FlipHeaderByte(MutatingTap):
            def process(self, sender, data, stream):
                if self.mutations >= 1 or sender.name != "mb0" or not data:
                    return data
                self.mutations += 1
                return bytes([data[0] ^ 0xFF]) + data[1:]

        stream.add_tap(FlipHeaderByte(mutate=lambda d: d))
        before_events = len(scenario.events)
        scenario.client_driver.send_application_data(b"probe")
        scenario.network.sim.run()  # must not raise out of the event loop
        client = scenario.client_engine
        assert client.closed
        assert any(
            isinstance(e, ConnectionClosed)
            for e in scenario.events[before_events:]
        )

    def test_half_open_close_propagates_through_middlebox(self, pki, rng):
        """Abruptly closing the client's socket (no TLS goodbye) must shut
        down the onward segment with a clean close_notify, not leave the
        server half-open forever."""
        scenario = self._established(pki, rng)
        mb_driver = scenario.services[0].drivers[0]
        scenario.client_driver.socket.close()
        scenario.network.sim.run()
        assert mb_driver.engine.closed
        assert mb_driver.up is not None and mb_driver.up.closed
        assert scenario.services[0].drivers == []  # forgotten once closed
        closes = [
            e for e in scenario.server_events if isinstance(e, ConnectionClosed)
        ]
        assert closes and closes[-1].error is None  # close_notify, not a hang

    def test_service_forgets_closed_connections_without_a_poll(self, pki, rng):
        """A middlebox service drops a connection's driver when both of its
        segments close, not on the next backpressure poll."""
        scenario = self._established(pki, rng)
        service = scenario.services[0]
        assert len(service.drivers) == 1
        service.max_outbox_fill()
        scenario.client_driver.socket.close()
        scenario.network.sim.run()
        assert service.drivers == []
        assert service.max_outbox_fill() == 0.0
        # Drained counts connections live at the last poll or opened since;
        # this one closed before the poll above.
        assert service.drain_sessions() == 0

    def test_drain_counts_connections_closed_since_the_last_poll(self, pki, rng):
        scenario = self._established(pki, rng)
        service = scenario.services[0]
        scenario.client_driver.socket.close()
        scenario.network.sim.run()
        assert service.drivers == []
        assert service.drain_sessions() == 1
        assert service.drain_sessions() == 0

    def test_server_side_close_propagates_down(self, pki, rng):
        """Server host dies abruptly: the middlebox must notice its upstream
        socket reset and hand the client a clean close_notify."""
        scenario = self._established(pki, rng)
        mb_driver = scenario.services[0].drivers[0]
        scenario.network.crash_host("server")
        scenario.network.sim.run()
        assert mb_driver.engine.closed
        assert mb_driver.down.closed
        closes = [e for e in scenario.events if isinstance(e, ConnectionClosed)]
        assert closes and closes[-1].error is None
