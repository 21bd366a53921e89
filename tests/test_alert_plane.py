"""The alert plane: wire round-trips and hop-by-hop fatal propagation.

Two layers. The wire layer: :class:`repro.wire.alerts.Alert` must encode
and decode every description, at both levels, with and without the
origin-attribution extension. The session layer: a tampered record on an
interior hop of a two-middlebox mbTLS path must tear down *every* party —
client, both middleboxes, server — each attributing the abort to the hop
that detected the damage, with nobody left half-open.
"""

from __future__ import annotations

import pytest

from helpers import MbTLSScenario, identity
from repro.core.config import MiddleboxRole
from repro.tls.events import ConnectionClosed
from repro.errors import DecodeError, SessionAborted
from repro.netsim.adversary import GlobalAdversary, MutatingTap
from repro.wire.alerts import Alert, AlertDescription, AlertLevel


# ---------------------------------------------------------------------------
# Wire layer
# ---------------------------------------------------------------------------


class TestAlertWire:
    @pytest.mark.parametrize("description", list(AlertDescription))
    @pytest.mark.parametrize("level", list(AlertLevel))
    def test_round_trip_every_description(self, level, description):
        alert = Alert(level=level, description=description)
        assert Alert.decode(alert.encode()) == alert
        assert alert.encode() == bytes([level, description])  # classic form

    @pytest.mark.parametrize("description", list(AlertDescription))
    def test_round_trip_with_origin(self, description):
        alert = Alert.fatal(description, origin="mb1")
        decoded = Alert.decode(alert.encode())
        assert decoded == alert
        assert decoded.origin == "mb1"
        assert decoded.is_fatal

    def test_classic_two_byte_form_decodes_with_empty_origin(self):
        decoded = Alert.decode(b"\x02\x14")
        assert decoded.level is AlertLevel.FATAL
        assert decoded.description is AlertDescription.BAD_RECORD_MAC
        assert decoded.origin == ""

    def test_from_name_round_trips_every_description(self):
        for description in AlertDescription:
            assert AlertDescription.from_name(description.name.lower()) is description
        assert (
            AlertDescription.from_name("no_such_alert")
            is AlertDescription.INTERNAL_ERROR
        )

    def test_malformed_alerts_raise_decode_error(self):
        for blob in (b"", b"\x02", b"\x09\x14", b"\x02\xfe", b"\x02\x14\x05mb"):
            with pytest.raises(DecodeError):
                Alert.decode(blob)


# ---------------------------------------------------------------------------
# Session layer
# ---------------------------------------------------------------------------


class FlipCiphertextByte(MutatingTap):
    """One-shot: corrupt the first data record a given hop sends."""

    def __init__(self, sender: str):
        super().__init__(mutate=lambda d: d)
        self.sender = sender

    def process(self, sender, data, stream):
        if self.mutations >= 1 or sender.name != self.sender or len(data) < 10:
            return data
        if data[:1] != b"\x17":  # only application-data records
            return data
        self.mutations += 1
        index = len(data) // 2  # inside the ciphertext, not the header
        return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1 :]


class TestHopByHopTeardown:
    def test_bad_record_mac_mid_path_tears_down_every_hop(self, pki, rng):
        """Tamper the mb0->mb1 segment of an established two-middlebox
        session: mb1's per-hop MAC detects it, and under
        ``tamper_policy="abort"`` the resulting fatal ``bad_record_mac``
        sweeps the whole path in both directions, attributed to mb1."""
        abort_kwargs = {"tamper_policy": "abort"}
        scenario = MbTLSScenario(
            pki,
            rng,
            mbox_specs=[
                ("mb0", MiddleboxRole.CLIENT_SIDE, identity, {}),
                ("mb1", MiddleboxRole.CLIENT_SIDE, identity, {}),
            ],
            client_config_kwargs=abort_kwargs,
            server_config_kwargs=abort_kwargs,
            mbox_config_kwargs=abort_kwargs,
        )
        adversary = GlobalAdversary(scenario.network)
        scenario.run_client(b"PING")
        assert scenario.server_received == [b"PING"]  # established + clean
        # Services forget a connection once it closes: take the engines now.
        mb0 = scenario.middlebox_engine(0)
        mb1 = scenario.middlebox_engine(1)

        tap = FlipCiphertextByte(sender="mb0")
        adversary.add_tap_between("mb0", "mb1", tap)
        scenario.client_driver.send_application_data(b"doomed")
        scenario.network.sim.run()
        assert tap.mutations == 1

        # The detecting hop attributes itself...
        assert isinstance(mb1.abort, SessionAborted)
        assert mb1.abort.origin == "mb1"
        assert mb1.abort.alert == "bad_record_mac"

        # ...and the abort reaches both endpoints with attribution intact.
        client = scenario.client_engine
        assert isinstance(client.abort, SessionAborted)
        assert client.abort.origin == "mb1"
        assert client.abort.alert == "bad_record_mac"
        closures = [e for e in scenario.events if isinstance(e, ConnectionClosed)]
        assert any(
            e.alert == "bad_record_mac" and e.origin == "mb1" for e in closures
        )
        server_closures = [
            e for e in scenario.server_events if isinstance(e, ConnectionClosed)
        ]
        assert any(
            e.alert == "bad_record_mac" and e.origin == "mb1"
            for e in server_closures
        )

        # Nobody is left half-open: the alert swept every hop.
        assert client.closed
        assert mb0.closed
        assert mb1.closed
        assert all(not service.drivers for service in scenario.services)
        assert mb0.abort is not None
        assert mb0.abort.origin == "mb1"

    def test_default_policy_drops_instead_of_aborting(self, pki, rng):
        """Without ``tamper_policy="abort"`` the same tampering is absorbed:
        the record is dropped and the session survives (the pinned P2/P4
        default) — the abort path is strictly opt-in."""
        scenario = MbTLSScenario(
            pki,
            rng,
            mbox_specs=[
                ("mb0", MiddleboxRole.CLIENT_SIDE, identity, {}),
                ("mb1", MiddleboxRole.CLIENT_SIDE, identity, {}),
            ],
        )
        adversary = GlobalAdversary(scenario.network)
        scenario.run_client(b"PING")

        # Tamper the s2c direction: mb1's sends on the mb0<->mb1 segment.
        tap = FlipCiphertextByte(sender="mb1")
        adversary.add_tap_between("mb0", "mb1", tap)
        scenario.client_driver.send_application_data(b"swallowed")
        scenario.network.sim.run()
        assert tap.mutations == 1

        mb0 = scenario.middlebox_engine(0)
        assert mb0.records_dropped >= 1  # detected, absorbed
        assert mb0.abort is None
        assert scenario.middlebox_engine(1).abort is None
        assert not scenario.client_engine.closed
        # The untampered direction keeps flowing.
        scenario.client_driver.send_application_data(b"alive")
        scenario.network.sim.run()
        assert scenario.server_received[-1] == b"alive"
