"""Table 1 as executable scenarios: concrete attacks against TLS, mbTLS,
and the baselines, each returning whether the attack was *defended*.

Every row of the paper's threat/defense matrix maps to a function here.
The security test-suite asserts each outcome; the Table 1 benchmark prints
the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.baselines.shared_key import KeySharingService
from repro.bench.fuzzing import leaks, one_hop_tap
from repro.core.config import (
    MbTLSEndpointConfig,
    MiddleboxConfig,
    MiddleboxRejected,
    MiddleboxRole,
    SessionEstablished,
)
from repro.core.drivers import MiddleboxService, open_mbtls, serve_mbtls
from repro.crypto.drbg import HmacDrbg
from repro.io import HopChain
from repro.netsim.adversary import GlobalAdversary
from repro.netsim.driver import EngineDriver
from repro.netsim.network import Network
from repro.pki.authority import CertificateAuthority
from repro.pki.store import TrustStore
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveCode, Platform
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import ApplicationData, HandshakeComplete
from repro.wire.records import ContentType, RecordBuffer

__all__ = ["ThreatOutcome", "Scenario", "run_all_threats", "THREATS"]

SECRET_REQUEST = b"GET /secret-token-ABC123 HTTP/1.1\r\n\r\n"
SECRET_RESPONSE = b"the-response-payload-XYZ789"


@dataclass(frozen=True)
class ThreatOutcome:
    threat: str
    protocol: str
    defended: bool
    mechanism: str


class Scenario:
    """A client / middlebox-host / server network with a global adversary."""

    def __init__(self, seed: bytes) -> None:
        self.rng = HmacDrbg(seed)
        self.ca = CertificateAuthority("root", self.rng.fork(b"ca"))
        self.trust = TrustStore([self.ca.certificate])
        self.server_cred = self.ca.issue_credential("server")
        self.mbox_cred = self.ca.issue_credential("mbox-svc")
        self.network = Network()
        for name in ("client", "mbox", "server"):
            self.network.add_host(name)
        self.network.add_link("client", "mbox", 0.001)
        self.network.add_link("mbox", "server", 0.001)
        self.adversary = GlobalAdversary(self.network)
        self.client_received: list[bytes] = []
        self.server_received: list[bytes] = []

    # -- deployments -----------------------------------------------------

    def deploy_mbtls(
        self,
        enclave=None,
        on_secret=None,
        verifier=None,
        require_attestation: bool = False,
        allow_fallback: bool = True,
    ):
        service = MiddleboxService(
            self.network.host("mbox"),
            lambda: MiddleboxConfig(
                name="mbox-svc",
                tls=TLSConfig(
                    rng=self.rng.fork(b"mb"),
                    credential=self.mbox_cred,
                    enclave=enclave,
                    on_secret=on_secret,
                ),
                role=MiddleboxRole.CLIENT_SIDE,
            ),
        )
        self._serve_plain_tls()
        events = []

        def on_event(event):
            events.append(event)
            if isinstance(event, SessionEstablished):
                driver.send_application_data(SECRET_REQUEST)
            elif isinstance(event, ApplicationData):
                self.client_received.append(event.data)

        engine, driver = open_mbtls(
            self.network.host("client"),
            "server",
            MbTLSEndpointConfig(
                tls=TLSConfig(
                    rng=self.rng.fork(b"cli"),
                    trust_store=self.trust,
                    server_name="server",
                ),
                middlebox_trust_store=self.trust,
                require_middlebox_attestation=require_attestation,
                middlebox_attestation_verifier=verifier,
                allow_fallback=allow_fallback,
            ),
            on_event=on_event,
        )
        self.client_driver = driver
        self.network.sim.run()
        return engine, service, events

    def _serve_plain_tls(self, credential=None):
        credential = credential or self.server_cred

        def accept(socket, source):
            engine = TLSServerEngine(
                TLSConfig(rng=self.rng.fork(b"srv"), credential=credential)
            )
            engine.origin_label = "server"
            driver = EngineDriver(engine, socket)

            def on_event(event):
                if isinstance(event, ApplicationData):
                    self.server_received.append(event.data)
                    driver.send_application_data(SECRET_RESPONSE)

            driver.on_event = on_event
            driver.start()

        self.network.host("server").listen(443, accept)

    def run_plain_tls_fetch(self):
        self._serve_plain_tls()
        engine = TLSClientEngine(
            TLSConfig(
                rng=self.rng.fork(b"cli"), trust_store=self.trust, server_name="server"
            )
        )
        socket = self.network.host("client").connect("server", 443)

        def on_event(event):
            if isinstance(event, HandshakeComplete):
                driver.send_application_data(SECRET_REQUEST)
            elif isinstance(event, ApplicationData):
                self.client_received.append(event.data)

        driver = EngineDriver(engine, socket, on_event=on_event)
        driver.start()
        self.network.sim.run()
        return engine

    def _serve_mbtls(self, allow_fallback: bool = True):
        """An mbTLS server on ``server``: accepts announcements (§3.4)."""
        self.server_events: list[object] = []

        def on_event(engine, driver, event):
            self.server_events.append(event)
            if isinstance(event, ApplicationData):
                self.server_received.append(event.data)
                driver.send_application_data(SECRET_RESPONSE)

        serve_mbtls(
            self.network.host("server"),
            lambda: MbTLSEndpointConfig(
                tls=TLSConfig(
                    rng=self.rng.fork(b"srv"), credential=self.server_cred
                ),
                middlebox_trust_store=self.trust,
                allow_fallback=allow_fallback,
            ),
            on_event=on_event,
        )

    def open_mbtls_client(self, allow_fallback: bool = True):
        """Dial the mbTLS server from ``client`` and run to quiescence."""
        events: list[object] = []

        def on_event(event):
            events.append(event)
            if isinstance(event, SessionEstablished):
                driver.send_application_data(SECRET_REQUEST)
            elif isinstance(event, ApplicationData):
                self.client_received.append(event.data)

        engine, driver = open_mbtls(
            self.network.host("client"),
            "server",
            MbTLSEndpointConfig(
                tls=TLSConfig(
                    rng=self.rng.fork(b"cli"),
                    trust_store=self.trust,
                    server_name="server",
                ),
                middlebox_trust_store=self.trust,
                allow_fallback=allow_fallback,
            ),
            on_event=on_event,
        )
        self.client_driver = driver
        self.network.sim.run()
        return engine, events

    def deploy_server_side_middlebox(self) -> MiddleboxService:
        """A SERVER_SIDE middlebox on ``mbox`` fronting ``server`` (§3.4)."""
        return MiddleboxService(
            self.network.host("mbox"),
            lambda: MiddleboxConfig(
                name="mbox-svc",
                tls=TLSConfig(
                    rng=self.rng.fork(b"mb"), credential=self.mbox_cred
                ),
                role=MiddleboxRole.SERVER_SIDE,
                served_servers=frozenset({"server"}),
            ),
        )

    # -- adversary helpers -------------------------------------------------

    def attack_hop(self, a: str, b: str, adversary, sender: str):
        """Install a downgrade adversary on the a-b hop before it exists.

        Registered as a new-stream hook so the tap sees the very first
        bytes (the ClientHello) — a wiretap attached after connect would
        miss the negotiation it wants to attack.
        """
        from repro.netsim.downgrade import DowngradeTap

        tap = DowngradeTap(adversary, sender=sender)

        def hook(stream, x, y):
            if {x, y} == {a, b}:
                stream.add_tap(tap)

        self.network.on_new_stream(hook)
        return tap

    def app_records_between(self, a: str, b: str) -> list[bytes]:
        """Encoded APPLICATION_DATA records observed on the a-b stream."""
        wiretap = self.adversary.wiretap_between(a, b)
        buffer = RecordBuffer()
        buffer.feed(wiretap.recorder.all_bytes())
        return [
            record.encode()
            for record in buffer.pop_records()
            if record.content_type == ContentType.APPLICATION_DATA
        ]


# --------------------------------------------------------------------------
# Threat scenarios (one per Table 1 row, per protocol where meaningful).
# --------------------------------------------------------------------------


def wire_secrecy_tls() -> ThreatOutcome:
    scenario = Scenario(b"t1-tls")
    scenario.run_plain_tls_fetch()
    observed = scenario.adversary.observed_bytes()
    defended = SECRET_REQUEST not in observed and SECRET_RESPONSE not in observed
    assert scenario.client_received, "fetch must succeed for the test to count"
    return ThreatOutcome("wire data read by third party", "TLS", defended, "encryption")


def wire_secrecy_mbtls() -> ThreatOutcome:
    scenario = Scenario(b"t1-mbtls")
    scenario.deploy_mbtls()
    observed = scenario.adversary.observed_bytes()
    defended = SECRET_REQUEST not in observed and SECRET_RESPONSE not in observed
    assert scenario.client_received
    return ThreatOutcome("wire data read by third party", "mbTLS", defended, "encryption")


def mip_memory_read(use_enclave: bool) -> ThreatOutcome:
    """Can a malicious MIP read session keys from middlebox memory?"""
    scenario = Scenario(b"t2-%d" % use_enclave)
    attestation = AttestationService(scenario.rng.fork(b"ias"))
    platform = Platform(attestation, malicious=True)
    enclave = platform.launch_enclave(
        EnclaveCode(name="mbox-svc", version="1", image=b"code")
    )
    arena = platform.arena_for(enclave if use_enclave else None)
    scenario.deploy_mbtls(
        enclave=enclave if use_enclave else None, on_secret=arena.store
    )
    assert scenario.client_received
    visible = platform.dump_visible_secrets()
    defended = len(visible) == 0
    label = "mbTLS+SGX" if use_enclave else "mbTLS w/o enclave"
    return ThreatOutcome(
        "session keys read from middlebox memory by MIP",
        label,
        defended,
        "secure execution environment",
    )


def change_secrecy(protocol: str) -> ThreatOutcome:
    """Does an adversary learn whether the middlebox modified a record?

    The middlebox forwards data *unmodified*; the adversary compares the
    encoded APPLICATION_DATA records on the two hops. Identical bytes on
    both hops reveal "not modified" (the naive shared-key design); with
    per-hop keys the ciphertexts are unlinkable.
    """
    scenario = Scenario(b"t4-" + protocol.encode())
    if protocol == "mbtls":
        scenario.deploy_mbtls()
    else:  # shared-key baseline
        service = KeySharingService(scenario.network.host("mbox"))
        scenario._serve_plain_tls()
        engine = TLSClientEngine(
            TLSConfig(
                rng=scenario.rng.fork(b"cli"),
                trust_store=scenario.trust,
                server_name="server",
            )
        )
        socket = scenario.network.host("client").connect("server", 443)

        def on_event(event):
            if isinstance(event, HandshakeComplete):
                suite, key_block = engine.export_key_block()
                service.share_keys(suite.code, key_block)
                driver.send_application_data(SECRET_REQUEST)
            elif isinstance(event, ApplicationData):
                scenario.client_received.append(event.data)

        driver = EngineDriver(engine, socket, on_event=on_event)
        driver.start()
        scenario.network.sim.run()
    assert scenario.client_received
    hop1 = set(scenario.app_records_between("client", "mbox"))
    hop2 = set(scenario.app_records_between("mbox", "server"))
    defended = not (hop1 & hop2)
    label = "mbTLS" if protocol == "mbtls" else "shared-key baseline"
    return ThreatOutcome(
        "modification detectable by comparing hops", label, defended,
        "unique per-hop keys",
    )


def path_skip(protocol: str) -> ThreatOutcome:
    """Make a record skip the middlebox (P4).

    The adversary suppresses a fresh client record on the client-middlebox
    hop and injects the captured original directly on the middlebox-server
    hop. With a shared session key the server accepts it (the sequence
    numbers line up); with unique per-hop keys the MAC check fails.
    """
    from repro.netsim.adversary import DroppingTap

    scenario = Scenario(b"t5-" + protocol.encode())
    if protocol == "mbtls":
        scenario.deploy_mbtls()
        send_second = scenario.client_driver.send_application_data
    else:
        service = KeySharingService(scenario.network.host("mbox"))
        scenario._serve_plain_tls()
        engine = TLSClientEngine(
            TLSConfig(
                rng=scenario.rng.fork(b"cli"),
                trust_store=scenario.trust,
                server_name="server",
            )
        )
        socket = scenario.network.host("client").connect("server", 443)

        def on_event(event):
            if isinstance(event, HandshakeComplete):
                suite, key_block = engine.export_key_block()
                service.share_keys(suite.code, key_block)
                driver.send_application_data(SECRET_REQUEST)
            elif isinstance(event, ApplicationData):
                scenario.client_received.append(event.data)

        driver = EngineDriver(engine, socket, on_event=on_event)
        driver.start()
        scenario.network.sim.run()
        send_second = driver.send_application_data
    assert scenario.client_received
    server_count_before = len(scenario.server_received)

    # Suppress the next client data record on hop 1 (but the wiretap's
    # recorder, installed first, still captures it).
    hop1 = scenario.adversary.wiretap_between("client", "mbox")
    captured_before = len(hop1.recorder.captures)
    hop1.stream.add_tap(
        DroppingTap(should_drop=lambda data: data[:1] == b"\x17", limit=1)
    )
    send_second(b"SECOND-REQUEST")
    scenario.network.sim.run()
    suppressed = [
        capture.data
        for capture in hop1.recorder.captures[captured_before:]
        if capture.data[:1] == b"\x17"
    ]
    assert suppressed, "the second record must have been captured"
    assert len(scenario.server_received) == server_count_before

    # Inject the captured original straight onto the server hop.
    hop2 = scenario.adversary.wiretap_between("mbox", "server")
    hop2.inject_toward("server", suppressed[0])
    scenario.network.sim.run()
    delivered = len(scenario.server_received) > server_count_before
    defended = not delivered
    label = "mbTLS" if protocol == "mbtls" else "shared-key baseline"
    return ThreatOutcome(
        "record skips the middlebox (path integrity)", label, defended,
        "unique per-hop keys",
    )


def wire_tamper_mbtls() -> ThreatOutcome:
    """Flip ciphertext bits on the wire; the endpoint must never deliver
    corrupted plaintext."""
    scenario = Scenario(b"t6")
    engine, service, _ = scenario.deploy_mbtls()
    # Tamper with a fresh data record on the mbox-server hop (server-bound).
    wiretap = scenario.adversary.wiretap_between("mbox", "server")
    before = len(scenario.server_received)
    records = scenario.app_records_between("client", "mbox")
    tampered = bytearray(records[0])
    tampered[-1] ^= 0xFF
    wiretap.inject_toward("server", bytes(tampered))
    scenario.network.sim.run()
    # Nothing new delivered, and everything delivered so far is untampered.
    defended = len(scenario.server_received) == before and all(
        data == SECRET_REQUEST for data in scenario.server_received
    )
    return ThreatOutcome(
        "records modified/injected on the wire", "mbTLS", defended, "AEAD MACs"
    )


def replay_mbtls() -> ThreatOutcome:
    """Replay a legitimate record on its own hop: sequence binding rejects it."""
    scenario = Scenario(b"t7")
    scenario.deploy_mbtls()
    records = scenario.app_records_between("client", "mbox")
    wiretap = scenario.adversary.wiretap_between("client", "mbox")
    before = len(scenario.server_received)
    wiretap.inject_toward("mbox", records[0])
    scenario.network.sim.run()
    defended = len(scenario.server_received) == before
    return ThreatOutcome(
        "record replayed on its own hop", "mbTLS", defended,
        "sequence-bound AEAD",
    )


def impersonate_server() -> ThreatOutcome:
    """A server with a certificate from an untrusted CA must be rejected."""
    scenario = Scenario(b"t8")
    rogue_ca = CertificateAuthority("rogue", scenario.rng.fork(b"rogue"))
    rogue_cred = rogue_ca.issue_credential("server")
    scenario._serve_plain_tls(credential=rogue_cred)
    engine = TLSClientEngine(
        TLSConfig(
            rng=scenario.rng.fork(b"cli"), trust_store=scenario.trust,
            server_name="server",
        )
    )
    socket = scenario.network.host("client").connect("server", 443)
    driver = EngineDriver(engine, socket)
    driver.start()
    scenario.network.sim.run()
    defended = not engine.handshake_complete
    return ThreatOutcome(
        "key established with impostor server", "TLS/mbTLS", defended, "certificates"
    )


def impersonate_middlebox() -> ThreatOutcome:
    """A middlebox presenting an untrusted certificate must not get keys."""
    scenario = Scenario(b"t9")
    rogue_ca = CertificateAuthority("rogue", scenario.rng.fork(b"rogue"))
    scenario.mbox_cred = rogue_ca.issue_credential("mbox-svc")
    engine, service, events = scenario.deploy_mbtls()
    rejected = any(isinstance(event, MiddleboxRejected) for event in events)
    mbox_engine = service.drivers[0].engine
    defended = rejected and not mbox_engine.joined
    return ThreatOutcome(
        "middlebox operated by wrong MSP", "mbTLS", defended, "certificates"
    )


def wrong_middlebox_code() -> ThreatOutcome:
    """A malicious MIP substitutes the middlebox code image."""
    scenario = Scenario(b"t10")
    attestation = AttestationService(scenario.rng.fork(b"ias"))
    platform = Platform(attestation, malicious=True)
    good_code = EnclaveCode(name="mbox-svc", version="1", image=b"good")
    platform.plant_code_substitution(
        EnclaveCode(name="mbox-svc", version="1", image=b"evil")
    )
    enclave = platform.launch_enclave(good_code)
    verifier = attestation.verifier({good_code.measurement})
    engine, service, events = scenario.deploy_mbtls(
        enclave=enclave, verifier=verifier, require_attestation=True
    )
    rejected = any(isinstance(event, MiddleboxRejected) for event in events)
    defended = rejected and not service.drivers[0].engine.joined
    return ThreatOutcome(
        "wrong middlebox software (code identity)", "mbTLS", defended,
        "remote attestation",
    )


def forward_secrecy() -> ThreatOutcome:
    """Ephemeral key exchange: two sessions share no key material, and the
    server's long-term key never encrypts session data."""
    outcomes = []
    for run in range(2):
        scenario = Scenario(b"t11-%d" % run)
        engine = scenario.run_plain_tls_fetch()
        outcomes.append(engine.master_secret)
    defended = outcomes[0] != outcomes[1] and all(outcomes)
    return ThreatOutcome(
        "old sessions decrypted after key compromise", "TLS/mbTLS", defended,
        "ephemeral key exchange",
    )


def downgrade_strip_support() -> ThreatOutcome:
    """An on-path box strips the MiddleboxSupport extension (MAMI-style
    negotiation stripping). The middlebox quietly demotes to a relay, but
    the endpoints' Finished exchange hashes the *original* hello, so the
    session dies with an origin-attributed alert instead of silently
    proceeding without mbTLS."""
    from repro.netsim.downgrade import DowngradeAdversary

    scenario = Scenario(b"d1")
    scenario.attack_hop(
        "client", "mbox", DowngradeAdversary(b"d1", 0, "strip_support"), "client"
    )
    engine, service, events = scenario.deploy_mbtls()
    abort = engine.abort
    defended = (
        not engine.established
        and abort is not None
        and abort.alert == "decrypt_error"
        and abort.origin == "server"
    )
    return ThreatOutcome(
        "MiddleboxSupport stripped by on-path box", "mbTLS", defended,
        "handshake transcript binding",
    )


def downgrade_forge_announcement() -> ThreatOutcome:
    """An adversary injects a forged MiddleboxAnnouncement toward the
    server. The announcement alone confers nothing: the forger cannot
    complete the secondary handshake, so it is visibly rejected and the
    session establishes without it."""
    from repro.netsim.downgrade import DowngradeAdversary

    scenario = Scenario(b"d2")
    adversary = DowngradeAdversary(b"d2", 4, "forge_announcement")
    scenario.attack_hop("client", "server", adversary, "client")
    scenario._serve_mbtls()
    engine, events = scenario.open_mbtls_client()
    rejected = [e for e in events if isinstance(e, MiddleboxRejected)]
    rejected += [
        e for e in scenario.server_events if isinstance(e, MiddleboxRejected)
    ]
    defended = (
        bool(adversary.applied)
        and engine.established
        and engine.middleboxes == ()
        and bool(rejected)
        and SECRET_REQUEST in scenario.server_received
    )
    return ThreatOutcome(
        "forged middlebox announcement injected", "mbTLS", defended,
        "announcements confer nothing without a secondary handshake",
    )


def downgrade_replay_announcement() -> ThreatOutcome:
    """Replay the byte-identical announcement captured from a prior
    session. Session 1 runs a genuine server-side middlebox and the
    adversary records its announcement off the wire; session 2 replays
    those exact bytes — and the replayed announcer still cannot join."""
    from repro.netsim.downgrade import DowngradeAdversary, forged_announcement_bytes
    from repro.wire.mbtls import EncapsulatedRecord

    # Session 1: a genuine announcement crosses the mbox-server hop.
    capture = Scenario(b"d3-capture")
    capture.deploy_server_side_middlebox()
    capture._serve_mbtls()
    capture.open_mbtls_client()
    announced = []
    buffer = RecordBuffer()
    wiretap = capture.adversary.wiretap_between("mbox", "server")
    buffer.feed(
        b"".join(
            c.data for c in wiretap.recorder.captures if c.sender == "mbox"
        )
    )
    for record in buffer.pop_records():
        if record.content_type == ContentType.MBTLS_ENCAPSULATED:
            encap = EncapsulatedRecord.from_record(record)
            if encap.inner.content_type == ContentType.MBTLS_MIDDLEBOX_ANNOUNCEMENT:
                announced.append(record.encode())
    # The announcement body is empty, so the capture is byte-identical to
    # what the replay adversary injects — a true prior-session replay.
    replay_is_faithful = bool(announced) and announced[0] == (
        forged_announcement_bytes(1)
    )

    # Session 2: no middlebox anywhere; the adversary replays the capture.
    scenario = Scenario(b"d3")
    adversary = DowngradeAdversary(b"d3", 5, "replay_announcement")
    scenario.attack_hop("client", "server", adversary, "client")
    scenario._serve_mbtls()
    engine, events = scenario.open_mbtls_client()
    rejected = [e for e in events if isinstance(e, MiddleboxRejected)]
    defended = (
        replay_is_faithful
        and bool(adversary.applied)
        and engine.established
        and engine.middleboxes == ()
        and bool(rejected)
    )
    return ThreatOutcome(
        "prior-session announcement replayed", "mbTLS", defended,
        "secondary handshake freshness",
    )


def downgrade_suppress_announcement() -> ThreatOutcome:
    """Delete a genuine middlebox's announcements so it looks unanswered.
    The legacy fallback (§3.4) means the session survives without the
    middlebox — the defense is that the downgrade is *accounted*: the
    middlebox records a ``session.fallback`` decision instead of the
    weaker path passing for the full-strength one."""
    from repro.netsim.downgrade import DowngradeAdversary

    with obs.scoped() as plane:
        scenario = Scenario(b"d4")
        adversary = DowngradeAdversary(b"d4", 6, "suppress_announcement")
        scenario.attack_hop("mbox", "server", adversary, "mbox")
        service = scenario.deploy_server_side_middlebox()
        scenario._serve_mbtls()
        engine, events = scenario.open_mbtls_client()
        mbox_engine = service.drivers[0].engine
        accounted = plane.metrics.counter_value(
            "session.fallback", party="mbox-svc", reason="announcement_unanswered"
        )
    defended = (
        bool(adversary.applied)
        and engine.established
        and engine.middleboxes == ()
        and mbox_engine.gave_up
        and accounted >= 1
        and SECRET_REQUEST in scenario.server_received
    )
    return ThreatOutcome(
        "middlebox announcements suppressed", "mbTLS", defended,
        "fallback accounting (session.fallback counter)",
    )


def downgrade_forced_fallback() -> ThreatOutcome:
    """Corrupt the middlebox's secondary handshake to force the client
    toward a weaker party set. With ``allow_fallback=False`` the endpoint
    refuses to establish on the degraded path: the attacker gets a dead
    session, not a quietly weakened one."""
    from repro.netsim.downgrade import DowngradeAdversary

    scenario = Scenario(b"d5")
    adversary = DowngradeAdversary(b"d5", 7, "corrupt_secondary")
    scenario.attack_hop("client", "mbox", adversary, "mbox")
    engine, service, events = scenario.deploy_mbtls(allow_fallback=False)
    abort = engine.abort
    defended = (
        bool(adversary.applied)
        and not engine.established
        and bool(engine.fallback_decisions)
        and abort is not None
        and abort.alert == "insufficient_security"
        and abort.origin == "client"
    )
    return ThreatOutcome(
        "forced fallback to a weaker party set", "mbTLS", defended,
        "fail-closed fallback policy (insufficient_security)",
    )


# -- mdTLS proxy-signature rows (arXiv 2306.03573) -----------------------


def _mdtls_chain(seed: bytes, now: float = 0.0):
    """A client / one-middlebox / server mdTLS trio with its own PKI.

    Returns ``(deployment, client, mbox, server, creds)`` where ``creds``
    maps subject name to its issued credential (for forging material).
    """
    from repro.baselines.mdtls import MdTLSDeployment

    rng = HmacDrbg(seed)
    ca = CertificateAuthority("root", rng.fork(b"ca"))
    trust = TrustStore([ca.certificate])
    creds = {
        name: ca.issue_credential(name, now=now)
        for name in ("client", "server", "mbox")
    }
    deployment = MdTLSDeployment(
        rng=rng.fork(b"deploy"),
        trust_store=trust,
        client_credential=creds["client"],
        server_credential=creds["server"],
        middleboxes=[("mbox", creds["mbox"])],
        now=now,
    )
    return (
        deployment,
        deployment.build_client(),
        deployment.build_middlebox(0),
        deployment.build_server(),
        creds,
    )


def _pump_mdtls(client, mbox, server, direction: str, rewrite) -> HopChain:
    """Drive the trio to quiescence, rewriting the client's hop one way.

    The rows read their outcome off the parties' aborts; a crash the chain
    recorded (:func:`~repro.bench.fuzzing.leaks`) makes a row undefended.
    """
    chain = HopChain(client, [mbox], server, one_hop_tap(0, direction, rewrite))
    chain.start()
    chain.pump()
    return chain


def _rewrite_first_hello(data: bytes, rewrite_warrant):
    """Rewrite the delegation warrants riding a flight's ClientHello."""
    from repro.wire.extensions import ExtensionType
    from repro.wire.handshake import ClientHello, Handshake, HandshakeBuffer, HandshakeType
    from repro.wire.mdtls import DelegationCertificateExtension
    from repro.wire.records import Record

    buffer = RecordBuffer()
    buffer.feed(data)
    out = bytearray()
    for record in buffer.pop_records():
        if record.content_type == ContentType.HANDSHAKE:
            handshakes = HandshakeBuffer()
            handshakes.feed(record.payload)
            messages = handshakes.pop_messages()
            if messages and messages[0].msg_type == HandshakeType.CLIENT_HELLO:
                hello = ClientHello.decode_body(messages[0].body)
                extension = hello.find_extension(
                    ExtensionType.DELEGATION_CERTIFICATE
                )
                batch = DelegationCertificateExtension.from_extension(extension)
                forged = DelegationCertificateExtension(
                    tuple(rewrite_warrant(w) for w in batch.warrants)
                ).to_extension()
                hello = ClientHello(
                    random=hello.random,
                    session_id=hello.session_id,
                    cipher_suites=hello.cipher_suites,
                    extensions=tuple(
                        forged
                        if e.extension_type == ExtensionType.DELEGATION_CERTIFICATE
                        else e
                        for e in hello.extensions
                    ),
                    version=hello.version,
                )
                rebuilt = Handshake(
                    msg_type=HandshakeType.CLIENT_HELLO, body=hello.encode_body()
                ).encode() + b"".join(m.encode() for m in messages[1:])
                record = Record(
                    content_type=ContentType.HANDSHAKE,
                    payload=rebuilt,
                    version=record.version,
                )
        out += record.encode()
    return bytes(out)


def _rewrite_proxy_signatures(data: bytes, forge_signature):
    """Replace every s2c ProxySignature's signature bytes in a flight."""
    from repro.wire.handshake import Handshake, HandshakeBuffer, HandshakeType
    from repro.wire.mdtls import ProxySignature
    from repro.wire.records import Record

    buffer = RecordBuffer()
    buffer.feed(data)
    out = bytearray()
    for record in buffer.pop_records():
        if record.content_type == ContentType.HANDSHAKE:
            handshakes = HandshakeBuffer()
            handshakes.feed(record.payload)
            rebuilt = b""
            for message in handshakes.pop_messages():
                if message.msg_type == HandshakeType.MDTLS_PROXY_SIGNATURE:
                    signature = ProxySignature.decode_body(message.body)
                    message = Handshake(
                        msg_type=HandshakeType.MDTLS_PROXY_SIGNATURE,
                        body=ProxySignature(
                            middlebox=signature.middlebox,
                            direction=signature.direction,
                            signature=forge_signature(signature),
                        ).encode_body(),
                    )
                rebuilt += message.encode()
            record = Record(
                content_type=ContentType.HANDSHAKE,
                payload=rebuilt,
                version=record.version,
            )
        out += record.encode()
    return bytes(out)


def mdtls_expired_warrant() -> ThreatOutcome:
    """An honestly-signed but expired delegation warrant rides the hello.

    The forger re-issues the warrant with the client's own (compromised or
    coerced) delegator key, so the signature verifies — only the validity
    window has lapsed. Every warrant-checking party must still refuse it."""
    from dataclasses import replace as _replace

    deployment, client, mbox, server, creds = _mdtls_chain(b"md-t1", now=5000.0)

    def expire(warrant):
        stale = _replace(warrant, not_before=0.0, not_after=1.0)
        return _replace(
            stale, signature=creds["client"].private_key.sign(stale.tbs_bytes())
        )

    chain = _pump_mdtls(
        client, mbox, server, "c2s",
        lambda data: _rewrite_first_hello(data, expire),
    )
    aborted = [
        party.abort for party in (mbox, server, client) if party.abort is not None
    ]
    defended = (
        not client.established
        and any(abort.alert == "certificate_expired" for abort in aborted)
        and not leaks(chain)
    )
    return ThreatOutcome(
        "expired delegation warrant presented", "mdTLS", defended,
        "delegation validity window",
    )


def mdtls_unwarranted_proxy_signature() -> ThreatOutcome:
    """A proxy signature produced by a key the warrant does not bind."""
    deployment, client, mbox, server, creds = _mdtls_chain(b"md-t2")
    rng = HmacDrbg(b"md-t2-rogue")
    from repro.crypto.rsa import generate_rsa_key

    rogue = generate_rsa_key(1024, rng)
    chain = _pump_mdtls(
        client, mbox, server, "s2c",
        lambda data: _rewrite_proxy_signatures(
            data, lambda sig: rogue.sign(b"rogue attestation of " + sig.middlebox.encode())
        ),
    )
    defended = (
        not client.established
        and client.abort is not None
        and client.abort.alert == "decrypt_error"
        and not leaks(chain)
    )
    return ThreatOutcome(
        "proxy signature by unwarranted key", "mdTLS", defended,
        "warrant key binding",
    )


def mdtls_truncated_transcript_signature() -> ThreatOutcome:
    """The warranted key signs a *truncated* transcript: a middlebox (or an
    adversary holding its key) vouches for less than the full handshake.
    The client recomputes the hash over everything it sent and received, so
    coverage gaps are indistinguishable from forgery."""
    import hashlib

    from repro.wire.mdtls import ProxySignature

    deployment, client, mbox, server, creds = _mdtls_chain(b"md-t3")
    truncated = hashlib.sha256(b"prefix of the real transcript").digest()
    mbox_key = creds["mbox"].private_key
    chain = _pump_mdtls(
        client, mbox, server, "s2c",
        lambda data: _rewrite_proxy_signatures(
            data,
            lambda sig: mbox_key.sign(
                ProxySignature.signed_payload(sig.direction, truncated)
            ),
        ),
    )
    defended = (
        not client.established
        and client.abort is not None
        and client.abort.alert == "decrypt_error"
        and not leaks(chain)
    )
    return ThreatOutcome(
        "proxy signature over truncated transcript", "mdTLS", defended,
        "proxy-signature transcript binding",
    )


THREATS = [
    wire_secrecy_tls,
    wire_secrecy_mbtls,
    lambda: mip_memory_read(use_enclave=True),
    lambda: mip_memory_read(use_enclave=False),
    lambda: change_secrecy("mbtls"),
    lambda: change_secrecy("shared"),
    lambda: path_skip("mbtls"),
    lambda: path_skip("shared"),
    wire_tamper_mbtls,
    replay_mbtls,
    impersonate_server,
    impersonate_middlebox,
    wrong_middlebox_code,
    forward_secrecy,
    downgrade_strip_support,
    downgrade_forge_announcement,
    downgrade_replay_announcement,
    downgrade_suppress_announcement,
    downgrade_forced_fallback,
    mdtls_expired_warrant,
    mdtls_unwarranted_proxy_signature,
    mdtls_truncated_transcript_signature,
]


def run_all_threats() -> list[ThreatOutcome]:
    """Execute every Table 1 scenario."""
    return [threat() for threat in THREATS]
