"""The four benchmark workloads, built on the library's public API only.

Three workloads drive one persistent world: a client, a client-side
middlebox ``mb0``, a server-side middlebox ``mb1`` and a server, joined by
zero-latency links (so virtual time adds nothing and wall time is all CPU).
The fourth replays the sharded fleet.  Every workload is single-threaded
and runs without the AEAD pool.

Each workload checks its outputs as it goes: payloads must arrive
byte-exact, each session must negotiate its expected suite with both
middleboxes joined and none bypassed, and a failed check counts the
operation as failed.
"""

from __future__ import annotations

import dataclasses
import math
import random
import struct
import time
from typing import Callable

from repro.bench.fleet import FleetConfig, run_fleet
from repro.core.config import (
    MbTLSEndpointConfig,
    MiddleboxConfig,
    MiddleboxRole,
    SessionEstablished,
)
from repro.core.drivers import MiddleboxService, open_mbtls, serve_mbtls
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_rsa_key
from repro.netsim.network import Network
from repro.pki import CertificateAuthority, Credential, TrustStore
from repro.tls.ciphersuites import DEFAULT_SUITES
from repro.tls.config import TLSConfig
from repro.tls.events import ApplicationData, ConnectionClosed
from repro.tls.record_layer import reset_aead_cache

__all__ = ["WORKLOADS", "Workload"]

KEY_BITS = 1024
AES_256_GCM = 0xC030  # TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384, the default offer's first
CHACHA20_POLY1305 = 0xCCA8  # TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256
SERVER = "server"
MIDDLEBOXES = (("mb0", MiddleboxRole.CLIENT_SIDE), ("mb1", MiddleboxRole.SERVER_SIDE))

# A request is this header plus random bytes: its own length, then the
# length of the response the server must send back.
_HEADER = struct.Struct(">HI")

# Workload sizes.
COLD_REQUEST, COLD_RESPONSE = 32, 64
COLD_POOL = 256
COLD_WARMUP = 5
INTERACTIVE_REQUEST = (32, 512)
INTERACTIVE_RESPONSE = (64, 4096)
INTERACTIVE_POOL = 512
INTERACTIVE_WARMUP = 32
BULK_REQUEST, BULK_RESPONSE = 32, 256 << 10
BULK_POOL = 2
FLEET = {
    "num_shards": 4,
    "sessions": 4000,
    "servers_per_shard": 8,
    "arrival_start": 1.0,
    "arrival_ramp": 10.0,
    "session_lifetime": 30.0,
    "warmup_lifetime": 3.0,
    "abandon_min": 0.2,
    "abandon_max": 2.0,
    "middlebox_every": 10,
    "max_inflight_per_shard": 256,
    "outbox_high_watermark": 0.75,
    "response_bytes": 512,
    "store_capacity": 4096,
    "chaos": False,
    "chaos_horizon": 12.0,
    "chaos_crash_waves": 2,
    "chaos_server_brownouts": 1,
    "chaos_loss_bursts": 2,
    "chaos_corruption_bursts": 1,
    "chaos_stalls": 1,
    "chaos_min_redial_lifetime": 0.05,
}

#: Fleet ledger digests of the full ``FLEET`` run, by seed.  The fleet is
#: deterministic, so a run with a pinned seed must reproduce its digest,
#: traced or not.
FLEET_DIGESTS: dict[int, str] = {
    0: "f5794dd59d407fe9ecd8b0a1a5ff3908f7af9a4bd90cb92413faa4344f9b89da",
    1: "f350ec3b4b822cf68b293f594f74cb06c9a3988b9732f3d6d486043509965b56",
    2: "147d66b5008df27af1b62d0cf3ad084068b3a121cf3fd8403122393a5a87d326",
    3: "4ff791f9f974a9a1bef0f8ace719188b6792841ee3a97d47bfe11ed9d999e901",
    4: "4a6e32ceac1d7565d0a7fae8faa6020bba39abe5931056d0e5cbce4644f12dd0",
    5: "361aff874f94a30132080550874d28070eedb30bda2eb40b2d234f8682c78d05",
    6: "cf4ac12fecf00a0fcc1099c8ba5738de007bd4af6af953d73575e6a84c495aae",
    7: "c49716f52998e2557f84ab09a8229dfa06ed0bba1cbd368be320c85439f6a3f0",
    8: "34d7385a5ab1aea42bfea13d09e4dfc57e53bceddd3c00645ca3bacb83504e6e",
    9: "f81aa044b0feae6837aaf1c407ae88bdd0aab0c270b2f09438388d3e3d0fb2bd",
    10: "ee00c3bcb7db7a609fbf728e4e9ac81fc8473802da1e9f59a9ee74409ea2a60d",
    11: "9d9853701cee6d0e1a6837fe12dce9d2f08099bdbcadb5e772e260905d23f1d2",
    12: "665dbc343bf8071432d8cd88036b7137e177eaa51ffea215aa792a2117fd3617",
    13: "81f7a7f979b96da493b1ccd8745b84e7ef7684e241b448341d909da4bd1f9255",
    14: "fd21fe5017cb3ab6e7a985a41c927bfe65f81999cf8af460bc836749c39e4480",
    15: "82a1339693e6e7485cf5b49bc6d6ec7116fd1a7df3e4a57e4a146829b4251841",
    16: "a065e745182e1db4150b5a85387aa97e30dcab29c87c810afcae75b75084ef65",
    17: "8b39ad49b64c01b21bda46e3f3bb8a5fd0f8a37af250b8b15b6e56e830e8fce7",
    18: "0b00d070f4db922c83dd10b756314a5c407c6ad8501c42cd62fc62395a3f3a00",
    19: "b3741d5d3df319bab6932a2de6dd64eec14d7c79705af6cda9b67eb8e3f69d7a",
    20: "641a44e55304b6b2be98ff65d3bd2d1064d107f955c6b20878e87ea976467bb5",
}


def _request(rng: random.Random, size: int, response_size: int) -> tuple[bytes, bytes]:
    request = _HEADER.pack(size, response_size) + rng.randbytes(size - _HEADER.size)
    return request, rng.randbytes(response_size)


def _log_uniform(rng: random.Random, low: int, high: int) -> int:
    return round(math.exp(rng.uniform(math.log(low), math.log(high))))


def _names(established: SessionEstablished) -> list[str]:
    return [middlebox.name for middlebox in established.middleboxes]


class Chain:
    """client → mb0 (client-side) → mb1 (server-side) → server.

    The server answers each request with the response registered for it
    in :attr:`responses`; an unknown request gets a one-byte reply that no
    check accepts.
    """

    def __init__(self, seed: int, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # The deployment's keys are fixed, so set-up cost does not depend on
        # how long a prime search a seed happens to need; traffic and every
        # party's randomness come from the seed.
        pki = HmacDrbg(b"perf/pki")
        ca = CertificateAuthority("perf-root", pki.fork(b"ca"), key_bits=KEY_BITS)
        self.trust = TrustStore([ca.certificate])
        credentials = {}
        for name in (SERVER, *(name for name, _ in MIDDLEBOXES)):
            key = generate_rsa_key(KEY_BITS, pki.fork(name.encode()))
            credentials[name] = Credential(
                private_key=key, chain=(ca.issue(name, key.public_key), ca.certificate)
            )
        self.rng = HmacDrbg(b"perf/traffic/%d" % seed)
        self.responses: dict[bytes, bytes] = {}
        self.server_established: list[tuple[SessionEstablished, int]] = []
        self._inboxes: dict[object, bytearray] = {}

        self.net = Network()
        hosts = ("client", *(name for name, _ in MIDDLEBOXES), SERVER)
        for host in hosts:
            self.net.add_host(host)
        for near, far in zip(hosts, hosts[1:]):
            self.net.add_link(near, far, 0.0)
        for name, role in MIDDLEBOXES:
            def middlebox_config(name=name, role=role) -> MiddleboxConfig:
                return MiddleboxConfig(
                    name=name,
                    tls=TLSConfig(rng=self.rng.fork(name.encode()),
                                  credential=credentials[name]),
                    role=role,
                )

            MiddleboxService(self.net.host(name), middlebox_config)

        def server_config() -> MbTLSEndpointConfig:
            return MbTLSEndpointConfig(
                tls=TLSConfig(rng=self.rng.fork(b"server"), credential=credentials[SERVER]),
                middlebox_trust_store=self.trust,
            )

        serve_mbtls(self.net.host(SERVER), server_config, on_event=self._on_server_event)

    def pair(self, rng: random.Random, size: int, response_size: int) -> tuple[bytes, bytes]:
        """A new (request, expected response), registered with the server."""
        request, response = _request(rng, size, response_size)
        self.responses[request] = response
        return request, response

    def run(self) -> None:
        self.net.sim.run()

    def _on_server_event(self, engine, driver, event) -> None:
        if isinstance(event, SessionEstablished):
            self.server_established.append((event, len(engine.fallback_decisions)))
        elif isinstance(event, ApplicationData):
            inbox = self._inboxes.setdefault(driver, bytearray())
            inbox += event.data
            while len(inbox) >= _HEADER.size:
                length = _HEADER.unpack_from(inbox)[0]
                if len(inbox) < length:
                    break
                request = bytes(inbox[:length])
                del inbox[:length]
                driver.send_application_data(self.responses.get(request, b"?"))
        elif isinstance(event, ConnectionClosed):
            self._inboxes.pop(driver, None)


class Session:
    """One client connection through a :class:`Chain`."""

    def __init__(self, chain: Chain, suites: tuple[int, ...] = DEFAULT_SUITES) -> None:
        self.chain = chain
        self.established: SessionEstablished | None = None
        self.established_at = 0.0
        self.received = bytearray()
        tls = TLSConfig(rng=chain.rng.fork(b"client"), trust_store=chain.trust,
                        server_name=SERVER, cipher_suites=suites)
        server_count = len(chain.server_established)
        self.dialed_at = chain.clock()
        self.engine, self.driver = open_mbtls(
            chain.net.host("client"), SERVER,
            MbTLSEndpointConfig(tls=tls, middlebox_trust_store=chain.trust),
            on_event=self._on_event,
        )
        chain.run()
        self.server_side = chain.server_established[server_count:]

    def _on_event(self, event) -> None:
        if isinstance(event, SessionEstablished):
            self.established = event
            self.established_at = self.chain.clock()
        elif isinstance(event, ApplicationData):
            self.received += event.data

    def problem(self, suite: int) -> str | None:
        """Why this session is not the one the workload asked for, if it isn't."""
        client = self.established
        if client is None or len(self.server_side) != 1:
            return "session did not establish at both ends"
        server, server_fallbacks = self.server_side[0]
        if client.cipher_suite != suite or server.cipher_suite != suite:
            return f"negotiated {client.cipher_suite:#06x}, expected {suite:#06x}"
        if _names(client) != ["mb0"] or _names(server) != ["mb1"]:
            return f"middleboxes {_names(client)} / {_names(server)}, expected mb0 / mb1"
        if self.engine.fallback_decisions or server_fallbacks:
            return "a middlebox was bypassed"
        if client.resumed or server.resumed:
            return "session was resumed"
        return None

    def exchange(self, request: bytes, expected: bytes) -> float | None:
        """Send ``request``; the seconds until the full response, or ``None``
        if the response is not byte-exact."""
        self.received.clear()
        start = self.chain.clock()
        self.driver.send_application_data(request)
        self.chain.run()
        elapsed = self.chain.clock() - start
        return elapsed if self.received == expected else None

    def close(self) -> None:
        self.driver.close()
        self.chain.run()


class Workload:
    """Set up, then run units of work; tallies operations and latencies.

    ``latencies_ms`` holds one latency per completed operation, read from
    ``clock`` (seconds).
    """

    name = ""
    #: Units the traced run performs: fixed, so its counts repeat exactly.
    trace_units = 1

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: list[float] = []
        self.problems: list[str] = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def unit(self) -> None:
        raise NotImplementedError

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics the workload measures itself rather than the tracer."""
        return {
            "orchestrator.admission_deferred": 0,
            "orchestrator.virtual_handshake_ms_p50": 0.0,
            "orchestrator.virtual_handshake_ms_p99": 0.0,
        }

    def details(self) -> dict:
        return {}

    def _record(self, latency: float | None, problem: str | None = None) -> None:
        self.attempted += 1
        if problem is None and latency is None:
            problem = "response was not byte-exact"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)
            return
        self.latencies_ms.append(latency * 1e3)


class ColdHandshake(Workload):
    """Sequential cold sessions: dial, establish, 32 B request, 64 B reply, close.

    The latency is dial to the client's ``SessionEstablished``.
    """

    name = "cold_handshake"
    trace_units = 60

    def setup(self, seed: int) -> None:
        reset_aead_cache()
        self.chain = Chain(seed, self.clock)
        rng = random.Random(f"{self.name}/{seed}")
        self.pool = [
            self.chain.pair(rng, COLD_REQUEST, COLD_RESPONSE) for _ in range(COLD_POOL)
        ]
        for _ in range(COLD_WARMUP):
            self.unit()
        self.reset()

    def unit(self) -> None:
        request, expected = self.pool[self.attempted % len(self.pool)]
        session = Session(self.chain)
        problem = session.problem(AES_256_GCM)
        if problem is None and session.exchange(request, expected) is None:
            problem = "response was not byte-exact"
        session.close()
        self._record(session.established_at - session.dialed_at, problem)


class Interactive(Workload):
    """Request/response exchanges over one established session.

    Requests of 32-512 B and responses of 64 B-4 KiB, log-uniform from the
    seed; the latency is send to the full response.
    """

    name = "interactive"
    trace_units = 1500

    def setup(self, seed: int) -> None:
        reset_aead_cache()
        self.chain = Chain(seed, self.clock)
        rng = random.Random(f"{self.name}/{seed}")
        self.pool = [
            self.chain.pair(
                rng,
                _log_uniform(rng, *INTERACTIVE_REQUEST),
                _log_uniform(rng, *INTERACTIVE_RESPONSE),
            )
            for _ in range(INTERACTIVE_POOL)
        ]
        self.session = Session(self.chain)
        problem = self.session.problem(AES_256_GCM)
        if problem is not None:
            raise RuntimeError(f"{self.name}: {problem}")
        for _ in range(INTERACTIVE_WARMUP):
            self.unit()
        self.reset()

    def unit(self) -> None:
        request, expected = self.pool[self.attempted % len(self.pool)]
        self._record(self.session.exchange(request, expected))


class BulkDownload(Workload):
    """256 KiB responses (16 full records) alternating between an AES-256-GCM
    and a ChaCha20-Poly1305 session; one operation is one response on each,
    timed together.
    """

    name = "bulk_download"
    trace_units = 8

    def setup(self, seed: int) -> None:
        reset_aead_cache()
        self.chain = Chain(seed, self.clock)
        rng = random.Random(f"{self.name}/{seed}")
        self.sessions = []
        for suites, suite in (
            (DEFAULT_SUITES, AES_256_GCM),
            ((CHACHA20_POLY1305,), CHACHA20_POLY1305),
        ):
            session = Session(self.chain, suites)
            problem = session.problem(suite)
            if problem is not None:
                raise RuntimeError(f"{self.name}: {problem}")
            pool = [self.chain.pair(rng, BULK_REQUEST, BULK_RESPONSE)
                    for _ in range(BULK_POOL)]
            self.sessions.append((session, pool))
        self.unit()  # warm-up: one untimed response per session fills the AEAD caches
        self.reset()

    def unit(self) -> None:
        start = self.clock()
        exact = all(
            session.exchange(*pool[self.attempted % len(pool)]) is not None
            for session, pool in self.sessions
        )
        self._record(self.clock() - start if exact else None)


class FleetChurn(Workload):
    """One sharded fleet run per unit (``FLEET``); the ledger digest is checked.

    Thousands of sessions interleave on one virtual clock, so no session has
    a wall-clock latency of its own: a unit's latency is its wall time per
    established session.  The fleet's virtual handshake percentiles are
    per-layer metrics.
    """

    name = "fleet_churn"
    trace_units = 1

    @staticmethod
    def config(seed: bytes, sessions: int) -> FleetConfig:
        fields = {field.name for field in dataclasses.fields(FleetConfig)}
        if fields != set(FLEET) | {"seed"}:
            raise RuntimeError(f"FleetConfig fields changed: {sorted(fields ^ set(FLEET))}")
        return FleetConfig(seed=seed, **{**FLEET, "sessions": sessions})

    def setup(self, seed: int) -> None:
        # The fleet derives its keys from its seed, and a 1024-bit prime
        # search takes 0.04-0.25 s depending on it: set-up builds the same
        # zero-session fleet for every seed, so its time does not vary with one.
        self.seed = seed
        reset_aead_cache()
        report = run_fleet(self.config(b"perf/fleet/setup", sessions=0))
        if report["sessions"]["failed"]:
            raise RuntimeError(f"{self.name}: warm-up sessions failed")
        self.reports: list[dict] = []

    def unit(self) -> None:
        # Each fleet starts as cold as a fresh process: a fleet run earlier
        # in this one (same seed, same keys) would otherwise skip key setup.
        reset_aead_cache()
        start = self.clock()
        report = run_fleet(self.config(b"perf/fleet/%d" % self.seed, FLEET["sessions"]))
        elapsed = self.clock() - start
        sessions = report["sessions"]
        digest = report["digests"]["fleet"]
        problem = None
        pinned = FLEET_DIGESTS.get(self.seed)
        if sessions["failed"] or sessions["established"] != sessions["submitted"]:
            problem = f"{sessions['failed']} sessions failed"
        elif pinned is not None and digest != pinned:
            problem = f"fleet digest {digest} differs from the pinned {pinned}"
        elif self.reports and digest != self.reports[0]["digests"]["fleet"]:
            problem = "fleet digest changed between runs of one seed"
        elif sessions["resumed"] < FLEET["sessions"] // 2:
            problem = f"only {sessions['resumed']} sessions resumed"
        self.reports.append(report)
        self.attempted += sessions["submitted"]
        if problem is not None:
            self.failed += sessions["submitted"]
            self.problems.append(problem)
        else:
            self.latencies_ms.append(elapsed * 1e3 / sessions["established"])

    def layer_metrics(self) -> dict[str, float]:
        traced = self.reports[-1]
        admission = traced["admission"]
        return {
            "orchestrator.admission_deferred": (
                admission["deferred_capacity"] + admission["deferred_backpressure"]
            ),
            "orchestrator.virtual_handshake_ms_p50": traced["handshake_seconds"]["p50"] * 1e3,
            "orchestrator.virtual_handshake_ms_p99": traced["handshake_seconds"]["p99"] * 1e3,
        }

    def details(self) -> dict:
        report = self.reports[0]
        return {
            "fleet_digest": report["digests"]["fleet"],
            "peak_concurrent": report["concurrency"]["peak_concurrent"],
            "resumed": report["sessions"]["resumed"],
            "virtual_handshake_ms_p99": report["handshake_seconds"]["p99"] * 1e3,
        }


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (ColdHandshake, Interactive, BulkDownload, FleetChurn)
}
