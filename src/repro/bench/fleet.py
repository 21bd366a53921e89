"""Fleet-scale session churn: the deployment story at population scale.

The paper argues mbTLS for the places middleboxes actually live — CDN
edges and enterprise gateways terminating *populations* of sessions, not
one connection in a unit test.  This bench drives that story end to end:
a :class:`~repro.core.orchestrator.SessionOrchestrator` runs a sharded
fleet of supervised mbTLS sessions on one timer-wheel simulator, with

* **arrivals** drawn from the Table 2 client-site population
  (:mod:`repro.bench.population`) — each site keeps its measured latency
  to the wide-area core and its network type;
* **servers** drawn from the synthetic Alexa population
  (:mod:`repro.bench.alexa`), chosen rank-weighted (popular sites get
  proportionally more traffic) from the healthy subset;
* **resumption**: a warmup wave performs one cold full handshake per
  (shard, server), seeding the shard-wide client/middlebox/server
  resumption stores; the bulk wave then mostly resumes — the steady
  state of a real edge;
* **abandonment**: a per-network-type fraction of sessions closes
  shortly after establishing (flaky access networks give up more);
* **admission control and backpressure**: the orchestrator defers
  admissions while middlebox outboxes sit near their 4 MiB bound or the
  per-shard handshake-concurrency cap is hit, and *sheds* outright under
  combined overload.

With ``chaos`` enabled the same fleet runs under deterministic weather
(:func:`~repro.netsim.faults.chaos_schedule`): middlebox crash/restart
waves fail sessions over to a standby :class:`MiddleboxService` sharing
the primary's credential and session cache, server brownouts trigger
retry storms the per-``(shard, server)`` circuit breakers and retry
budgets must damp, and interrupted sessions redial — each arrival chain
gets a verdict (clean/recovered/degraded/failed/shed) in the
``BENCH_fleet_chaos.json`` report.

Everything virtual is deterministic: two runs with the same seed produce
byte-identical deterministic report cores (see :func:`deterministic_core`),
and any single shard can be replayed from ``(seed, shard_id)`` alone
(``only_shard=``) with a byte-identical shard ledger digest.  Wall-clock
throughput lands in the separate ``"wall"`` section.

``run_fleet()`` returns the report dict written to ``BENCH_fleet.json``
(or ``BENCH_fleet_chaos.json``) by ``python -m repro fleet``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import obs
from repro.bench.alexa import ServerDefect, SyntheticServer, generate_alexa_population
from repro.bench.crypto import git_describe
from repro.bench.population import ClientSite, generate_population
from repro.bench.scenarios import Pki
from repro.core.config import (
    MbTLSEndpointConfig,
    MiddleboxConfig,
    MiddleboxRole,
)
from repro.core.drivers import (
    MiddleboxService,
    RetryPolicy,
    SessionSupervisor,
    serve_mbtls,
)
from repro.core.orchestrator import (
    FailoverGroup,
    ResiliencePolicy,
    SessionOrchestrator,
    Shard,
)
from repro.crypto.drbg import HmacDrbg
from repro.netsim.faults import FaultInjector, chaos_schedule
from repro.tls.config import TLSConfig
from repro.tls.events import ApplicationData

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "FLEET_CHAOS_SCHEMA_VERSION",
    "ABANDON_RATES",
    "FleetConfig",
    "quick_config",
    "full_config",
    "chaos_config",
    "run_fleet",
    "deterministic_core",
    "check_fleet_baseline",
]

FLEET_SCHEMA_VERSION = 1
FLEET_CHAOS_SCHEMA_VERSION = 1

# Fraction of established sessions abandoned (closed almost immediately)
# per client network type: flaky access networks give up more often than
# machines in racks.  The exact values are model knobs, not measurements.
ABANDON_RATES: dict[str, float] = {
    "Enterprise": 0.01,
    "University": 0.02,
    "Residential": 0.06,
    "Public": 0.10,
    "Mobile": 0.12,
    "Hosting": 0.01,
    "Colocation Services": 0.01,
    "Data Center": 0.01,
    "Uncategorized": 0.05,
}
_DEFAULT_ABANDON_RATE = 0.05

_REQUEST = b"GET / HTTP/1.1\r\nHost: fleet\r\n\r\n"


@dataclass(frozen=True)
class FleetConfig:
    """Knobs for one fleet run.

    The defaults are the *full* run; :func:`quick_config` is the CI smoke
    configuration (still sized so peak concurrency crosses 10^4 — that is
    the acceptance bar, not a stretch goal).

    Non-abandoned sessions live ``session_lifetime`` virtual seconds after
    establishing.  Keeping ``arrival_ramp < session_lifetime`` means every
    long-lived session overlaps every other one, so peak concurrency
    approaches the number of non-abandoned arrivals by construction.

    With ``chaos`` set, each shard additionally runs the deterministic
    fault schedule from :func:`~repro.netsim.faults.chaos_schedule`
    (replayable from ``(seed, shard_id)``) against a primary/standby
    middlebox pair, and interrupted sessions redial with their remaining
    lifetime — unless the tail is shorter than
    ``chaos_min_redial_lifetime``, in which case the chain settles as
    *degraded* rather than redialing for nothing.
    """

    seed: bytes = b"fleet-bench"
    num_shards: int = 4
    sessions: int = 22_000  # bulk arrivals across the whole fleet
    servers_per_shard: int = 8
    arrival_start: float = 1.0  # bulk arrivals begin (after warmup settles)
    arrival_ramp: float = 10.0  # bulk arrivals spread over this window
    session_lifetime: float = 30.0  # virtual seconds established -> close
    warmup_lifetime: float = 3.0
    abandon_min: float = 0.2  # abandoned sessions close this soon ...
    abandon_max: float = 2.0  # ... to this late after establishing
    middlebox_every: int = 10  # every Nth site routes through the shard mbox
    max_inflight_per_shard: int = 256
    outbox_high_watermark: float = 0.75
    response_bytes: int = 512
    store_capacity: int = 4096
    chaos: bool = False
    chaos_horizon: float = 12.0  # fault windows land in its first 70%
    chaos_crash_waves: int = 2  # middlebox crash/restart waves per shard
    chaos_server_brownouts: int = 1
    chaos_loss_bursts: int = 2
    chaos_corruption_bursts: int = 1
    chaos_stalls: int = 1
    chaos_min_redial_lifetime: float = 0.05


def quick_config(seed: bytes = b"fleet-bench") -> FleetConfig:
    """The CI smoke run: half the arrivals, same 10^4 concurrency bar."""
    return FleetConfig(seed=seed, sessions=11_000)


def full_config(seed: bytes = b"fleet-bench") -> FleetConfig:
    return FleetConfig(seed=seed)


def chaos_config(seed: bytes = b"fleet-bench", quick: bool = False) -> FleetConfig:
    """The chaos-fleet run: fewer arrivals (faults multiply the event
    count per session), full fault schedule."""
    return FleetConfig(seed=seed, sessions=2_400 if quick else 8_000, chaos=True)


@dataclass(frozen=True)
class _Arrival:
    """One planned session: everything drawn before its clock tick fires."""

    time: float
    site: str
    server: str
    network_type: str
    via_middlebox: bool
    abandoned: bool
    lifetime: float
    phase: str  # "warmup" | "bulk" | "redial"


# ------------------------------------------------------------------- planning


def _site_routes_via_middlebox(site_index: int, config: FleetConfig) -> bool:
    return site_index % config.middlebox_every == 0


def _rank_cumulative(servers: list[SyntheticServer]) -> tuple[list[int], int]:
    """Cumulative integer weights for rank-weighted (Zipf-ish) choice."""
    total = 0
    cumulative: list[int] = []
    for server in servers:
        total += 1_000_000 // server.rank
        cumulative.append(total)
    return cumulative, total


def _shard_arrivals(
    shard: Shard,
    config: FleetConfig,
    shard_sites: list[tuple[ClientSite, bool]],
    servers: list[SyntheticServer],
    bulk_count: int,
) -> Iterator[_Arrival]:
    """Yield the shard's arrival schedule lazily, in time order.

    The RNG is the first fork taken from ``shard.rng`` — the build-time
    fork order is part of the per-shard replay contract — but each
    arrival's draws happen only when the pump asks for it, so a 10^5
    session fleet never materializes its whole plan up front.  Draw
    order per arrival is fixed (site, server, abandon, lifetime, jitter),
    and yielded times are nondecreasing by construction, which is what
    lets the pump chain one timer per arrival.
    """
    rng = shard.rng.fork(b"arrivals")
    cumulative, total = _rank_cumulative(servers)
    # Warmup: one cold handshake per server, from a middlebox-routed site
    # so both the TLS stores and the middlebox session store get seeded.
    warm_site, _ = next(
        (entry for entry in shard_sites if entry[1]), shard_sites[0]
    )
    for index, server in enumerate(servers):
        yield _Arrival(
            time=0.001 * index,
            site=warm_site.name,
            server=server.hostname,
            network_type=warm_site.network_type,
            via_middlebox=True,
            abandoned=False,
            lifetime=config.warmup_lifetime,
            phase="warmup",
        )
    spacing = config.arrival_ramp / max(bulk_count, 1)
    for index in range(bulk_count):
        site, via_middlebox = shard_sites[
            rng.randint_range(0, len(shard_sites) - 1)
        ]
        server = servers[bisect_right(cumulative, rng.randint_range(0, total - 1))]
        abandoned = rng.random() < ABANDON_RATES.get(
            site.network_type, _DEFAULT_ABANDON_RATE
        )
        lifetime = (
            config.abandon_min
            + rng.random() * (config.abandon_max - config.abandon_min)
            if abandoned
            else config.session_lifetime
        )
        yield _Arrival(
            time=config.arrival_start + spacing * (index + rng.random()),
            site=site.name,
            server=server.hostname,
            network_type=site.network_type,
            via_middlebox=via_middlebox,
            abandoned=abandoned,
            lifetime=lifetime,
            phase="bulk",
        )


# ------------------------------------------------------------------- building


@dataclass
class _ShardWorld:
    """Hooks the chaos plane needs back out of the topology builder."""

    failover: FailoverGroup | None = None
    #: server hostname -> re-register its listener (crash-restart hook).
    reserve: dict[str, Callable[[], None]] = field(default_factory=dict)


def _build_shard_world(
    shard: Shard,
    config: FleetConfig,
    pki: Pki,
    shard_sites: list[tuple[ClientSite, bool]],
    servers: list[SyntheticServer],
) -> _ShardWorld:
    """Hub topology: sites -> (mbcore ->) core -> servers, one per shard.

    Under chaos the middlebox leg grows a warm spare on the same path —
    ``site -> mbcore -> mbstandby -> core`` — so when ``mbcore`` crashes
    (packet forwarding survives; the processes die) new SYNs split at the
    activated standby instead.  The standby presents the primary's
    credential and shares the shard's middlebox session cache, so
    abbreviated secondary handshakes survive the failover.
    """
    network = shard.network
    network.add_host("core")
    network.add_host("mbcore")
    if config.chaos:
        network.add_host("mbstandby")
        network.add_link("mbcore", "mbstandby", 0.001)
        network.add_link("mbstandby", "core", 0.002)
    else:
        network.add_link("core", "mbcore", 0.002)
    for site, via_middlebox in shard_sites:
        network.add_host(site.name)
        network.add_link(
            site.name,
            "mbcore" if via_middlebox else "core",
            site.latency_to_core,
        )
    for server in servers:
        network.add_host(server.hostname)
        network.add_link("core", server.hostname, 0.010)

    mb_cred = pki.credential("mbcore")

    def make_mb_config() -> MiddleboxConfig:
        return MiddleboxConfig(
            name="mbcore",
            tls=TLSConfig(
                rng=shard.rng.fork(b"mb"),
                credential=mb_cred,
                session_cache=shard.middlebox_cache,
            ),
            role=MiddleboxRole.CLIENT_SIDE,
        )

    world = _ShardWorld()
    primary = MiddleboxService(network.host("mbcore"), make_mb_config)
    if config.chaos:
        standby = MiddleboxService(
            network.host("mbstandby"), make_mb_config, active=False
        )
        world.failover = FailoverGroup(shard.label, primary, standby)
        shard.register_failover(world.failover)
    else:
        shard.watch_service(primary)

    response = b"F" * config.response_bytes
    for server in servers:
        credential = pki.credential(server.hostname)

        def make_server_config(credential=credential) -> MbTLSEndpointConfig:
            return MbTLSEndpointConfig(
                tls=TLSConfig(
                    rng=shard.rng.fork(b"server"),
                    credential=credential,
                    session_cache=shard.server_cache,
                ),
                middlebox_trust_store=pki.trust,
            )

        def on_server_event(engine, driver, event) -> None:
            if isinstance(event, ApplicationData):
                driver.send_application_data(response)

        def serve(
            host=network.host(server.hostname),
            make_config=make_server_config,
            handler=on_server_event,
        ) -> None:
            serve_mbtls(host, make_config, on_event=handler)

        serve()
        world.reserve[server.hostname] = serve
    return world


class _FleetSession:
    """One planned session: the deferred-supervisor factory the orchestrator
    admits, and the config factory and state hook its supervisor keeps.

    A slotted object whose bound methods the supervisor holds, rather than
    nested closures, so each of the thousands of live sessions keeps three
    collector-tracked objects here instead of a dozen functions and cells.

    ``resubmit`` (chaos only) is called with the arrival and remaining
    lifetime when an *established* session closes before its planned
    lifetime — a fault interrupted it; the chain redials.
    """

    __slots__ = (
        "shard", "arrival", "pki", "policy", "orchestrator", "resubmit",
        "_orchestrator_hook",
    )

    def __init__(
        self,
        shard: Shard,
        arrival: _Arrival,
        pki: Pki,
        policy: RetryPolicy,
        orchestrator: SessionOrchestrator,
        resubmit: Callable[[_Arrival, float], None] | None = None,
    ) -> None:
        self.shard = shard
        self.arrival = arrival
        self.pki = pki
        self.policy = policy
        self.orchestrator = orchestrator
        self.resubmit = resubmit
        self._orchestrator_hook = None

    def __call__(self, shard_obj: Shard, orchestrator_hook) -> SessionSupervisor:
        self._orchestrator_hook = orchestrator_hook
        return SessionSupervisor(
            self.shard.network.host(self.arrival.site),
            self.arrival.server,
            self.make_client_config,
            start=False,
            on_state=self.hook,
            policy=self.policy,
        )

    def make_client_config(self) -> MbTLSEndpointConfig:
        shard = self.shard
        return MbTLSEndpointConfig(
            tls=TLSConfig(
                rng=shard.rng.fork(b"client"),
                trust_store=self.pki.trust,
                server_name=self.arrival.server,
                session_store=shard.client_sessions,
            ),
            middlebox_trust_store=self.pki.trust,
            middlebox_session_store=shard.middlebox_sessions,
        )

    def hook(self, supervisor: SessionSupervisor, state: str) -> None:
        sim = self.shard.network.sim
        remaining = None
        if (
            self.resubmit is not None
            and state == "closed"
            and supervisor.established_at is not None
        ):
            planned = supervisor.established_at + self.arrival.lifetime
            if sim.now < planned - 1e-6:
                # A fault cut the session short of its planned life.
                # Mark the open ledger entry *before* the orchestrator
                # hook settles it, then redial the tail.
                remaining = planned - sim.now
                self.orchestrator.annotate(supervisor, interrupted=True)
        self._orchestrator_hook(supervisor, state)
        if state in ("established", "degraded"):
            # One request/response exercises the data plane (and the
            # middlebox outboxes backpressure watches), then the
            # session idles out its planned lifetime.
            supervisor.send_application_data(_REQUEST)
            sim.schedule(self.arrival.lifetime, supervisor.close)
        elif remaining is not None:
            self.resubmit(self.arrival, remaining)


# -------------------------------------------------------------------- running


def _launch_shard(
    orchestrator: SessionOrchestrator,
    shard: Shard,
    config: FleetConfig,
    pki: Pki,
    policy: RetryPolicy,
    shard_sites: list[tuple[ClientSite, bool]],
    servers: list[SyntheticServer],
    bulk_count: int,
) -> dict:
    """Arm the shard's lazy arrival pump; returns its live counters.

    One simulator event per arrival: the pump draws the next arrival from
    the generator only when the previous one fires, so the fleet never
    holds a full upfront plan (the old 10^5-entry list was the dominant
    setup cost and resident allocation of a big run).
    """
    counts = {"submitted": 0, "next_sid": 0}
    sim = orchestrator.sim

    def submit(arrival: _Arrival, sid: int | None = None) -> None:
        if sid is None:
            sid = counts["next_sid"]
            counts["next_sid"] += 1
        counts["submitted"] += 1

        def resubmit(prev: _Arrival, remaining: float) -> None:
            if remaining < config.chaos_min_redial_lifetime:
                return  # tail too short to redial; chain settles degraded
            submit(
                _Arrival(
                    time=sim.now,
                    site=prev.site,
                    server=prev.server,
                    network_type=prev.network_type,
                    via_middlebox=prev.via_middlebox,
                    abandoned=prev.abandoned,
                    lifetime=remaining,
                    phase="redial",
                ),
                sid=sid,
            )

        factory = _FleetSession(
            shard, arrival, pki, policy, orchestrator,
            resubmit=resubmit if config.chaos else None,
        )
        orchestrator.submit(shard.id, factory, {
            "sid": sid,
            "phase": arrival.phase,
            "site": arrival.site,
            "server": arrival.server,
            "network_type": arrival.network_type,
            "via_middlebox": arrival.via_middlebox,
            "abandoned": arrival.abandoned,
        })

    arrivals = _shard_arrivals(shard, config, shard_sites, servers, bulk_count)

    def fire(arrival: _Arrival) -> None:
        submit(arrival)
        schedule_next()

    def schedule_next() -> None:
        arrival = next(arrivals, None)
        if arrival is None:
            return
        sim.schedule(
            max(arrival.time - sim.now, 0.0), lambda a=arrival: fire(a)
        )

    schedule_next()
    return counts


def _resilience_for(config: FleetConfig) -> ResiliencePolicy:
    """Chaos runs the production-style retry gate (breakers + budgets cut
    retry storms off); the clean bench replays a fixed arrival plan that
    must *all* land, so its congestion-induced redial bursts get the
    permissive gate — see :meth:`ResiliencePolicy.permissive`."""
    return ResiliencePolicy() if config.chaos else ResiliencePolicy.permissive()


def _run(config: FleetConfig, only_shard: int | None) -> tuple[
    SessionOrchestrator, int, dict[int, FaultInjector]
]:
    # Order-independent splits: every stream below derives from the seed
    # by personalization, never by fork order, so a solo-shard replay
    # rebuilds the exact same world without touching the other shards.
    pki = Pki(rng=HmacDrbg(config.seed, personalization=b"fleet/pki"))
    sites = generate_population(
        HmacDrbg(config.seed, personalization=b"fleet/population")
    )
    alexa = generate_alexa_population(
        HmacDrbg(config.seed, personalization=b"fleet/alexa")
    )
    servers = [
        server for server in alexa if server.defect is ServerDefect.NONE
    ][: config.servers_per_shard]

    # Issue every credential in one fixed order up front: certificate
    # bytes must not depend on which shards get built or which shard
    # dials first.
    pki.credential("mbcore")
    for server in servers:
        pki.credential(server.hostname)

    orchestrator = SessionOrchestrator(
        config.seed,
        num_shards=config.num_shards,
        max_inflight_per_shard=config.max_inflight_per_shard,
        outbox_high_watermark=config.outbox_high_watermark,
        store_capacity=config.store_capacity,
        resilience=_resilience_for(config),
    )
    policy = RetryPolicy()

    base = config.sessions // config.num_shards
    extra = config.sessions % config.num_shards
    shard_counts: list[dict] = []
    injectors: dict[int, FaultInjector] = {}
    for shard in orchestrator.shards:
        if only_shard is not None and shard.id != only_shard:
            continue
        shard_sites = [
            (site, _site_routes_via_middlebox(index, config))
            for index, site in enumerate(sites)
            if index % config.num_shards == shard.id
        ]
        world = _build_shard_world(shard, config, pki, shard_sites, servers)
        if config.chaos:
            plan = chaos_schedule(
                config.seed, shard.id,
                horizon=config.chaos_horizon,
                middlebox_hosts=("mbcore",),
                server_hosts=tuple(server.hostname for server in servers),
                crash_waves=config.chaos_crash_waves,
                server_brownouts=config.chaos_server_brownouts,
                loss_bursts=config.chaos_loss_bursts,
                corruption_bursts=config.chaos_corruption_bursts,
                stalls=config.chaos_stalls,
            )
            injector = FaultInjector(shard.network, plan)
            injector.on_crash("mbcore", world.failover.fail_over)
            injector.on_restart("mbcore", world.failover.fail_back)
            for hostname, serve_again in world.reserve.items():
                injector.on_restart(hostname, serve_again)
            injectors[shard.id] = injector
        bulk_count = base + (1 if shard.id < extra else 0)
        shard_counts.append(_launch_shard(
            orchestrator, shard, config, pki, policy,
            shard_sites, servers, bulk_count,
        ))
    # Arrivals are future sim events, so the orchestrator's settled
    # predicate is vacuously true until the clock runs: drive the whole
    # schedule by draining the event queue (every session closes by
    # timer, so the queue empties exactly when the fleet has settled).
    orchestrator.sim.run(max_events=100_000_000)
    orchestrator.drain(timeout=1.0)  # assert-settled backstop
    submitted = sum(counts["submitted"] for counts in shard_counts)
    return orchestrator, submitted, injectors


def _percentile(sorted_values: list[float], pct: float) -> float | None:
    """Exact nearest-rank percentile over the full (sorted) sample."""
    if not sorted_values:
        return None
    index = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


#: Counter families the report reads; the worker path ships exactly these
#: rows back from each shard process.
_FLEET_COUNTER_FAMILIES = (
    "fleet.admission_deferred",
    "fleet.sessions_admitted",
    "fleet.shed",
    "fleet.retry_denied",
    "fleet.breaker_state",
)


def _collect_counters(plane) -> dict[str, list[tuple[dict, int]]]:
    """Snapshot the report's counter families off an observability plane."""
    return {
        name: [
            (dict(labels), value)
            for labels, value in plane.metrics.iter_counters(name)
        ]
        for name in _FLEET_COUNTER_FAMILIES
    }


def _counter_sum(counters: dict, name: str, **labels) -> int:
    total = 0
    for entry_labels, value in counters.get(name, []):
        if all(entry_labels.get(key) == val for key, val in labels.items()):
            total += value
    return total


def _chaos_verdicts(entries: list[dict]) -> dict[str, int]:
    """Classify every arrival *chain* (root submission plus its redials).

    * ``shed`` — the chain's last submission was rejected by admission;
    * ``failed`` — the last attempt failed or aborted;
    * ``degraded`` — the chain ended interrupted (a tail too short to
      redial) or settled on a degraded path;
    * ``recovered`` — interrupted at least once, but a redial carried the
      session through its remaining lifetime;
    * ``clean`` — never touched by the weather.
    """
    chains: dict[tuple[int, int], list[dict]] = {}
    for entry in entries:
        sid = entry.get("sid")
        if sid is None:
            continue
        chains.setdefault((entry["shard"], sid), []).append(entry)
    verdicts = {"clean": 0, "recovered": 0, "degraded": 0, "failed": 0, "shed": 0}
    for chain in chains.values():
        chain.sort(key=lambda entry: entry["submitted_at"])
        final = chain[-1]
        outcome = final.get("outcome")
        if outcome == "shed":
            verdicts["shed"] += 1
        elif outcome in ("failed", "aborted"):
            verdicts["failed"] += 1
        elif final.get("interrupted"):
            verdicts["degraded"] += 1
        elif len(chain) > 1:
            verdicts["recovered"] += 1
        elif outcome == "degraded":
            verdicts["degraded"] += 1
        else:
            verdicts["clean"] += 1
    return verdicts


def _recovery_seconds(
    entries: list[dict], fault_logs: dict[int, list[dict]]
) -> float:
    """Virtual time back to steady state after the last damaging fault.

    Steady state = the last redial re-establishing; the clock starts at
    the latest structural fault (crash/restart) *preceding* it — later
    faults that interrupted nothing don't extend the recovery window.
    Returns 0.0 when the weather never forced a redial.
    """
    steady = None
    for entry in entries:
        if entry.get("phase") != "redial":
            continue
        if entry.get("outcome") not in ("established", "degraded"):
            continue
        latency = entry.get("handshake_seconds")
        if latency is None:
            continue
        at = entry["submitted_at"] + latency
        steady = at if steady is None else max(steady, at)
    if steady is None:
        return 0.0
    disruptions = [
        fault["time"]
        for log in fault_logs.values()
        for fault in log
        if fault["kind"] in ("crash", "restart") and fault["time"] <= steady
    ]
    if not disruptions:
        return 0.0
    return round(steady - max(disruptions), 9)


def _shard_worker(task: tuple[FleetConfig, int]) -> dict:
    """Run one shard in a worker process; returns its serializable slice.

    Shards are independent determinism domains (the per-shard replay
    contract run_fleet's ``only_shard`` mode already pins): a solo run of
    shard *i* produces a ledger byte-identical to shard *i*'s slice of a
    full serial run, so the parent can merge worker results into the
    same report the serial path builds — ledger digests included.
    """
    config, shard_id = task
    with obs.scoped() as plane:
        orchestrator, submitted, injectors = _run(config, only_shard=shard_id)
        shard = orchestrator.shards[shard_id]
        groups = shard.failover_groups
        return {
            "shard_id": shard_id,
            "label": shard.label,
            "ledger": shard.ledger,
            "digest": shard.digest(),
            "peak_live": shard.peak_live,
            "submitted": submitted,
            "virtual_seconds": orchestrator.sim.now,
            "events": orchestrator.sim._events_processed,
            "counters": _collect_counters(plane),
            "fault_log": [
                {"kind": fault.kind, "time": fault.time}
                for injector in injectors.values()
                for fault in injector.log
            ],
            "failover": {
                "activations": sum(group.failovers for group in groups),
                "restores": sum(group.failbacks for group in groups),
                "sessions_drained": sum(
                    group.sessions_drained for group in groups
                ),
            },
            "stuck_sessions": orchestrator.stuck_report()["stuck_sessions"],
        }


def _merge_worker_results(results: list[dict]) -> dict:
    """Fold per-shard worker slices into the serial path's data shape.

    ``peak_concurrent`` is the one quantity a merged run cannot
    reproduce: the serial number is the *instantaneous* cross-shard
    maximum, which no set of independent shard runs can recover, so the
    workers path reports the sum of per-shard peaks (an upper bound)
    and says so via ``concurrency.peak_basis``.
    """
    results = sorted(results, key=lambda r: r["shard_id"])
    per_shard = {result["label"]: result["digest"] for result in results}
    counters: dict[str, list[tuple[dict, int]]] = {}
    for result in results:
        for name, rows in result["counters"].items():
            counters.setdefault(name, []).extend(
                (dict(labels), value) for labels, value in rows
            )
    return {
        "entries": [
            entry for result in results for entry in result["ledger"]
        ],
        "submitted": sum(result["submitted"] for result in results),
        "peak_concurrent": sum(result["peak_live"] for result in results),
        "peak_basis": "per_shard_sum",
        "per_shard_peaks": {
            result["label"]: result["peak_live"] for result in results
        },
        "digests": {
            "shards": per_shard,
            "fleet": hashlib.sha256(
                "".join(per_shard[label] for label in sorted(per_shard)).encode()
            ).hexdigest(),
        },
        "virtual_seconds": max(
            result["virtual_seconds"] for result in results
        ),
        "events": sum(result["events"] for result in results),
        "counters": counters,
        "fault_logs": {
            result["shard_id"]: result["fault_log"] for result in results
        },
        "failover": {
            key: sum(result["failover"][key] for result in results)
            for key in ("activations", "restores", "sessions_drained")
        },
        "stuck_sessions": sum(result["stuck_sessions"] for result in results),
    }


def _run_serial(config: FleetConfig, only_shard: int | None) -> dict:
    """The in-process run; returns the same data shape as the merge."""
    with obs.scoped() as plane:
        orchestrator, submitted, injectors = _run(config, only_shard)
        groups = [
            group
            for shard in orchestrator.shards
            for group in shard.failover_groups
        ]
        return {
            "entries": [
                entry
                for shard in orchestrator.shards
                for entry in shard.ledger
            ],
            "submitted": submitted,
            "peak_concurrent": orchestrator.peak_concurrent,
            "peak_basis": "instantaneous",
            "per_shard_peaks": {
                shard.label: shard.peak_live
                for shard in orchestrator.shards
            },
            "digests": orchestrator.digests(),
            "virtual_seconds": orchestrator.sim.now,
            "events": orchestrator.sim._events_processed,
            "counters": _collect_counters(plane),
            "fault_logs": {
                shard_id: [
                    {"kind": fault.kind, "time": fault.time}
                    for fault in injector.log
                ]
                for shard_id, injector in sorted(injectors.items())
            },
            "failover": {
                "activations": sum(group.failovers for group in groups),
                "restores": sum(group.failbacks for group in groups),
                "sessions_drained": sum(
                    group.sessions_drained for group in groups
                ),
            },
            "stuck_sessions": orchestrator.stuck_report()["stuck_sessions"],
        }


def run_fleet(
    config: FleetConfig | None = None,
    quick: bool = False,
    only_shard: int | None = None,
    workers: int | None = None,
) -> dict:
    """Run the fleet and return the ``BENCH_fleet.json`` report dict.

    Args:
        config: run parameters (default: :func:`full_config`, or
            :func:`quick_config` when ``quick`` is set).  A config with
            ``chaos=True`` produces the ``BENCH_fleet_chaos.json`` shape
            instead (``bench: "fleet_chaos"`` plus a ``chaos`` section).
        quick: use the CI smoke configuration.
        only_shard: replay exactly one shard from ``(seed, shard_id)``;
            the other shards are created (their RNG split costs nothing)
            but get no world, no arrivals, and no weather.  The replayed
            shard's ledger digest matches the full-fleet run, except
            where the timer wheel misorders events (ROADMAP item 10):
            at the quick and perf scale the serial run fires some events
            out of order, so a solo replay can differ from it.
        workers: with >= 2, run each shard in its own worker process
            (one solo replay per shard, merged by
            :func:`_merge_worker_results`); per-shard ledger digests and
            the combined fleet digest are identical to a serial run,
            with the same exception as ``only_shard``.
            Incompatible with ``only_shard``.
    """
    if config is None:
        config = quick_config() if quick else full_config()
    started = time.perf_counter()
    if workers and workers >= 2:
        if only_shard is not None:
            raise ValueError("workers and only_shard are mutually exclusive")
        import multiprocessing

        pool = multiprocessing.get_context("fork").Pool(
            min(workers, config.num_shards)
        )
        try:
            results = pool.map(
                _shard_worker,
                [(config, shard_id) for shard_id in range(config.num_shards)],
            )
        finally:
            pool.terminate()
            pool.join()
        data = _merge_worker_results(results)
    else:
        data = _run_serial(config, only_shard)
    wall_seconds = time.perf_counter() - started

    entries = data["entries"]
    counters = data["counters"]
    established = [
        entry for entry in entries
        if entry.get("outcome") in ("established", "degraded")
    ]
    bulk = [entry for entry in established if entry.get("phase") == "bulk"]
    resumed = sum(1 for entry in bulk if entry.get("resumed"))
    latencies = sorted(
        entry["handshake_seconds"]
        for entry in established
        if entry.get("handshake_seconds") is not None
    )
    failed = [
        entry for entry in entries
        if entry.get("outcome") in ("failed", "aborted")
    ]

    report = {
        "schema_version": (
            FLEET_CHAOS_SCHEMA_VERSION if config.chaos else FLEET_SCHEMA_VERSION
        ),
        "bench": "fleet_chaos" if config.chaos else "fleet",
        "git": git_describe(),
        "quick": quick,
        "config": {
            "seed": config.seed.decode("latin-1"),
            "num_shards": config.num_shards,
            "sessions": config.sessions,
            "servers_per_shard": config.servers_per_shard,
            "arrival_ramp": config.arrival_ramp,
            "session_lifetime": config.session_lifetime,
            "middlebox_every": config.middlebox_every,
            "max_inflight_per_shard": config.max_inflight_per_shard,
            "chaos": config.chaos,
            "only_shard": only_shard,
            "workers": workers or None,
        },
        "sessions": {
            "submitted": data["submitted"],
            "admitted": _counter_sum(counters, "fleet.sessions_admitted"),
            "established": len(established),
            "resumed": resumed,
            "failed": len(failed),
            "abandoned_planned": sum(
                1 for entry in entries
                if entry.get("abandoned") and entry.get("phase") != "redial"
            ),
        },
        "concurrency": {
            "peak_concurrent": data["peak_concurrent"],
            "peak_basis": data["peak_basis"],
            "per_shard_peaks": data["per_shard_peaks"],
        },
        "handshake_seconds": {
            "count": len(latencies),
            "p50": _percentile(latencies, 50),
            "p99": _percentile(latencies, 99),
            "max": latencies[-1] if latencies else None,
        },
        "resumption": {
            "bulk_established": len(bulk),
            "resumed": resumed,
            "hit_rate": round(resumed / len(bulk), 6) if bulk else None,
        },
        "admission": {
            "deferred_capacity": _counter_sum(
                counters, "fleet.admission_deferred", reason="capacity"),
            "deferred_backpressure": _counter_sum(
                counters, "fleet.admission_deferred", reason="backpressure"),
            "shed": {
                reason: _counter_sum(counters, "fleet.shed", reason=reason)
                for reason in ("overload", "breaker_open")
            },
        },
        "digests": data["digests"],
        "sim": {
            "virtual_seconds": round(data["virtual_seconds"], 9),
            "events": data["events"],
        },
        "wall": {
            "seconds": round(wall_seconds, 3),
            "sessions_per_sec": (
                round(len(established) / wall_seconds, 1)
                if wall_seconds > 0 else None
            ),
        },
    }
    if config.chaos:
        per_shard_faults = {
            str(shard_id): _fault_kinds(log)
            for shard_id, log in sorted(data["fault_logs"].items())
        }
        faults_total: dict[str, int] = {}
        for kinds in per_shard_faults.values():
            for kind, count in kinds.items():
                faults_total[kind] = faults_total.get(kind, 0) + count
        report["chaos"] = {
            "horizon": config.chaos_horizon,
            "verdicts": _chaos_verdicts(entries),
            "faults": faults_total,
            "per_shard_faults": per_shard_faults,
            "failover": data["failover"],
            "retry_denied": {
                reason: _counter_sum(
                    counters, "fleet.retry_denied", reason=reason)
                for reason in ("breaker", "budget")
            },
            "breaker_transitions": {
                state: _counter_sum(
                    counters, "fleet.breaker_state", state=state)
                for state in ("open", "half_open", "closed")
            },
            "recovery_virtual_seconds": _recovery_seconds(
                entries, data["fault_logs"]),
            "stuck_sessions": data["stuck_sessions"],
        }
        report["digest"] = hashlib.sha256(
            json.dumps(
                deterministic_core(report), sort_keys=True, separators=(",", ":")
            ).encode()
        ).hexdigest()
    return report


def _fault_kinds(log: list[dict]) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for fault in log:
        kinds[fault["kind"]] = kinds.get(fault["kind"], 0) + 1
    return dict(sorted(kinds.items()))


def deterministic_core(report: dict) -> dict:
    """The report minus host-dependent fields (wall clock, git state).

    Two same-seed runs must produce byte-identical JSON for this core —
    the determinism tests serialize it with sorted keys and compare.
    """
    core = dict(report)
    core.pop("wall", None)
    core.pop("git", None)
    core.pop("digest", None)
    return core


def check_fleet_baseline(
    report: dict, baseline: dict, tolerance: float = 0.30
) -> list[str]:
    """Compare a fresh run against the committed ``BENCH_fleet.json``.

    Only machine-independent dimensions are gated — virtual handshake
    percentiles, the resumption hit-rate, simulator events per
    established session, and the failed count — so the gate behaves
    identically on a laptop and in CI.  Returns a list of problems
    (empty = pass); never rewrites the baseline.
    """
    problems: list[str] = []
    if report.get("schema_version") != baseline.get("schema_version"):
        problems.append(
            f"schema_version {report.get('schema_version')} != baseline "
            f"{baseline.get('schema_version')}"
        )
    for key in ("p50", "p99"):
        base = baseline.get("handshake_seconds", {}).get(key)
        new = report.get("handshake_seconds", {}).get(key)
        if base and new and new > base * (1.0 + tolerance):
            problems.append(
                f"virtual handshake {key} {new:.6f}s exceeds baseline "
                f"{base:.6f}s by more than {tolerance:.0%}"
            )
    base_hit = baseline.get("resumption", {}).get("hit_rate")
    new_hit = report.get("resumption", {}).get("hit_rate")
    if base_hit is not None and new_hit is not None and new_hit < base_hit - 0.05:
        problems.append(
            f"resumption hit-rate {new_hit:.4f} dropped more than 0.05 "
            f"below baseline {base_hit:.4f}"
        )
    base_established = max(baseline.get("sessions", {}).get("established", 0), 1)
    new_established = max(report.get("sessions", {}).get("established", 0), 1)
    base_events = baseline.get("sim", {}).get("events", 0) / base_established
    new_events = report.get("sim", {}).get("events", 0) / new_established
    if base_events and new_events > base_events * 1.3:
        problems.append(
            f"simulator events per established session {new_events:.1f} "
            f"exceeds baseline {base_events:.1f} by more than 30%"
        )
    failed = report.get("sessions", {}).get("failed", 0)
    if failed:
        problems.append(f"{failed} sessions failed (baseline run has none)")
    return problems
