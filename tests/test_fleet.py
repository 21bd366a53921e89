"""Fleet orchestration: determinism, replay, admission, and resilience.

The contract under test (ISSUE 7 + ISSUE 8):

* same seed -> byte-identical deterministic report core (the
  ``BENCH_fleet.json`` snapshot minus wall-clock and git state), for
  clean *and* chaos runs;
* any shard replays from ``(seed, shard_id)`` alone with a ledger digest
  identical to its digest inside the full-fleet run, checked (with
  ``workers=2``) only at ``SMALL`` scale: at the quick and perf scale
  the timer wheel fires some events out of order in the serial run, so
  replays differ there until the wheel is fixed (ROADMAP item 10);
* a session driven through the orchestrator's admission machinery is
  byte-identical on the wire to the same session driven by a standalone
  :class:`SessionSupervisor`;
* admission control defers on the inflight cap and on middlebox outbox
  backpressure, recovers once the pressure clears, and *sheds* under
  combined overload or an open circuit breaker;
* a retry storm against a dead server is bounded by the per-
  ``(shard, server)`` retry budget with the breaker open;
* a middlebox crash mid-fleet fails over to the standby and interrupted
  sessions recover;
* a drain that cannot settle raises with per-shard stuck-session
  diagnostics instead of a bare timeout.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import obs
from repro.bench.fleet import (
    FLEET_CHAOS_SCHEMA_VERSION,
    FLEET_SCHEMA_VERSION,
    FleetConfig,
    check_fleet_baseline,
    deterministic_core,
    quick_config,
    run_fleet,
)
from repro.bench.scenarios import Pki
from repro.core.config import MbTLSEndpointConfig
from repro.core.drivers import SessionSupervisor, serve_mbtls
from repro.core.orchestrator import (
    CircuitBreaker,
    ResiliencePolicy,
    RetryBudget,
    SessionOrchestrator,
    shard_rng,
)
from repro.crypto.drbg import HmacDrbg
from repro.errors import SimulationError
from repro.netsim.adversary import GlobalAdversary
from repro.netsim.network import Network
from repro.netsim.sim import Simulator
from repro.tls.config import TLSConfig

SMALL = FleetConfig(
    sessions=40,
    num_shards=2,
    servers_per_shard=2,
    arrival_ramp=2.0,
    session_lifetime=6.0,
)


@pytest.fixture(scope="module")
def small_report():
    return run_fleet(SMALL)


# ---------------------------------------------------------------- determinism


class TestFleetDeterminism:
    def test_same_seed_byte_identical_snapshot(self, small_report):
        again = run_fleet(SMALL)
        assert (
            json.dumps(deterministic_core(small_report), sort_keys=True)
            == json.dumps(deterministic_core(again), sort_keys=True)
        )

    def test_per_shard_replay_from_seed_and_shard_id(self, small_report):
        solo = run_fleet(SMALL, only_shard=1)
        assert (
            solo["digests"]["shards"]["1"]
            == small_report["digests"]["shards"]["1"]
        )
        # The replayed shard actually did the work (non-empty ledger).
        empty = hashlib.sha256(b"[]").hexdigest()
        assert solo["digests"]["shards"]["1"] != empty
        # And the untouched shard stayed empty.
        assert solo["digests"]["shards"]["0"] == empty

    def test_shards_differ_from_each_other(self, small_report):
        shards = small_report["digests"]["shards"]
        assert shards["0"] != shards["1"]

    def test_worker_processes_match_serial(self, small_report):
        # Shards are independent determinism domains: running them in
        # worker processes must reproduce every per-shard digest, the
        # fleet digest, and the session outcomes bit for bit.
        workers = run_fleet(SMALL, workers=2)
        assert workers["digests"] == small_report["digests"]
        assert workers["sessions"] == small_report["sessions"]
        assert workers["handshake_seconds"] == small_report["handshake_seconds"]
        assert workers["config"]["workers"] == 2
        # Cross-process peaks are summed per shard, not interleaved.
        assert workers["concurrency"]["peak_basis"] == "per_shard_sum"
        assert small_report["concurrency"]["peak_basis"] == "instantaneous"
        assert (
            workers["concurrency"]["peak_concurrent"]
            >= small_report["concurrency"]["peak_concurrent"]
        )

    def test_workers_reject_solo_shard_replay(self):
        with pytest.raises(ValueError):
            run_fleet(SMALL, only_shard=1, workers=2)


# --------------------------------------------------------------------- report


class TestFleetReport:
    def test_schema_and_required_sections(self, small_report):
        assert small_report["schema_version"] == FLEET_SCHEMA_VERSION
        assert small_report["bench"] == "fleet"
        for section in ("sessions", "concurrency", "handshake_seconds",
                        "resumption", "admission", "digests", "sim", "wall"):
            assert section in small_report

    def test_population_churn_outcomes(self, small_report):
        sessions = small_report["sessions"]
        assert sessions["established"] == sessions["submitted"]
        assert sessions["failed"] == 0
        # Warmup seeded the stores, so the bulk wave resumes.
        assert small_report["resumption"]["hit_rate"] == 1.0
        # Sessions overlap by construction (ramp < lifetime).
        peak = small_report["concurrency"]["peak_concurrent"]
        assert peak >= SMALL.sessions * 0.9
        latency = small_report["handshake_seconds"]
        assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]

    def test_wall_section_excluded_from_core(self, small_report):
        core = deterministic_core(small_report)
        assert "wall" not in core and "git" not in core
        assert "sim" in core  # virtual time IS deterministic

    def test_quick_config_targets_fleet_scale(self):
        config = quick_config()
        # The acceptance bar: the quick run must be able to cross 10^4
        # concurrent sessions even after per-network-type abandonment.
        assert config.sessions >= 10_500
        assert config.arrival_ramp < config.session_lifetime


# ------------------------------------------------- orchestrator == standalone


def _build_single_session_world(seed: bytes, *, network: Network,
                                rng: HmacDrbg, pki: Pki):
    """One client, one server, no middleboxes; returns the client config."""
    network.add_host("client")
    network.add_host("server")
    network.add_link("client", "server", 0.01)
    credential = pki.credential("server")

    def make_server_config():
        return MbTLSEndpointConfig(
            tls=TLSConfig(rng=rng.fork(b"server"), credential=credential),
            middlebox_trust_store=pki.trust,
        )

    serve_mbtls(network.host("server"), make_server_config)

    def make_client_config():
        return MbTLSEndpointConfig(
            tls=TLSConfig(
                rng=rng.fork(b"client"),
                trust_store=pki.trust,
                server_name="server",
            ),
            middlebox_trust_store=pki.trust,
        )

    return make_client_config


class TestOrchestratorEquivalence:
    def test_orchestrated_session_byte_identical_to_standalone(self):
        seed = b"fleet-golden"

        # World A: the session admitted through the orchestrator.
        orchestrator = SessionOrchestrator(seed, num_shards=1)
        shard = orchestrator.shards[0]
        pki_a = Pki(rng=HmacDrbg(seed, personalization=b"pki"))
        adversary_a = GlobalAdversary(shard.network)
        make_client_a = _build_single_session_world(
            seed, network=shard.network, rng=shard.rng, pki=pki_a)

        def factory(shard_obj, on_state):
            return SessionSupervisor(
                shard.network.host("client"), "server", make_client_a,
                start=False, on_state=on_state,
            )

        orchestrator.submit(0, factory, info={"case": "golden"})
        orchestrator.sim.run()

        # World B: the identical session driven standalone.
        sim = Simulator()
        network = Network(sim)
        rng = shard_rng(seed, 0)  # the exact stream shard 0 used
        pki_b = Pki(rng=HmacDrbg(seed, personalization=b"pki"))
        adversary_b = GlobalAdversary(network)
        make_client_b = _build_single_session_world(
            seed, network=network, rng=rng, pki=pki_b)
        supervisor = SessionSupervisor(
            network.host("client"), "server", make_client_b)
        sim.run()

        assert supervisor.outcome == "established"
        assert shard.ledger == []  # still live, so not settled yet
        assert orchestrator.live_sessions == 1
        wire_a = hashlib.sha256(adversary_a.observed_bytes()).hexdigest()
        wire_b = hashlib.sha256(adversary_b.observed_bytes()).hexdigest()
        assert wire_a == wire_b


# ------------------------------------------------------------------ admission


class _FakeSupervisor:
    """Just enough of SessionSupervisor for the admission machinery."""

    def __init__(self, on_state):
        self.on_state = on_state
        self.started = False
        self.attempt = 1
        self.failure = None
        self.events = []
        self.handshake_latency = 0.001

    def start(self):
        self.started = True


class _StubService:
    def __init__(self, fill: float):
        self.fill = fill

    def max_outbox_fill(self) -> float:
        return self.fill


class TestAdmissionControl:
    def test_inflight_cap_defers_then_drains(self):
        with obs.scoped() as plane:
            orchestrator = SessionOrchestrator(
                b"cap", num_shards=1, max_inflight_per_shard=1)
            created: list[_FakeSupervisor] = []

            def factory(shard, on_state):
                supervisor = _FakeSupervisor(on_state)
                created.append(supervisor)
                return supervisor

            for _ in range(3):
                orchestrator.submit(0, factory)
            assert len(created) == 1 and created[0].started
            assert plane.metrics.counter_value(
                "fleet.admission_deferred", shard="0", reason="capacity") > 0

            # Settling one session frees the slot for the next.
            created[0].on_state(created[0], "established")
            assert len(created) == 2
            created[0].on_state(created[0], "closed")
            created[1].on_state(created[1], "failed")
            assert len(created) == 3
            shard = orchestrator.shards[0]
            assert not shard.pending
            # Settled entries landed in the ledger in admission order.
            assert [e["outcome"] for e in shard.ledger] == [
                "established", "failed"]

    def test_backpressure_defers_and_recovers_on_timer(self):
        with obs.scoped() as plane:
            orchestrator = SessionOrchestrator(
                b"bp", num_shards=1, outbox_high_watermark=0.5)
            stub = _StubService(fill=0.9)
            orchestrator.shards[0].watch_service(stub)
            created: list[_FakeSupervisor] = []

            def factory(shard, on_state):
                supervisor = _FakeSupervisor(on_state)
                created.append(supervisor)
                return supervisor

            orchestrator.submit(0, factory)
            assert created == []  # over the watermark: deferred
            assert plane.metrics.counter_value(
                "fleet.admission_deferred", shard="0",
                reason="backpressure") == 1

            # Outbox stays full: the retry timer keeps deferring.
            orchestrator.sim.run(until=0.004)
            orchestrator.sim.run(until=0.006)
            assert created == []

            # Outbox drains: the next retry admits.
            stub.fill = 0.0
            orchestrator.sim.run(until=0.020)
            assert len(created) == 1 and created[0].started

    def test_watched_outbox_fill_is_max_over_services(self):
        orchestrator = SessionOrchestrator(b"fill", num_shards=1)
        shard = orchestrator.shards[0]
        assert shard.outbox_fill() == 0.0
        shard.watch_service(_StubService(0.25))
        shard.watch_service(_StubService(0.75))
        assert shard.outbox_fill() == 0.75

    def test_combined_overload_sheds_instead_of_deferring(self):
        with obs.scoped() as plane:
            orchestrator = SessionOrchestrator(
                b"shed", num_shards=1, max_inflight_per_shard=4,
                resilience=ResiliencePolicy(shed_ceiling=1.0),
            )
            created: list[_FakeSupervisor] = []

            def factory(shard, on_state):
                supervisor = _FakeSupervisor(on_state)
                created.append(supervisor)
                return supervisor

            for _ in range(4):
                orchestrator.submit(0, factory)
            assert len(created) == 4  # the cap itself is still admittable

            # inflight/max == 1.0 crosses the ceiling: reject, don't queue.
            orchestrator.submit(0, factory, info={"case": "overflow"})
            assert len(created) == 4
            shard = orchestrator.shards[0]
            assert not shard.pending
            assert shard.ledger[-1]["outcome"] == "shed"
            assert shard.ledger[-1]["shed_reason"] == "overload"
            assert plane.metrics.counter_value(
                "fleet.shed", shard="0", reason="overload") == 1


# ----------------------------------------------------------------- resilience


class TestCircuitBreaker:
    POLICY = ResiliencePolicy(
        breaker_failure_threshold=3,
        breaker_cooldown=1.0,
        breaker_half_open_probes=2,
    )

    def _advance(self, sim: Simulator, by: float) -> None:
        sim.schedule(by, lambda: None)
        sim.run()

    def test_state_machine_on_virtual_clock(self):
        sim = Simulator()
        with obs.scoped() as plane:
            breaker = CircuitBreaker(
                lambda: sim.now, self.POLICY, shard="0", server="srv")
            assert breaker.state == "closed" and breaker.allow()

            # Threshold consecutive failures open it; allow() refuses.
            for _ in range(3):
                breaker.record_failure()
            assert breaker.state == "open"
            assert not breaker.allow()

            # Cooldown elapses on the virtual clock: half-open, bounded
            # probes.
            self._advance(sim, 1.5)
            assert breaker.allow()  # probe 1 (transitions to half_open)
            assert breaker.state == "half_open"
            assert breaker.allow()  # probe 2
            assert not breaker.allow()  # probes exhausted

            # A half-open failure re-opens and restarts the cooldown.
            breaker.record_failure()
            assert breaker.state == "open"
            self._advance(sim, 0.5)
            assert not breaker.allow()  # still cooling down
            self._advance(sim, 1.0)
            assert breaker.allow()
            breaker.record_success()
            assert breaker.state == "closed"

            # A success resets the consecutive-failure count.
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
            breaker.record_failure()
            breaker.record_failure()
            assert breaker.state == "closed"

            # Every transition was counted in the obs plane.
            assert plane.metrics.counter_value(
                "fleet.breaker_state", state="open",
                shard="0", server="srv") == 2

    def test_retry_budget_is_a_token_bucket_on_the_clock(self):
        sim = Simulator()
        policy = ResiliencePolicy(
            retry_budget_capacity=2.0, retry_budget_refill_per_sec=1.0)
        budget = RetryBudget(lambda: sim.now, policy)
        assert budget.take() and budget.take()
        assert not budget.take()  # exhausted
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert budget.take()  # one token refilled over one virtual second
        assert not budget.take()


class TestRetryStorm:
    def test_redials_bounded_by_budget_with_breaker_open(self):
        """Eight sessions dial a dead server: total redials across the
        storm stay within the retry budget, the breaker opens, and every
        session settles (failed or shed) instead of amplifying."""
        seed = b"retry-storm"
        with obs.scoped() as plane:
            resilience = ResiliencePolicy(
                breaker_failure_threshold=3,
                breaker_cooldown=60.0,  # never half-opens inside the test
                retry_budget_capacity=2.0,
                retry_budget_refill_per_sec=0.0,
            )
            orchestrator = SessionOrchestrator(
                seed, num_shards=1, resilience=resilience)
            shard = orchestrator.shards[0]
            pki = Pki(rng=HmacDrbg(seed, personalization=b"pki"))
            make_client = _build_single_session_world(
                seed, network=shard.network, rng=shard.rng, pki=pki)
            shard.network.crash_host("server")  # refuses every SYN

            def factory(shard_obj, on_state):
                return SessionSupervisor(
                    shard.network.host("client"), "server", make_client,
                    start=False, on_state=on_state,
                )

            for case in range(8):
                orchestrator.submit(
                    0, factory, info={"server": "server", "case": case})
            orchestrator.sim.run()
            orchestrator.drain(timeout=120.0)

            outcomes = [entry["outcome"] for entry in shard.ledger]
            assert len(outcomes) == 8
            assert all(outcome in ("failed", "shed") for outcome in outcomes)
            # The storm's redials are bounded by the token bucket, not by
            # sessions x max_attempts (which would be 8 x attempts).
            redials = plane.metrics.counter_value(
                "supervisor_redials", destination="server")
            assert 0 < redials <= resilience.retry_budget_capacity
            assert plane.metrics.counter_value(
                "fleet.retry_denied", shard="0", reason="breaker") > 0
            assert shard.breaker("server").state == "open"


class TestPermissivePolicy:
    def test_permissive_gate_never_denies(self):
        """The clean churn bench's policy must survive redial bursts far
        past anything an 11k-session ramp produces (the tight default
        opens after 5 consecutive failures and ~6 budget tokens)."""
        shard = SessionOrchestrator(
            b"permissive", num_shards=1,
            resilience=ResiliencePolicy.permissive(),
        ).shards[0]
        assert all(shard.allow_retry("srv") for _ in range(10_000))
        assert shard.breaker("srv").state == "closed"

    def test_bench_arms_the_tight_gate_only_under_chaos(self):
        from repro.bench.fleet import _resilience_for

        clean = _resilience_for(FleetConfig())
        assert clean == ResiliencePolicy.permissive()
        chaos = _resilience_for(FleetConfig(chaos=True))
        assert chaos == ResiliencePolicy()
        # The tight gate really is tight — the storm tests above rely
        # on the chaos bench keeping these within reach.
        assert chaos.breaker_failure_threshold <= 8
        assert chaos.retry_budget_capacity < float("inf")


# ---------------------------------------------------------------------- chaos


CHAOS_SMALL = FleetConfig(
    sessions=120,
    num_shards=2,
    servers_per_shard=2,
    arrival_ramp=4.0,
    session_lifetime=8.0,
    chaos=True,
    chaos_horizon=6.0,
)


@pytest.fixture(scope="module")
def chaos_report():
    return run_fleet(CHAOS_SMALL)


class TestChaosFleet:
    def test_schema_and_verdict_accounting(self, chaos_report):
        assert chaos_report["bench"] == "fleet_chaos"
        assert chaos_report["schema_version"] == FLEET_CHAOS_SCHEMA_VERSION
        verdicts = chaos_report["chaos"]["verdicts"]
        assert set(verdicts) == {
            "clean", "recovered", "degraded", "failed", "shed"}
        # Every root arrival chain (warmup + bulk) got exactly one verdict;
        # redials extend chains, they don't create new ones.
        roots = (CHAOS_SMALL.sessions
                 + CHAOS_SMALL.num_shards * CHAOS_SMALL.servers_per_shard)
        assert sum(verdicts.values()) == roots

    def test_middlebox_crash_fails_over_and_sessions_recover(self, chaos_report):
        chaos = chaos_report["chaos"]
        assert chaos["faults"].get("crash", 0) > 0
        assert chaos["failover"]["activations"] > 0
        assert chaos["failover"]["restores"] > 0
        assert chaos["verdicts"]["recovered"] > 0
        assert chaos["recovery_virtual_seconds"] >= 0.0

    def test_zero_stuck_sessions_after_drain(self, chaos_report):
        assert chaos_report["chaos"]["stuck_sessions"] == 0

    def test_same_seed_byte_identical_chaos_report(self, chaos_report):
        again = run_fleet(CHAOS_SMALL)
        assert chaos_report["digest"] == again["digest"]
        assert (
            json.dumps(deterministic_core(chaos_report), sort_keys=True)
            == json.dumps(deterministic_core(again), sort_keys=True)
        )

    def test_solo_shard_chaos_replay_matches_fleet(self, chaos_report):
        solo = run_fleet(CHAOS_SMALL, only_shard=0)
        assert (
            solo["digests"]["shards"]["0"]
            == chaos_report["digests"]["shards"]["0"]
        )


# ------------------------------------------------------------- baseline gate


class TestFleetBaselineGate:
    def test_baseline_passes_itself_and_flags_drift(self, small_report):
        assert check_fleet_baseline(small_report, small_report) == []

        worse = json.loads(json.dumps(small_report))
        worse["handshake_seconds"]["p50"] *= 2.0
        worse["resumption"]["hit_rate"] = (
            small_report["resumption"]["hit_rate"] - 0.2)
        worse["sessions"]["failed"] = 3
        worse["sim"]["events"] = small_report["sim"]["events"] * 2
        problems = check_fleet_baseline(worse, small_report)
        assert any("p50" in problem for problem in problems)
        assert any("hit-rate" in problem for problem in problems)
        assert any("failed" in problem for problem in problems)
        assert any("events per established" in problem for problem in problems)

    def test_schema_mismatch_is_flagged(self, small_report):
        stale = json.loads(json.dumps(small_report))
        stale["schema_version"] = FLEET_SCHEMA_VERSION + 1
        problems = check_fleet_baseline(small_report, stale)
        assert any("schema_version" in problem for problem in problems)


# ----------------------------------------------------------- drain diagnostics


class TestDrainDiagnostics:
    def test_drain_timeout_reports_stuck_shards(self):
        orchestrator = SessionOrchestrator(b"stuck", num_shards=2)

        def factory(shard, on_state):
            return _FakeSupervisor(on_state)  # admitted but never settles

        orchestrator.submit(1, factory, info={"server": "srv"})
        with pytest.raises(SimulationError) as excinfo:
            orchestrator.drain(timeout=0.05)

        diagnostics = excinfo.value.diagnostics
        assert diagnostics["stuck_sessions"] == 1
        by_shard = {entry["shard"]: entry for entry in diagnostics["shards"]}
        assert by_shard[0]["inflight"] == 0
        assert by_shard[1]["inflight"] == 1
        assert by_shard[1]["supervisors"][0]["server"] == "srv"
        # The rendered message names the stuck shard, not just "timeout".
        assert "shard 1" in str(excinfo.value)

    def test_settled_drain_raises_nothing(self):
        orchestrator = SessionOrchestrator(b"calm", num_shards=1)
        orchestrator.drain(timeout=0.01)  # nothing submitted: settled
