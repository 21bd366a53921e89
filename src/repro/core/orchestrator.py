"""Fleet-scale session orchestration: sharded supervisor pools on one clock.

The paper evaluates mbTLS where middleboxes actually live — CDN edges and
enterprise proxies terminating enormous session populations — so the stack
needs to drive far more than one supervised session per scenario.  This
module turns the :class:`~repro.core.drivers.SessionSupervisor` state
machine into a population: a :class:`SessionOrchestrator` owns one
:class:`~repro.netsim.sim.Simulator` (the timer wheel makes 10^5+ live
timers cheap) and splits the fleet into independent **shards**.

Sharding is the determinism boundary, not a threading construct:

* each shard derives its RNG as ``HmacDrbg(seed, personalization=
  b"fleet/shard/<id>")`` — *splitting*, not forking, so the derivation is
  order-independent and any shard's stream can be reconstructed from
  ``(seed, shard_id)`` alone;
* each shard gets its own :class:`~repro.netsim.network.Network` on the
  shared simulator, its own resumption stores (client, middlebox,
  server-side), and its own session ledger;
* shards never exchange state, and admission control is per-shard, so a
  shard replayed alone is byte-identical to the same shard inside a full
  fleet run (the cross-shard event interleaving on the shared clock cannot
  be observed from inside a shard).

Admission control and backpressure: sessions are *submitted* (queued) and
then *admitted* — started — only while the shard has handshake slots free
and no registered middlebox outbox sits above the high watermark of its
4 MiB bound.  Deferred admissions retry on a short timer, so a drained
outbox reopens the gate deterministically.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.core.config import SessionEstablished
from repro.core.drivers import MiddleboxService, SessionSupervisor
from repro.core.resumption import MiddleboxSessionStore
from repro.crypto.drbg import HmacDrbg
from repro.errors import SimulationError
from repro.netsim.network import Network
from repro.netsim.sim import Simulator
from repro.tls.session import ClientSessionStore, ServerSessionCache

__all__ = [
    "CircuitBreaker",
    "FailoverGroup",
    "ResiliencePolicy",
    "RetryBudget",
    "SessionOrchestrator",
    "Shard",
    "shard_rng",
]

#: A supervisor factory: builds a deferred (``start=False``) supervisor
#: wired to the orchestrator's state hook.  The orchestrator starts it
#: once admission control lets it through.
SessionFactory = Callable[
    ["Shard", Callable[[SessionSupervisor, str], None]], SessionSupervisor
]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Anti-amplification knobs for a shard's admission and retry path.

    The defaults are the *production-style* policy the chaos bench runs
    under: tight enough that a retry storm against a crashed server is
    cut off within a handful of redials.  They are **not** loose enough
    for an inelastic load generator — a congested churn ramp produces
    legitimate redial bursts that a consecutive-failure breaker cannot
    tell apart from a storm (it has no notion of offered load).  Callers
    replaying fixed arrival plans that must all succeed, like the clean
    ``BENCH_fleet.json`` bench, should pass :meth:`permissive` instead.

    Attributes:
        breaker_failure_threshold: consecutive failures against one
            ``(shard, server)`` before the breaker opens.
        breaker_cooldown: virtual seconds an open breaker waits before
            letting half-open probes through.
        breaker_half_open_probes: concurrent probes allowed while
            half-open; one success closes the breaker, one failure
            re-opens it.
        retry_budget_capacity: token-bucket size for redials against one
            ``(shard, server)``.
        retry_budget_refill_per_sec: tokens regained per virtual second.
        shed_ceiling: admission is *shed* (rejected outright, not
            deferred) while ``inflight/max_inflight + outbox_fill``
            meets this ceiling — deferring under combined overload only
            grows the queue the next fault wave will amplify.
    """

    breaker_failure_threshold: int = 5
    breaker_cooldown: float = 2.0
    breaker_half_open_probes: int = 2
    retry_budget_capacity: float = 6.0
    retry_budget_refill_per_sec: float = 2.0
    shed_ceiling: float = 1.5

    @classmethod
    def permissive(cls) -> "ResiliencePolicy":
        """A policy whose retry gate never denies.

        Backpressure deferral and overload shedding stay armed (they key
        off real queue state, not failure counts); only the breaker and
        budget thresholds are pushed out of reach.  This is what a clean
        churn bench wants: every planned arrival must eventually land,
        so congestion-induced redials are legitimate work, not a storm.
        """
        return cls(
            breaker_failure_threshold=10**9,
            retry_budget_capacity=float("inf"),
        )


class CircuitBreaker:
    """A closed/open/half-open breaker on the virtual clock.

    State machine (transitions counted in ``fleet.breaker_state``):

    * ``closed`` — normal; ``breaker_failure_threshold`` *consecutive*
      failures open it.
    * ``open`` — :meth:`allow` refuses everything until ``breaker_cooldown``
      virtual seconds have passed since opening.
    * ``half_open`` — up to ``breaker_half_open_probes`` calls are let
      through; the first success closes the breaker, the first failure
      re-opens it (and restarts the cooldown).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        clock: Callable[[], float],
        policy: ResiliencePolicy,
        **labels: str,
    ) -> None:
        self._clock = clock
        self._policy = policy
        self._labels = labels
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self._probes = 0
        self.transitions: list[tuple[float, str]] = []

    def _transition(self, state: str) -> None:
        self.state = state
        self.transitions.append((self._clock(), state))
        obs.counter("fleet.breaker_state", state=state, **self._labels).inc()

    def _service(self) -> None:
        """Clock-driven transition: open -> half_open after the cooldown."""
        if (
            self.state == self.OPEN
            and self._clock() >= self.opened_at + self._policy.breaker_cooldown
        ):
            self._probes = 0
            self._transition(self.HALF_OPEN)

    def allow(self) -> bool:
        """May another attempt be sent toward this server right now?"""
        self._service()
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            return False
        if self._probes < self._policy.breaker_half_open_probes:
            self._probes += 1
            return True
        return False

    def record_success(self) -> None:
        self._service()
        self.consecutive_failures = 0
        if self.state != self.CLOSED:
            self._transition(self.CLOSED)

    def record_failure(self) -> None:
        self._service()
        if self.state == self.HALF_OPEN:
            self.opened_at = self._clock()
            self._transition(self.OPEN)
            return
        if self.state == self.OPEN:
            return  # straggler reports from attempts predating the trip
        self.consecutive_failures += 1
        if self.consecutive_failures >= self._policy.breaker_failure_threshold:
            self.opened_at = self._clock()
            self._transition(self.OPEN)


class RetryBudget:
    """A token bucket on the virtual clock bounding redials per server."""

    def __init__(self, clock: Callable[[], float], policy: ResiliencePolicy) -> None:
        self._clock = clock
        self._capacity = float(policy.retry_budget_capacity)
        self._refill = float(policy.retry_budget_refill_per_sec)
        self.tokens = self._capacity
        self._last = clock()

    def take(self) -> bool:
        """Spend one token; ``False`` means the budget is exhausted."""
        now = self._clock()
        self.tokens = min(
            self._capacity, self.tokens + (now - self._last) * self._refill
        )
        self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class FailoverGroup:
    """A primary/standby middlebox pair sharing identity and session cache.

    The standby is a :class:`~repro.core.drivers.MiddleboxService` built
    with ``active=False`` on a separate host along the same path, using
    the *same* credential and the *same* shard-wide session cache, so
    abbreviated secondary handshakes survive the failover.  On the
    primary's crash the controller drains the primary's dead connections
    and activates the standby; on restart it fails back.
    """

    def __init__(
        self,
        shard_label: str,
        primary: MiddleboxService,
        standby: MiddleboxService,
    ) -> None:
        self.shard_label = shard_label
        self.primary = primary
        self.standby = standby
        self.failovers = 0
        self.failbacks = 0
        self.sessions_drained = 0

    def fail_over(self) -> None:
        """Primary crashed: drain its sessions, promote the standby."""
        if self.standby.active:
            return
        self.sessions_drained += self.primary.drain_sessions()
        self.primary.active = False
        self.standby.reinstall()
        self.failovers += 1
        obs.counter(
            "fleet.failover", shard=self.shard_label, event="activate"
        ).inc()

    def fail_back(self) -> None:
        """Primary restarted: re-register it, demote the standby.

        Sessions split at the standby keep running (uninstall only stops
        new SYNs); new arrivals go through the primary again.
        """
        if not self.standby.active:
            self.primary.reinstall()
            return
        self.primary.reinstall()
        self.standby.uninstall()
        self.failbacks += 1
        obs.counter(
            "fleet.failover", shard=self.shard_label, event="restore"
        ).inc()


def shard_rng(seed: bytes, shard_id: int) -> HmacDrbg:
    """The shard's RNG from ``(seed, shard_id)`` alone.

    Personalization-based *splitting* (unlike :meth:`HmacDrbg.fork`, which
    consumes parent state in call order) keeps the derivation independent
    of how many shards exist or when they are built — the replay property
    the per-shard determinism tests pin.
    """
    return HmacDrbg(seed, personalization=b"fleet/shard/%d" % shard_id)


class Shard:
    """One independent slice of the fleet: network, stores, pool, ledger."""

    def __init__(self, shard_id: int, seed: bytes, sim: Simulator,
                 store_capacity: int = 4096,
                 resilience: ResiliencePolicy | None = None) -> None:
        self.id = shard_id
        self.label = str(shard_id)
        self.rng = shard_rng(seed, shard_id)
        self.network = Network(sim)
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        # Resumption state is shard-wide: every client in the shard shares
        # the stores, so one cold full handshake per server seeds
        # abbreviated handshakes for the rest of the shard's population.
        self.client_sessions = ClientSessionStore(capacity=store_capacity)
        self.middlebox_sessions = MiddleboxSessionStore(
            capacity=store_capacity, shard=self.label
        )
        self.server_cache = ServerSessionCache(capacity=store_capacity)
        self.middlebox_cache = ServerSessionCache(capacity=store_capacity)
        #: Middlebox services watched for outbox backpressure.
        self.services: list[MiddleboxService] = []
        self.failover_groups: list[FailoverGroup] = []
        self.pending: deque[tuple[SessionFactory, dict]] = deque()
        self.inflight = 0  # supervisors between start() and a settled outcome
        self.live = 0  # established sessions not yet closed
        self.peak_live = 0
        self.ledger: list[dict] = []
        self._retry_scheduled = False
        # Anti-amplification state, lazily created per destination server.
        self._breakers: dict[str, CircuitBreaker] = {}
        self._budgets: dict[str, RetryBudget] = {}
        # Bound once: every supervisor admitted here shares this gate.
        self._allow_retry = self.allow_retry

    def watch_service(self, service: MiddleboxService) -> None:
        """Register a middlebox service for admission backpressure."""
        self.services.append(service)

    def register_failover(self, group: FailoverGroup) -> None:
        """Adopt a primary/standby pair; both sides feed backpressure."""
        self.failover_groups.append(group)
        for service in (group.primary, group.standby):
            if service not in self.services:
                self.watch_service(service)

    # ------------------------------------------------- anti-amplification

    def breaker(self, server: str) -> CircuitBreaker:
        """The circuit breaker guarding this ``(shard, server)`` pair."""
        instance = self._breakers.get(server)
        if instance is None:
            instance = self._breakers[server] = CircuitBreaker(
                lambda: self.network.sim.now, self.resilience,
                shard=self.label, server=server,
            )
        return instance

    def retry_budget(self, server: str) -> RetryBudget:
        instance = self._budgets.get(server)
        if instance is None:
            instance = self._budgets[server] = RetryBudget(
                lambda: self.network.sim.now, self.resilience
            )
        return instance

    def allow_retry(self, server: str) -> bool:
        """The supervisor retry gate for this shard.

        A redial request *is* a failure report (the previous attempt
        died), so it feeds the breaker before consulting it; then the
        token bucket bounds how fast even a closed breaker lets redials
        through.
        """
        breaker = self.breaker(server)
        breaker.record_failure()
        if not breaker.allow():
            obs.counter(
                "fleet.retry_denied", shard=self.label, reason="breaker"
            ).inc()
            return False
        if not self.retry_budget(server).take():
            obs.counter(
                "fleet.retry_denied", shard=self.label, reason="budget"
            ).inc()
            return False
        return True

    def record_outcome(self, server: str, ok: bool) -> None:
        """Feed a terminal session outcome into the server's breaker."""
        if ok:
            self.breaker(server).record_success()
        else:
            self.breaker(server).record_failure()

    def outbox_fill(self) -> float:
        """Fullest middlebox outbound buffer across the shard (fraction)."""
        return max(
            (service.max_outbox_fill() for service in self.services),
            default=0.0,
        )

    def digest(self) -> str:
        """Canonical hash of this shard's session ledger.

        Derived only from shard-local state (never the global obs plane),
        so it is identical between a full-fleet run and a solo replay of
        this shard from ``(seed, shard_id)``.
        """
        canonical = json.dumps(self.ledger, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


class SessionOrchestrator:
    """Drives sharded supervisor pools with admission control.

    Args:
        seed: fleet master seed; shard RNGs split from it.
        num_shards: independent determinism domains.
        sim: shared simulator (a fresh one with the default timer wheel
            when omitted).
        max_inflight_per_shard: handshake-concurrency cap — how many
            supervisors per shard may sit between dial and outcome.
        outbox_high_watermark: fraction of the 4 MiB middlebox outbox
            bound above which admissions are deferred.
        admission_retry: virtual seconds between admission retries while
            backpressured.
        store_capacity: capacity of each per-shard resumption store.
        resilience: anti-amplification policy shared by every shard
            (breakers, retry budgets, the shed ceiling).
    """

    def __init__(
        self,
        seed: bytes,
        num_shards: int = 4,
        sim: Simulator | None = None,
        max_inflight_per_shard: int = 64,
        outbox_high_watermark: float = 0.75,
        admission_retry: float = 0.005,
        store_capacity: int = 4096,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.seed = seed
        self.sim = sim if sim is not None else Simulator()
        self.max_inflight_per_shard = max_inflight_per_shard
        self.outbox_high_watermark = outbox_high_watermark
        self.admission_retry = admission_retry
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        self.shards = [
            Shard(i, seed, self.sim, store_capacity=store_capacity,
                  resilience=self.resilience)
            for i in range(num_shards)
        ]
        # Supervisor -> (shard, open ledger entry).  Keyed by the object
        # (identity hash) so the supervisor stays alive until it settles.
        self._active: dict[SessionSupervisor, tuple[Shard, dict]] = {}
        # Bound once: every factory gets the same state hook.
        self._state_hook = self._on_state
        #: Highest number of simultaneously-live sessions across the whole
        #: fleet (a true instantaneous maximum, unlike the sum of per-shard
        #: peaks, which may have occurred at different times).
        self.peak_concurrent = 0

    # ------------------------------------------------------------------ API

    def submit(self, shard_id: int, factory: SessionFactory,
               info: dict | None = None) -> None:
        """Queue a session for admission on ``shard_id``.

        ``factory(shard, on_state)`` must return a supervisor built with
        ``start=False`` and the given ``on_state`` hook; the orchestrator
        starts it when a handshake slot is free and backpressure allows.
        ``info`` labels the session in the shard ledger (site, server, …).
        """
        shard = self.shards[shard_id]
        shard.pending.append((factory, dict(info or {})))
        self._admit(shard)

    @property
    def live_sessions(self) -> int:
        return sum(shard.live for shard in self.shards)

    @property
    def peak_live_sessions(self) -> int:
        return sum(shard.peak_live for shard in self.shards)

    def annotate(self, supervisor: SessionSupervisor, **fields) -> None:
        """Attach extra fields to a still-open ledger entry.

        No-op once the session has settled — annotations race only
        against the entry's own close, never corrupt settled history.
        """
        active = self._active.get(supervisor)
        if active is not None:
            active[1].update(fields)

    def drain(self, timeout: float = 600.0) -> None:
        """Run the clock until every submitted session has settled.

        Raises :class:`~repro.errors.SimulationError` carrying per-shard
        stuck-session diagnostics if the fleet has not settled within
        ``timeout`` virtual seconds.
        """

        def settled() -> bool:
            return all(
                not shard.pending and shard.inflight == 0 and shard.live == 0
                for shard in self.shards
            )

        if self.sim.run_until(settled, timeout=timeout) or settled():
            return
        report = self.stuck_report()
        lines = [
            f"fleet drain timed out after {timeout} virtual seconds "
            f"({report['stuck_sessions']} stuck sessions, "
            f"{report['pending_events']} pending events):"
        ]
        for shard_report in report["shards"]:
            lines.append(
                "  shard %s: pending=%d inflight=%d live=%d" % (
                    shard_report["shard"], shard_report["pending"],
                    shard_report["inflight"], shard_report["live"],
                )
            )
            for sup in shard_report["supervisors"]:
                lines.append(
                    "    %s state=%s attempt=%d timers=%d" % (
                        sup["destination"], sup["state"],
                        sup["attempt"], sup["pending_timers"],
                    )
                )
        error = SimulationError("\n".join(lines))
        error.diagnostics = report
        raise error

    def stuck_report(self) -> dict:
        """Per-shard diagnostics for sessions that refuse to settle."""
        shards = []
        stuck = 0
        for shard in self.shards:
            supervisors = []
            for supervisor, (owner, entry) in self._active.items():
                if owner is not shard:
                    continue
                driver = getattr(supervisor, "driver", None)
                timers = 0 if driver is None else driver.pending_timer_count
                supervisors.append({
                    "destination": getattr(supervisor, "destination", "?"),
                    "state": getattr(supervisor, "state", "?"),
                    "attempt": getattr(supervisor, "attempt", 0),
                    "pending_timers": timers,
                    "server": entry.get("server"),
                })
                if len(supervisors) >= 8:
                    break
            stuck += shard.inflight + shard.live + len(shard.pending)
            shards.append({
                "shard": shard.id,
                "pending": len(shard.pending),
                "inflight": shard.inflight,
                "live": shard.live,
                "supervisors": supervisors,
            })
        return {
            "stuck_sessions": stuck,
            "pending_events": self.sim.pending_events,
            "shards": shards,
        }

    def digests(self) -> dict[str, str]:
        """Per-shard ledger digests plus the combined fleet digest."""
        per_shard = {shard.label: shard.digest() for shard in self.shards}
        combined = hashlib.sha256(
            "".join(per_shard[label] for label in sorted(per_shard)).encode()
        ).hexdigest()
        return {"shards": per_shard, "fleet": combined}

    # ------------------------------------------------------------ internals

    def _admit(self, shard: Shard) -> None:
        while shard.pending:
            fill = shard.outbox_fill()
            overload = shard.inflight / self.max_inflight_per_shard + fill
            if overload >= shard.resilience.shed_ceiling:
                # Combined overload: deferring would only grow a queue the
                # next fault wave amplifies, so reject outright.
                factory, info = shard.pending.popleft()
                self._shed(shard, info, reason="overload")
                continue
            if shard.inflight >= self.max_inflight_per_shard:
                break
            if fill >= self.outbox_high_watermark:
                obs.counter(
                    "fleet.admission_deferred", shard=shard.label,
                    reason="backpressure",
                ).inc()
                self._schedule_retry(shard)
                return
            factory, info = shard.pending.popleft()
            server = info.get("server")
            if server is not None and not shard.breaker(server).allow():
                self._shed(shard, info, reason="breaker_open")
                continue
            supervisor = factory(shard, self._state_hook)
            if getattr(supervisor, "retry_gate", None) is None:
                supervisor.retry_gate = shard._allow_retry
            entry = {
                **info,
                "shard": shard.id,
                "submitted_at": round(self.sim.now, 9),
            }
            shard.inflight += 1
            self._active[supervisor] = (shard, entry)
            obs.counter("fleet.sessions_admitted", shard=shard.label).inc()
            supervisor.start()
        if shard.pending:
            obs.counter(
                "fleet.admission_deferred", shard=shard.label, reason="capacity"
            ).inc()

    def _shed(self, shard: Shard, info: dict, reason: str) -> None:
        """Reject a submission without admitting it (counted, ledgered)."""
        shard.ledger.append({
            **info,
            "shard": shard.id,
            "submitted_at": round(self.sim.now, 9),
            "outcome": "shed",
            "shed_reason": reason,
        })
        obs.counter("fleet.shed", shard=shard.label, reason=reason).inc()

    def _schedule_retry(self, shard: Shard) -> None:
        if shard._retry_scheduled:
            return
        shard._retry_scheduled = True

        def retry() -> None:
            shard._retry_scheduled = False
            self._admit(shard)

        self.sim.schedule(self.admission_retry, retry)

    def _on_state(self, supervisor: SessionSupervisor, state: str) -> None:
        active = self._active.get(supervisor)
        if active is None:
            return
        shard, entry = active
        if state in ("established", "degraded"):
            shard.inflight -= 1
            shard.live += 1
            if shard.live > shard.peak_live:
                shard.peak_live = shard.live
            total_live = self.live_sessions
            if total_live > self.peak_concurrent:
                self.peak_concurrent = total_live
            entry["outcome"] = state
            entry["attempts"] = supervisor.attempt
            entry["resumed"] = self._resumed(supervisor)
            latency = supervisor.handshake_latency
            entry["handshake_seconds"] = (
                None if latency is None else round(latency, 9)
            )
            obs.gauge("fleet.live_sessions", shard=shard.label).set(shard.live)
            obs.histogram("fleet.handshake_seconds", shard=shard.label).observe(
                latency if latency is not None else 0.0
            )
            server = entry.get("server")
            if server is not None:
                shard.record_outcome(server, ok=True)
            self._admit(shard)
        elif state in ("failed", "aborted"):
            shard.inflight -= 1
            entry.setdefault("outcome", state)
            entry["attempts"] = supervisor.attempt
            entry["failure"] = supervisor.failure
            server = entry.get("server")
            if server is not None:
                shard.record_outcome(server, ok=False)
            self._settle(shard, supervisor, entry)
            self._admit(shard)
        elif state == "closed":
            shard.live -= 1
            entry["closed_at"] = round(self.sim.now, 9)
            obs.gauge("fleet.live_sessions", shard=shard.label).set(shard.live)
            self._settle(shard, supervisor, entry)

    @staticmethod
    def _resumed(supervisor: SessionSupervisor) -> bool:
        for event in reversed(supervisor.events):
            if isinstance(event, SessionEstablished):
                return bool(getattr(event, "resumed", False))
        return False

    def _settle(self, shard: Shard, supervisor: SessionSupervisor,
                entry: dict) -> None:
        self._active.pop(supervisor, None)
        shard.ledger.append(entry)
