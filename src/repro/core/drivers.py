"""Glue binding mbTLS engines to the simulated network.

* :class:`MiddleboxDriver` — runs one :class:`MbTLSMiddlebox` per intercepted
  (or directly addressed) connection, pumping both TCP segments.
* :class:`MiddleboxService` — installs a middlebox on a host, spawning one
  engine per connection; attaches to an interceptor (on-path) or a listener
  (preconfigured, directly addressed).
* :func:`serve_mbtls` / :func:`open_mbtls` — endpoint helpers.
* :class:`RetryPolicy` / :class:`SessionSupervisor` — failure recovery:
  handshake/idle timers, capped exponential-backoff redials, and the
  bypass-versus-teardown degradation policy. A supervised session always
  reaches a terminal :attr:`~SessionSupervisor.outcome`; it cannot hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro import obs
from repro.core.client import MbTLSClientEngine
from repro.core.config import MbTLSEndpointConfig, MiddleboxConfig, SessionEstablished
from repro.core.middlebox import MbTLSMiddlebox
from repro.core.server import MbTLSServerEngine
from repro.errors import DegradedPathError, NetworkError, SessionAborted
from repro.netsim.driver import CpuMeter, DuplexDriver, EngineDriver
from repro.netsim.network import Host, InterceptedFlow, Socket
from repro.tls.events import ConnectionClosed

__all__ = [
    "MiddleboxDriver",
    "MiddleboxService",
    "serve_mbtls",
    "open_mbtls",
    "PEER_FAULT_ALERTS",
    "RetryPolicy",
    "SessionSupervisor",
]

# Fatal alerts that mean the peer (or a path member) *rejected* the session:
# credential, policy, and negotiation failures. Redialing cannot change the
# answer, so the supervisor aborts instead of burning retries. Everything
# else — bad_record_mac, decode_error, record_overflow, unexpected_message,
# internal_error — is what benign path corruption looks like and stays
# retryable under the normal RetryPolicy.
PEER_FAULT_ALERTS = frozenset(
    {
        "handshake_failure",
        "bad_certificate",
        "unsupported_certificate",
        "certificate_revoked",
        "certificate_expired",
        "certificate_unknown",
        "illegal_parameter",
        "unknown_ca",
        "access_denied",
        "protocol_version",
        "insufficient_security",
        "no_renegotiation",
        "unsupported_extension",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Timer and retry defaults for supervised mbTLS sessions.

    Attributes:
        handshake_timeout: virtual seconds a session may take to establish
            before the driver degrades (bypasses stalled middleboxes) or
            fails the attempt.
        idle_timeout: data-phase silence budget; ``None`` disables it.
        max_attempts: total dial attempts (first try included).
        backoff_base: first retry delay; doubles per attempt.
        backoff_cap: upper bound on any retry delay.
        allow_degraded: endpoint policy — may the session complete without
            middleboxes that stalled or died (the paper's optimistic
            fallback)? With ``False`` a degraded completion is torn down
            and reported as failed (fail-closed).
    """

    handshake_timeout: float = 5.0
    idle_timeout: float | None = None
    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_cap: float = 4.0
    allow_degraded: bool = True

    def backoff(self, retry_index: int) -> float:
        """Delay before retry number ``retry_index`` (0-based), capped."""
        return min(self.backoff_base * (2.0 ** retry_index), self.backoff_cap)


class MiddleboxDriver(DuplexDriver):
    """A :class:`DuplexDriver` that also dials the onward (up) segment.

    Close handling comes from the base class: when either segment of the
    split TCP connection closes, the engine gets to say goodbye (a
    ``close_notify`` under the hop keys, plus closing its secondary
    subchannel) before the surviving segment is shut down.
    """

    def __init__(
        self,
        engine: MbTLSMiddlebox,
        down_socket: Socket,
        dial_up: Callable[[tuple[str, int]], Socket],
        meter: CpuMeter | None = None,
        on_event: Callable[[object], None] | None = None,
    ) -> None:
        super().__init__(engine, down_socket, meter=meter, on_event=on_event)
        self._dial_up = dial_up

    def dial_immediately(self, target: tuple[str, int]) -> None:
        """Optimistically split: open the onward segment right away."""
        try:
            self.bind_up(self._dial_up(target))
        except NetworkError:
            # Next hop unreachable: drop the client segment so the client
            # learns immediately instead of waiting on a wedged middlebox.
            self._teardown_down()

    def _after_down_data(self) -> None:
        if self.up is None and self.engine.dial_target is not None:
            try:
                self.bind_up(self._dial_up(self.engine.dial_target))
            except NetworkError:
                self._teardown_down()

    def _teardown_down(self) -> None:
        with self.meter.measure():
            events = self.engine.peer_closed_up()
        self._dispatch(events)
        if not self.down.closed:
            self._flush()
            self.down.close()
        self._notify_if_finished()


class MiddleboxService:
    """A middlebox deployment on one host, one engine per connection.

    Args:
        host: the host this middlebox runs on.
        make_config: factory producing a fresh :class:`MiddleboxConfig` per
            connection (so per-connection engines don't share TLS state);
            a plain config is also accepted and reused.
        port: the TCP port to intercept/listen on.
        listen_port: if set, also accept direct connections on this port
            (the preconfigured-middlebox deployment).
        meter: CPU meter shared across this service's connections.
    """

    def __init__(
        self,
        host: Host,
        make_config,
        port: int = 443,
        intercept: bool = True,
        listen: bool = False,
        meter: CpuMeter | None = None,
        on_event: Callable[[object], None] | None = None,
        active: bool = True,
    ) -> None:
        self.host = host
        self._make_config = make_config
        self.port = port
        self._intercept = intercept
        self._listen = listen
        self.meter = meter if meter is not None else CpuMeter(host.name)
        self.on_event = on_event
        # Live connections in arrival order; a driver leaves when both its
        # segments close.  A dict, so leaving is O(1) (see ``drivers``).
        self._live: dict[MiddleboxDriver, None] = {}
        # Live connections that arrived before their onward segment was
        # bound; each poll drops those bound since.  Every event path of a
        # driver ends in a flush toward each open segment (``bind_up``
        # included), and a closed segment finishes the driver, so only a
        # connection still unbound can hold unsent outbound bytes: the
        # backpressure signal is the fullest outbox among these.
        self._unbound: dict[MiddleboxDriver, None] = {}
        # Connections that closed since the last ``max_outbox_fill`` poll
        # (see ``drain_sessions``).
        self._closed_since_poll = 0
        #: Whether the service is registered on its host.  A *standby*
        #: replica is built with ``active=False`` and only registers when a
        #: failover controller calls :meth:`reinstall`.
        self.active = active
        if active:
            self.reinstall()

    def reinstall(self) -> None:
        """(Re-)register on the host — the crash-restart/failover hook."""
        self.active = True
        if self._intercept:
            self.host.intercept(self.port, self._on_intercept)
        if self._listen:
            self.host.listen(self.port, self._on_accept)

    def uninstall(self) -> None:
        """Deregister from the host (a standby going back to warm spare).

        Connections already split here keep running; only *new* SYNs stop
        being intercepted or accepted.
        """
        self.active = False
        self.host.stop_intercepting(self.port)
        if self._listen:
            self.host.stop_listening(self.port)

    @property
    def drivers(self) -> list[MiddleboxDriver]:
        """Live connections in arrival order (a snapshot)."""
        return list(self._live)

    def drain_sessions(self) -> int:
        """Crash hook: drop every connection this service still tracks.

        A crashed host has already reset its streams; draining closes any
        surviving segment (e.g. an onward dial that outlived the crash),
        forgets the drivers, and returns how many sessions were cut loose
        so the failover controller can account for them: every connection
        live at the last :meth:`max_outbox_fill` poll or opened since,
        including those the crash itself just reset.
        """
        drained = len(self._live) + self._closed_since_poll
        self._closed_since_poll = 0
        for driver in self._live:
            driver.on_finished = None
            for socket in (driver.down, driver.up):
                if socket is not None and not socket.closed:
                    socket.close()
        self._live.clear()
        self._unbound.clear()
        return drained

    def _config(self) -> MiddleboxConfig:
        if callable(self._make_config):
            return self._make_config()
        return self._make_config

    def _on_intercept(self, flow: InterceptedFlow) -> None:
        engine = MbTLSMiddlebox(
            self._config(), destination=flow.destination, port=flow.port
        )
        driver = MiddleboxDriver(
            engine,
            flow.socket,
            dial_up=lambda target: flow.dial_onward(),
            meter=self.meter,
            on_event=self.on_event,
        )
        driver.dial_immediately(("", flow.port))  # optimistic split
        self._track(driver)

    def _on_accept(self, socket: Socket, source: str) -> None:
        engine = MbTLSMiddlebox(self._config(), destination=None, port=self.port)
        driver = MiddleboxDriver(
            engine,
            socket,
            dial_up=lambda target: self.host.connect(target[0], target[1]),
            meter=self.meter,
            on_event=self.on_event,
        )
        self._track(driver)

    def _track(self, driver: MiddleboxDriver) -> None:
        """Keep ``driver`` in :attr:`drivers` until both its segments close."""
        if driver.finished:
            # The onward dial failed and tore the connection down.
            self._closed_since_poll += 1
            return
        driver.on_finished = self._forget
        self._live[driver] = None
        if driver.up is None:
            self._unbound[driver] = None

    def _forget(self, driver: MiddleboxDriver) -> None:
        del self._live[driver]
        self._unbound.pop(driver, None)
        self._closed_since_poll += 1

    def max_outbox_fill(self) -> float:
        """Fullest outbound buffer across live connections (0.0–1.0+).

        The service-level backpressure signal an orchestrator polls before
        admitting more sessions through this middlebox.  It reads only the
        connections still waiting for their onward segment, the only ones
        that can hold unsent bytes, so a poll costs nothing per session
        that is up; finished connections leave :attr:`drivers` when they
        close, so a long churn run never retains every session either.
        """
        self._closed_since_poll = 0
        unbound = self._unbound
        for driver in [driver for driver in unbound if driver.up is not None]:
            del unbound[driver]
        return max(
            (driver.engine.outbox_fill for driver in unbound), default=0.0
        )


def serve_mbtls(
    host: Host,
    make_config: Callable[[], MbTLSEndpointConfig],
    on_session: Callable[[MbTLSServerEngine, EngineDriver], None] | None = None,
    on_event: Callable[[MbTLSServerEngine, EngineDriver, object], None] | None = None,
    port: int = 443,
    meter: CpuMeter | None = None,
    policy: RetryPolicy | None = None,
) -> None:
    """Run an mbTLS server on ``host``: one engine per accepted connection.

    With a ``policy``, each accepted session gets a handshake timer: stalled
    middlebox announcements are bypassed once it fires (or the session is
    closed if the primary handshake itself stalled), so a broken path can
    never wedge a server-side session open forever.
    """
    service_meter = meter if meter is not None else CpuMeter(host.name)

    def accept(socket: Socket, source: str) -> None:
        engine = MbTLSServerEngine(make_config())
        driver = EngineDriver(
            engine,
            socket,
            meter=service_meter,
            handshake_timeout=policy.handshake_timeout if policy else None,
            idle_timeout=policy.idle_timeout if policy else None,
        )
        if on_event is not None:
            driver.on_event = partial(on_event, engine, driver)
        driver.start()
        if on_session is not None:
            on_session(engine, driver)

    host.listen(port, accept)


def open_mbtls(
    host: Host,
    destination: str,
    config: MbTLSEndpointConfig,
    on_event: Callable[[object], None] | None = None,
    port: int = 443,
    meter: CpuMeter | None = None,
    policy: RetryPolicy | None = None,
) -> tuple[MbTLSClientEngine, EngineDriver]:
    """Open an mbTLS client connection from ``host`` to ``destination``.

    With a ``policy`` the single attempt is armed with its timers; for full
    redial-with-backoff supervision use :class:`SessionSupervisor`.
    """
    engine = MbTLSClientEngine(config)
    socket = host.connect(destination, port)
    driver = EngineDriver(
        engine,
        socket,
        on_event=on_event,
        meter=meter,
        handshake_timeout=policy.handshake_timeout if policy else None,
        idle_timeout=policy.idle_timeout if policy else None,
    )
    driver.start()
    return engine, driver


class SessionSupervisor:
    """Failure-recovery wrapper around an mbTLS client session.

    Dials, arms the handshake timer, and — when an attempt times out or the
    transport resets under it — redials with capped exponential backoff
    using a fresh engine. Every supervised session ends in exactly one
    terminal outcome:

    * ``"established"`` — full-strength session on the first attempt;
    * ``"degraded"`` — the session works, but only after retries and/or
      with middleboxes bypassed (allowed iff ``policy.allow_degraded``);
    * ``"failed"`` — attempts exhausted (or degradation forbidden); the
      last attempt was closed cleanly;
    * ``"aborted"`` — a peer-fault fatal alert (see
      :data:`PEER_FAULT_ALERTS`) ended the attempt: the peer or a path
      member rejected us, so no redial is scheduled. :attr:`abort` carries
      the originating hop and alert description.

    The supervisor never raises out of the event loop and never hangs: the
    worst case is ``max_attempts`` timer horizons plus backoff.

    The lifecycle is a scheduler-driven state machine — every transition
    happens inside a simulator callback (socket event, timer, backoff
    timer), never inside a pump loop::

        pending → dialing → handshaking → established | degraded → closed
                      ↑          |
                      └─ backoff ┘        (plus terminal failed / aborted)

    :attr:`state` names the current node; ``on_state`` observes every
    transition, which is how an orchestrator drives thousands of sessions
    without polling.  ``start=False`` defers the first dial (state stays
    ``"pending"``) so an admission controller can hold sessions back and
    release them with :meth:`start`.
    """

    def __init__(
        self,
        host: Host,
        destination: str,
        make_config: Callable[[], MbTLSEndpointConfig],
        on_event: Callable[[object], None] | None = None,
        port: int = 443,
        meter: CpuMeter | None = None,
        policy: RetryPolicy | None = None,
        start: bool = True,
        on_state: Callable[["SessionSupervisor", str], None] | None = None,
        retry_gate: Callable[[str], bool] | None = None,
    ) -> None:
        self.host = host
        self.destination = destination
        self._make_config = make_config
        self._user_on_event = on_event
        self.port = port
        self.meter = meter if meter is not None else CpuMeter(host.name)
        self.policy = policy if policy is not None else RetryPolicy()
        #: Anti-amplification hook: consulted with the destination before
        #: every redial.  Returning ``False`` (a spent retry budget or an
        #: open circuit breaker) fails the session instead of dialing —
        #: a retry storm cannot outrun the gate.  ``None`` means ungated
        #: (the historical standalone-supervisor behaviour); a fleet
        #: orchestrator injects its per-``(shard, server)`` gate at
        #: admission time.
        self.retry_gate = retry_gate
        self.attempt = 0
        self.state = "pending"
        self.outcome: str | None = None
        self.failure: str | None = None
        self.degraded_refused = False
        self.abort: SessionAborted | None = None
        self.engine: MbTLSClientEngine | None = None
        self.driver: EngineDriver | None = None
        self.events: list[object] = []
        self.first_dial_at: float | None = None
        self.established_at: float | None = None
        self._attempt_span = None
        self._on_state = on_state
        if start:
            self.start()

    # ------------------------------------------------------------------ API

    @property
    def established(self) -> bool:
        return self.outcome in ("established", "degraded")

    @property
    def handshake_latency(self) -> float | None:
        """Virtual seconds from the first dial to establishment (retries
        and backoff included), or ``None`` before the session is up."""
        if self.first_dial_at is None or self.established_at is None:
            return None
        return self.established_at - self.first_dial_at

    def start(self) -> None:
        """Begin dialing a deferred (``start=False``) supervisor."""
        if self.state != "pending":
            raise NetworkError(f"cannot start a session in state {self.state!r}")
        self.first_dial_at = self.host.network.sim.now
        self._dial()

    def send_application_data(self, data: bytes) -> None:
        if self.degraded_refused:
            raise DegradedPathError(
                "session degraded and policy forbids the weakened path"
            )
        if not self.established or self.driver is None:
            raise NetworkError("session is not established")
        if self.driver.session_over:
            raise NetworkError("session is over")
        self.driver.send_application_data(data)

    def close(self) -> None:
        if self.driver is not None and not self.driver.session_over:
            self.driver.close()
        if self.established and self.state != "closed":
            self._set_state("closed")

    # ------------------------------------------------------------ internals

    def _set_state(self, state: str) -> None:
        self.state = state
        if self._on_state is not None:
            self._on_state(self, state)

    def _finish(self, outcome: str) -> None:
        self.outcome = outcome
        if outcome in ("established", "degraded"):
            self.established_at = self.host.network.sim.now
        obs.counter(
            "supervisor_outcomes", destination=self.destination, outcome=outcome
        ).inc()
        obs.tracer().end(self._attempt_span, outcome=outcome)
        self._set_state(outcome)

    def _dial(self) -> None:
        self.attempt += 1
        self._set_state("dialing")
        obs.counter("supervisor_dials", destination=self.destination).inc()
        self._attempt_span = obs.tracer().begin(
            "session.attempt", party=self.host.name,
            attempt=self.attempt, destination=self.destination,
        )
        try:
            socket = self.host.connect(self.destination, self.port)
        except NetworkError as exc:
            self._attempt_over(str(exc))
            return
        engine = MbTLSClientEngine(self._make_config())
        self.engine = engine
        self.driver = EngineDriver(
            engine,
            socket,
            on_event=self._on_event,
            meter=self.meter,
            handshake_timeout=self.policy.handshake_timeout,
            idle_timeout=self.policy.idle_timeout,
            on_timeout=self._on_timeout,
        )
        self._set_state("handshaking")
        self.driver.start()

    def _on_event(self, event: object) -> None:
        self.events.append(event)
        if isinstance(event, SessionEstablished) and self.outcome is None:
            # Degraded = reached a session, but not the one we dialed for:
            # it took retries, or the engine recorded fallback decisions
            # (bypassed, failed, or policy-rejected path members). Each
            # engine-side decision already carries its own session.fallback
            # counter; the retry path is the supervisor's own decision, so
            # it is accounted here.
            fallbacks = tuple(getattr(self.engine, "fallback_decisions", ()))
            degraded = self.attempt > 1 or bool(fallbacks)
            if self.attempt > 1:
                obs.counter(
                    "session.fallback", party=self.host.name, reason="retry"
                ).inc()
            if degraded and not self.policy.allow_degraded:
                # Fail-closed endpoint policy: a weakened path is worse
                # than no path. Tear down with a clean close.
                obs.counter(
                    "session.fallback",
                    party=self.host.name,
                    reason="refused",
                ).inc()
                self.degraded_refused = True
                self._finish("failed")
                self.failure = str(
                    DegradedPathError("degraded session forbidden by policy")
                )
                self.driver.close()
            else:
                self._finish("degraded" if degraded else "established")
        elif isinstance(event, ConnectionClosed):
            alert = getattr(event, "alert", "")
            if alert and event.error is not None and self.abort is None:
                # A fatal alert ended the session; record the attribution
                # whether or not the session had established.
                self.abort = SessionAborted(
                    event.error, origin=getattr(event, "origin", ""), alert=alert
                )
            if self.outcome is None:
                # The attempt died before establishing (reset, refused,
                # fatal alert, timeout): the timeout path is handled by
                # _on_timeout; a peer-fault alert aborts; everything else
                # retries here.
                if self.driver is not None and self.driver.timed_out:
                    return  # _on_timeout owns this attempt's retry
                if alert in PEER_FAULT_ALERTS:
                    self._finish("aborted")
                    self.failure = event.error or alert
                else:
                    self._attempt_over(event.error or "connection closed")
            elif self.established and self.state != "closed":
                # Steady state ended: teardown observed from either side.
                self._set_state("closed")
        if self._user_on_event is not None:
            self._user_on_event(event)

    def _on_timeout(self, kind: str) -> None:
        if self.outcome is None and kind == "handshake":
            self._attempt_over("handshake timeout")

    def _attempt_over(self, error: str) -> None:
        if self.outcome is not None:
            return
        obs.tracer().end(self._attempt_span, error=error)
        if self.attempt >= self.policy.max_attempts:
            self._finish("failed")
            self.failure = error
            return
        if self.retry_gate is not None and not self.retry_gate(self.destination):
            # Budget spent or breaker open: fail fast instead of piling a
            # redial onto a path that is already melting down.
            obs.counter(
                "supervisor_redials_denied", destination=self.destination
            ).inc()
            self._finish("failed")
            self.failure = f"{error} (redial denied by retry gate)"
            return
        delay = self.policy.backoff(self.attempt - 1)
        self._set_state("backoff")
        self.host.network.sim.schedule(delay, self._redial)

    def _redial(self) -> None:
        if self.outcome is not None:
            return
        obs.counter("supervisor_redials", destination=self.destination).inc()
        if not self.host.alive:
            self._attempt_over(f"host {self.host.name} is down")
            return
        self._dial()
