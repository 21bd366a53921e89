"""The observed scenario behind ``python -m repro metrics``.

Runs a 2-middlebox mbTLS fetch with the whole observability plane armed —
a fresh :class:`~repro.obs.ObservabilityPlane` bound to the scenario's sim
clock, plus a :class:`~repro.netsim.adversary.GlobalAdversary` recording
every hop — and folds both views into one schema-versioned report.  The
adversary's captures are the *ground truth*: tests assert that the per-hop
sealed/opened record counts reported by the metrics registry equal what an
on-path observer actually saw, which is exactly the paper's §5 "what did
each hop do" accounting.

Everything is keyed off one seed and the sim clock, so two runs with the
same arguments produce byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.config import MbTLSEndpointConfig, MiddleboxConfig, MiddleboxRole
from repro.core.config import SessionEstablished
from repro.core.drivers import MiddleboxService, open_mbtls, serve_mbtls
from repro.crypto.drbg import HmacDrbg
from repro.errors import DecodeError
from repro.netsim.adversary import GlobalAdversary
from repro.netsim.network import Network
from repro.tls.config import TLSConfig
from repro.tls.events import ApplicationData
from repro.wire.records import ContentType, RecordBuffer

__all__ = [
    "ObservedRun",
    "run_observed",
    "wire_record_counts",
    "hop_directions",
    "metrics_report",
    "pool_problems",
]


@dataclass
class ObservedRun:
    """Everything an inspection of one observed scenario needs."""

    plane: obs.ObservabilityPlane
    adversary: GlobalAdversary
    network: Network
    path: list[str]
    established: bool
    degraded: bool
    reply: bytes
    seed: str
    flights: int
    request_size: int
    response_size: int
    middlebox_names: list[str] = field(default_factory=list)


def run_observed(
    seed: str = "repro-obs",
    middleboxes: int = 2,
    flights: int = 3,
    request_size: int = 512,
    response_size: int = 2048,
    latency: float = 0.005,
) -> ObservedRun:
    """Run the instrumented fetch and return the collected evidence.

    A response of at least 8 records / 64 KiB makes pool-eligible flights,
    whose seal/open batches may run on the shared AEAD pool; the
    ``crypto.pool.*`` counters then land on the scoped plane for
    :func:`pool_problems`.
    """
    with obs.scoped() as plane:
        rng = HmacDrbg(seed.encode())
        from repro.bench.scenarios import Pki, build_chain_network

        pki = Pki(rng=rng.fork(b"pki"))
        mb_names = [f"mb{i}" for i in range(1, middleboxes + 1)]
        path = ["client", *mb_names, "server"]
        # The Network's Simulator binds the freshly-scoped plane's clock.
        network = build_chain_network([latency] * (len(path) - 1), path)
        adversary = GlobalAdversary(network)

        for index, name in enumerate(mb_names):
            cred = pki.credential(name)

            def make_config(name=name, cred=cred, index=index):
                return MiddleboxConfig(
                    name=name,
                    tls=TLSConfig(rng=rng.fork(b"mb%d" % index), credential=cred),
                    role=MiddleboxRole.CLIENT_SIDE,
                )

            MiddleboxService(network.host(name), make_config)

        response = b"R" * response_size
        request = b"Q" * request_size

        def make_server_config():
            return MbTLSEndpointConfig(
                tls=TLSConfig(
                    rng=rng.fork(b"server"), credential=pki.credential("server")
                ),
                middlebox_trust_store=pki.trust,
            )

        def on_server_event(engine, driver, event):
            if isinstance(event, ApplicationData):
                driver.send_application_data(response)

        serve_mbtls(network.host("server"), make_server_config,
                    on_event=on_server_event)

        state = {"established": False, "degraded": False, "sent": 0}
        received = bytearray()

        def send_next() -> None:
            state["sent"] += 1
            client_driver.send_application_data(request)

        def on_client_event(event) -> None:
            if isinstance(event, SessionEstablished):
                state["established"] = True
                state["degraded"] = bool(client_engine.bypassed_subchannels)
                send_next()
            elif isinstance(event, ApplicationData):
                received.extend(event.data)
                if len(received) >= state["sent"] * response_size:
                    if state["sent"] < flights:
                        send_next()
                    else:
                        client_driver.close()

        client_config = MbTLSEndpointConfig(
            tls=TLSConfig(
                rng=rng.fork(b"client"), trust_store=pki.trust,
                server_name="server",
            ),
            middlebox_trust_store=pki.trust,
        )
        client_engine, client_driver = open_mbtls(
            network.host("client"), "server", client_config,
            on_event=on_client_event,
        )
        network.sim.run()

        return ObservedRun(
            plane=plane,
            adversary=adversary,
            network=network,
            path=path,
            established=state["established"],
            degraded=state["degraded"],
            reply=bytes(received),
            seed=seed,
            flights=flights,
            request_size=request_size,
            response_size=response_size,
            middlebox_names=mb_names,
        )


def wire_record_counts(adversary: GlobalAdversary) -> dict[str, dict[str, int]]:
    """Ground truth: per directed hop, how many records of each content
    type actually crossed the wire (parsed from the adversary's captures)."""
    counts: dict[str, dict[str, int]] = {}
    for wiretap in adversary.wiretaps:
        host_a, host_b = wiretap.endpoints
        buffers: dict[str, RecordBuffer] = {}
        for capture in wiretap.recorder.captures:
            receiver = host_b if capture.sender == host_a else host_a
            buffer = buffers.setdefault(capture.sender, RecordBuffer())
            buffer.feed(capture.data)
            try:
                records = buffer.pop_records()
            except DecodeError:
                continue
            hop = counts.setdefault(f"{capture.sender}->{receiver}", {})
            for record in records:
                try:
                    label = ContentType(record.content_type).name.lower()
                except ValueError:
                    label = str(int(record.content_type))
                hop[label] = hop.get(label, 0) + 1
    return counts


def hop_directions(path: list[str]) -> list[dict[str, str]]:
    """For each directed adjacent hop: which metrics party seals the bytes
    entering the wire and which opens them on the far side.

    Endpoints seal/open on their single plane (party ``client``/``server``);
    a middlebox seals on the plane *facing* the receiver (``mbN:up`` toward
    the server, ``mbN:down`` toward the client) and opens on the plane
    facing the sender.
    """
    def seal_party(index: int, toward_server: bool) -> str:
        name = path[index]
        if index == 0:
            return name
        if index == len(path) - 1:
            return name
        return f"{name}:up" if toward_server else f"{name}:down"

    def open_party(index: int, toward_server: bool) -> str:
        name = path[index]
        if index == 0 or index == len(path) - 1:
            return name
        return f"{name}:down" if toward_server else f"{name}:up"

    directions = []
    for i in range(len(path) - 1):
        directions.append({
            "sender": path[i],
            "receiver": path[i + 1],
            "seal_party": seal_party(i, toward_server=True),
            "open_party": open_party(i + 1, toward_server=True),
        })
        directions.append({
            "sender": path[i + 1],
            "receiver": path[i],
            "seal_party": seal_party(i + 1, toward_server=False),
            "open_party": open_party(i, toward_server=False),
        })
    return directions


def metrics_report(run: ObservedRun, include_trace: bool = True) -> dict:
    """The schema-versioned JSON report for ``python -m repro metrics``.

    Deterministic by construction: every number is a pure function of the
    scenario seed (counters, sim-time spans, wire captures); nothing reads
    the wall clock. Only a ``pool`` section, present when flights were
    pooled, also depends on the pool's worker count (its chunk slots).
    """
    metrics = run.plane.metrics
    wire = wire_record_counts(run.adversary)
    hops = []
    for direction in hop_directions(run.path):
        key = f"{direction['sender']}->{direction['receiver']}"
        hops.append({
            "hop": key,
            "wire_application_data": wire.get(key, {}).get("application_data", 0),
            "sealed_by": direction["seal_party"],
            "sealed_application_data": metrics.counter_value(
                "records_sealed", party=direction["seal_party"],
                type="application_data"),
            "opened_by": direction["open_party"],
            "opened_application_data": metrics.counter_value(
                "records_opened", party=direction["open_party"],
                type="application_data"),
        })
    report = {
        "schema_version": obs.SCHEMA_VERSION,
        "scenario": {
            "seed": run.seed,
            "path": run.path,
            "middleboxes": len(run.middlebox_names),
            "flights": run.flights,
            "request_size": run.request_size,
            "response_size": run.response_size,
            "established": run.established,
            "degraded": run.degraded,
            "reply_bytes": len(run.reply),
            "sim_seconds": run.network.sim.now,
        },
        "per_hop": hops,
        "wire": {hop: dict(sorted(types.items())) for hop, types in sorted(wire.items())},
        "metrics": metrics.snapshot(),
    }
    pooled = {
        op: metrics.counter_value("crypto.pool.records", op=op)
        for op in ("seal", "open")
    }
    if any(pooled.values()):
        # Pool accounting for the cross-check: how many records each op
        # routed through the workers, and the per-chunk-slot task counts
        # (slots, not PIDs — slots are deterministic).
        report["pool"] = {
            "records": pooled,
            "tasks": [
                {"chunk": labels["chunk"], "op": labels["op"], "value": value}
                for labels, value in metrics.iter_counters("crypto.pool.tasks")
            ],
        }
    if include_trace:
        report["trace"] = run.plane.tracer.snapshot()
    return report


def pool_problems(report: dict) -> list[str]:
    """Reconcile a report's ``pool`` section with its per-hop accounting.

    Every pooled record is also a sealed / opened application-data
    record, so the pool totals are bounded by the wiretap-verified per-hop
    counts; each op must have pooled records, and tasks in a chunk slot.
    Empty when the report has no pool section or the counts agree.
    """
    pool = report.get("pool")
    if pool is None:
        return []
    problems = []
    for op, done in (("seal", "sealed"), ("open", "opened")):
        pooled = pool["records"][op]
        total = sum(hop[f"{done}_application_data"] for hop in report["per_hop"])
        if pooled > total:
            problems.append(
                f"pooled {op}s {pooled} exceed the {total} application-data "
                f"records {done} on the wire")
        if pooled <= 0:
            problems.append(f"no {op} records were pooled")
        if sum(t["value"] for t in pool["tasks"] if t["op"] == op) <= 0:
            problems.append(f"no {op} tasks reached any chunk slot")
    return problems
