"""The observability plane: registry, tracer, and ground-truth agreement.

The load-bearing test here is :class:`TestGroundTruth`: the per-hop
sealed/opened record counts the metrics plane reports for a 2-middlebox
session must equal what a :class:`~repro.netsim.adversary.GlobalAdversary`
actually captured on every directed hop. Metrics that disagree with the
wire are worse than no metrics.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro import obs
from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry, SCHEMA_VERSION
from repro.obs.tracing import SpanRecorder


class TestMetricsRegistry:
    def test_counter_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("records", party="client").inc()
        registry.counter("records", party="client").inc(2)
        registry.counter("records", party="server").inc()
        assert registry.counter_value("records", party="client") == 3
        assert registry.counter_value("records", party="server") == 1

    def test_counter_value_does_not_create_series(self):
        registry = MetricsRegistry()
        assert registry.counter_value("never", party="x") == 0
        assert registry.snapshot()["counters"] == {}

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.add(-2)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["depth"][0]["value"] == 3

    def test_histogram_buckets_place_each_observation_once(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("batch", COUNT_BUCKETS)
        for value in (1, 3, 200):
            histogram.observe(value)
        entry = registry.snapshot()["histograms"]["batch"][0]
        assert entry["buckets"]["1"] == 1
        assert entry["buckets"]["4"] == 1  # 3 lands in (2, 4]
        assert entry["buckets"]["+Inf"] == 1  # 200 exceeds every bound
        assert entry["count"] == 3
        assert entry["sum"] == 204
        assert entry["min"] == 1 and entry["max"] == 200

    def test_snapshot_is_sorted_and_json_stable(self):
        def build():
            registry = MetricsRegistry()
            # Insertion order differs between the two builds ...
            for party in ("b", "a", "c"):
                registry.counter("records", party=party).inc()
            return registry

        first, second = build().to_json(), build().to_json()
        assert first == second
        parties = [
            entry["labels"]["party"]
            for entry in json.loads(first)["counters"]["records"]
        ]
        # ... but the snapshot is sorted by labels.
        assert parties == sorted(parties)

    def test_schema_version_present(self):
        assert MetricsRegistry().snapshot()["schema_version"] == SCHEMA_VERSION


class TestSpanRecorder:
    def test_nesting_depth_follows_parents(self):
        recorder = SpanRecorder(clock=lambda: 0.0)
        outer = recorder.begin("session", party="client")
        inner = recorder.begin("handshake", party="client", parent=outer)
        leaf = recorder.begin("flight", party="client", parent=inner)
        assert (outer.depth, inner.depth, leaf.depth) == (0, 1, 2)

    def test_spans_ordered_by_start_then_index(self):
        times = iter([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
        recorder = SpanRecorder(clock=lambda: next(times))
        first = recorder.begin("first")
        second = recorder.begin("second")  # same start time
        recorder.end(first)
        recorder.end(second)
        names = [span["name"] for span in recorder.snapshot()["spans"]]
        assert names == ["first", "second"]

    def test_end_is_idempotent_and_none_safe(self):
        recorder = SpanRecorder(clock=lambda: 0.0)
        span = recorder.begin("s")
        recorder.end(span, outcome="ok")
        recorder.end(span, outcome="overwritten?")
        recorder.end(None)  # engines end spans they may never have begun
        snapshot = recorder.snapshot()["spans"]
        assert len(snapshot) == 1
        assert snapshot[0]["attrs"]["outcome"] == "ok"

    def test_marks_record_time_and_attrs(self):
        recorder = SpanRecorder(clock=lambda: 7.0)
        recorder.mark("driver.timeout", party="client", kind="idle")
        mark = recorder.snapshot()["marks"][0]
        assert mark["time"] == 7.0
        assert mark["name"] == "driver.timeout"
        assert mark["attrs"]["kind"] == "idle"


class TestPlane:
    def test_scoped_restores_previous_plane(self):
        before = obs.plane()
        with obs.scoped() as inner:
            assert obs.plane() is inner
            assert obs.plane() is not before
        assert obs.plane() is before

    def test_clock_defaults_to_zero_until_bound(self):
        plane = obs.ObservabilityPlane()
        assert plane.now() == 0.0
        plane.bind_clock(lambda: 42.0)
        assert plane.now() == 42.0

    def test_wall_time_off_by_default(self):
        assert obs.ObservabilityPlane().wall_time is False


@pytest.fixture(scope="module")
def observed_run():
    from repro.bench.observability import run_observed

    return run_observed(seed="test-obs", flights=2)


class TestGroundTruth:
    """Metrics must agree with the adversary's packet-level view."""

    def test_session_established(self, observed_run):
        assert observed_run.established
        assert not observed_run.degraded
        assert len(observed_run.reply) == 2 * observed_run.response_size

    def test_per_hop_counts_match_adversary(self, observed_run):
        from repro.bench.observability import hop_directions, wire_record_counts

        wire = wire_record_counts(observed_run.adversary)
        metrics = observed_run.plane.metrics
        directions = hop_directions(observed_run.path)
        assert len(directions) == 6  # 3 hops, both directions
        for direction in directions:
            hop = f"{direction['sender']}->{direction['receiver']}"
            on_wire = wire[hop].get("application_data", 0)
            assert on_wire > 0, f"no application data captured on {hop}"
            sealed = metrics.counter_value(
                "records_sealed", party=direction["seal_party"],
                type="application_data")
            opened = metrics.counter_value(
                "records_opened", party=direction["open_party"],
                type="application_data")
            assert sealed == on_wire, f"{hop}: sealed {sealed} != wire {on_wire}"
            assert opened == on_wire, f"{hop}: opened {opened} != wire {on_wire}"

    def test_handshake_spans_cover_all_parties(self, observed_run):
        spans = observed_run.plane.tracer.snapshot()["spans"]
        parties = {span["party"] for span in spans if span["name"] == "handshake.tls"}
        assert {"client", "server", "mb1:secondary", "mb2:secondary"} <= parties
        for span in spans:
            if span["end"] is not None:
                assert span["end"] >= span["start"]

    def test_key_installs_per_hop(self, observed_run):
        metrics = observed_run.plane.metrics
        hop_installs = {
            labels["party"]: value
            for labels, value in metrics.iter_counters("key_installs")
            if labels.get("kind") == "hop"
        }
        # Every hop-chain participant installs its hop keys exactly once.
        assert hop_installs == {"client": 1, "mb1": 1, "mb2": 1}


class TestPoolReconciliation:
    """The ``pool`` section must agree with the per-hop wire accounting."""

    def test_pooled_run_reconciles(self):
        from repro.bench.observability import (
            metrics_report,
            pool_problems,
            run_observed,
        )
        from repro.crypto import pool as aead_pool

        pool = aead_pool.AeadPool(workers=2)
        try:
            with aead_pool.substituted(pool):
                # 128 KiB responses fragment into eight 16 KiB records: the
                # smallest eligible batch, sealed and opened on every hop.
                run = run_observed(seed="pool", flights=1, response_size=128 * 1024)
        finally:
            pool.close()
        report = metrics_report(run, include_trace=False)
        assert report["pool"]["records"] == {"seal": 24, "open": 24}
        assert pool_problems(report) == []

    def test_default_run_has_no_pool_section(self, observed_run):
        from repro.bench.observability import metrics_report, pool_problems

        report = metrics_report(observed_run, include_trace=False)
        assert "pool" not in report
        assert pool_problems(report) == []

    def test_problems_name_each_disagreement(self):
        from repro.bench.observability import pool_problems

        report = {
            "per_hop": [{"sealed_application_data": 8,
                         "opened_application_data": 8}],
            "pool": {"records": {"seal": 9, "open": 0},
                     "tasks": [{"chunk": "0", "op": "seal", "value": 1}]},
        }
        assert pool_problems(report) == [
            "pooled seals 9 exceed the 8 application-data records sealed "
            "on the wire",
            "no open records were pooled",
            "no open tasks reached any chunk slot",
        ]


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        from repro.bench.observability import metrics_report, run_observed

        def render():
            report = metrics_report(run_observed(seed="det", flights=1))
            return json.dumps(report, indent=2, sort_keys=True)

        assert render() == render()

    def test_different_seed_same_record_counts(self):
        # Record accounting is structural: key material changes with the
        # seed, record flow does not.
        from repro.bench.observability import metrics_report, run_observed

        def counts(seed):
            report = metrics_report(run_observed(seed=seed, flights=1))
            return [
                (hop["hop"], hop["wire_application_data"])
                for hop in report["per_hop"]
            ]

        assert counts("seed-a") == counts("seed-b")

    # sha256 of ``python -m repro metrics --json`` stdout.  The report
    # includes the process-global AEAD cache's size gauge, so it is taken
    # from a fresh interpreter.  Any series added, dropped or changed by
    # an instrumentation site (bound handles included) moves it.
    METRICS_JSON_SHA256 = (
        "17d30f9ed4050bca6c58b4ade96378c842fdfa1951b8f039ccfdc2fe5421670b")

    def test_metrics_json_digest_pinned(self):
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "metrics", "--json"],
            capture_output=True, env=env, timeout=240,
        )
        assert result.returncode == 0, result.stderr
        digest = hashlib.sha256(result.stdout).hexdigest()
        assert digest == self.METRICS_JSON_SHA256

    def test_no_wall_time_in_default_metrics(self):
        from repro.bench.observability import run_observed

        run = run_observed(seed="walltime", flights=1)
        histograms = run.plane.metrics.snapshot()["histograms"]
        assert "aead_seal_seconds" not in histograms


class TestBoundHandles:
    """Per-record and per-chunk sites bind their series lazily, per plane."""

    def test_record_plane_resolves_each_series_on_its_first_update(self):
        from repro.io.record_plane import RecordPlane
        from repro.wire.records import ContentType

        with obs.scoped() as first:
            record_plane = RecordPlane()
            record_plane.party = "p"
            assert record_plane.data_to_send() == b""
            assert first.metrics.snapshot()["counters"] == {}
            record_plane.queue_record(ContentType.HANDSHAKE, b"hello")
            record_plane.data_to_send()
            # A plaintext flight drains without sealing anything.
            snapshot = first.metrics.snapshot()
            assert set(snapshot["counters"]) == {"flights_drained", "bytes_drained"}
            assert snapshot["histograms"] == {}
            # The drain handles follow the party...
            record_plane.party = "q"
            record_plane.queue_record(ContentType.HANDSHAKE, b"hi")
            record_plane.data_to_send()
            assert first.metrics.counter_value("bytes_drained", party="p") == 10
            assert first.metrics.counter_value("bytes_drained", party="q") == 7
        # ...and the plane: a swap binds afresh on the next update.
        with obs.scoped() as second:
            record_plane.queue_record(ContentType.HANDSHAKE, b"x")
            record_plane.data_to_send()
            assert second.metrics.counter_value("flights_drained", party="q") == 1
        assert first.metrics.counter_value("flights_drained", party="q") == 1

    def test_record_pairs_keep_their_first_party_on_each_plane(self):
        from repro.io.record_plane import RecordPlane
        from repro.wire.records import ContentType, Record

        class Plain:
            def protect(self, content_type, payload):
                return Record(content_type, bytes(payload))

        def seal(record_plane, payload):
            record_plane.queue_record(ContentType.APPLICATION_DATA, payload)
            record_plane.data_to_send()

        with obs.scoped() as first:
            record_plane = RecordPlane()
            record_plane.write_state = Plain()
            record_plane.party = "p"
            seal(record_plane, b"ab")
            # A later party stamp moves the per-flush series, not a
            # records/bytes pair already resolved on this plane...
            record_plane.party = "q"
            seal(record_plane, b"cde")
            assert first.metrics.counter_value(
                "records_sealed", party="p", type="application_data") == 2
            assert first.metrics.counter_value(
                "bytes_sealed", party="p", type="application_data") == 5
            assert first.metrics.counter_value(
                "records_sealed", party="q", type="application_data") == 0
            assert first.metrics.counter_value("seal_flushes", party="q") == 1
            # ...while a pair first resolved after the stamp takes it.
            record_plane.queue_record(ContentType.HANDSHAKE, b"hi")
            record_plane.data_to_send()
            assert first.metrics.counter_value(
                "records_sealed", party="q", type="handshake") == 1
        # A new plane resolves every pair afresh, with the party of its
        # first update there; nothing bound on the first plane carries over.
        with obs.scoped() as second:
            seal(record_plane, b"f")
            assert second.metrics.counter_value(
                "records_sealed", party="q", type="application_data") == 1
        assert first.metrics.counter_value(
            "records_sealed", party="p", type="application_data") == 2

    def test_stream_resolves_link_counters_on_first_delivery(self):
        from repro.netsim.network import Network

        with obs.scoped() as plane:
            network = Network()
            network.add_host("a")
            network.add_host("b")
            network.add_link("a", "b", 0.001)
            network.host("b").listen(80, lambda sock, src: None)
            socket = network.host("a").connect("b", 80)
            network.sim.run()
            assert socket.connected
            assert plane.metrics.snapshot()["counters"] == {}
            socket.send(b"abc")
            socket.send(b"de")
            network.sim.run()
            assert plane.metrics.counter_value(
                "net_chunks_delivered", link="a-b") == 2
            assert plane.metrics.counter_value(
                "net_bytes_delivered", link="a-b") == 5
