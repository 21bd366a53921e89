"""Discrete-event simulator, network model, taps, and filters."""

import random

import pytest

from repro.errors import NetworkError, SimulationError
from repro.netsim.adversary import DroppingTap, MutatingTap, RecordingTap
from repro.netsim.filters import FilterPolicy, TLSFilter
from repro.netsim.network import Network
from repro.netsim.sim import Simulator, Timer
from repro.netsim.wheel import TimerWheel, WheelEntry
from repro.wire.records import ContentType, Record


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, lambda: order.append("c"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.2, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.schedule(0.1, lambda label=label: order.append(label))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_run_until_time_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run(until=0.5)
        assert not fired and sim.now == 0.5
        sim.run()
        assert fired

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(0.1, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert not fired

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now)
            sim.schedule(0.5, lambda: times.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert times == [1.0, 1.5]

    def test_step_processes_one_event(self):
        sim = Simulator()
        order = []
        sim.schedule(0.2, lambda: order.append("b"))
        sim.schedule(0.1, lambda: order.append("a"))
        assert sim.step() is True
        assert order == ["a"] and sim.now == pytest.approx(0.1)
        assert sim.step() is True
        assert order == ["a", "b"]
        assert sim.step() is False

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        handle = sim.schedule(0.5, lambda: None)
        sim.schedule(1.5, lambda: None)
        assert sim.peek_time() == pytest.approx(0.5)
        handle.cancel()
        assert sim.peek_time() == pytest.approx(1.5)

    def test_reentrant_run_from_callback(self):
        sim = Simulator()
        order = []

        def outer():
            order.append(("outer", sim.now))
            sim.schedule(0.1, lambda: order.append(("inner", sim.now)))
            # Re-entering the loop from inside a callback drains the
            # nested event before control returns here.
            sim.run(until=sim.now + 0.2)
            order.append(("resumed", sim.now))

        sim.schedule(1.0, outer)
        sim.schedule(2.0, lambda: order.append(("later", sim.now)))
        sim.run()
        assert order == [
            ("outer", 1.0),
            ("inner", pytest.approx(1.1)),
            ("resumed", pytest.approx(1.2)),
            ("later", 2.0),
        ]

    def test_pending_events_drops_on_cancel(self):
        sim = Simulator()
        handles = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_events == 5

    def test_mass_cancellation_reclaims_entries(self):
        # Regression: cancelled timers used to linger in the scheduler heap
        # until popped (lazy deletion).  At fleet timer counts that meant
        # unbounded garbage; the wheel must reclaim the slot eagerly, so
        # after a mass cancel the live-entry count reflects only survivors.
        sim = Simulator()
        timers = [
            Timer(sim, 5.0 + (i % 7) * 0.35, lambda: None) for i in range(20_000)
        ]
        assert sim.pending_events == 20_000
        for timer in timers[:-1]:
            timer.cancel()
        assert sim.pending_events == 1
        assert len(sim._wheel) + sim._ready_live == 1
        # Touching re-arms through the same eager path: no garbage either.
        survivor = timers[-1]
        for _ in range(1000):
            survivor.touch()
        assert sim.pending_events == 1

    @pytest.mark.xfail(
        strict=True,
        reason="timer wheel fires a level-1 entry after a newer level-0 one "
        "once the tick rolls into a new level-1 window (ROADMAP item 10)",
    )
    def test_rollover_keeps_time_order(self):
        # At the default 100 µs ticks, e1 (tick 272) is filed at level 1.
        # Popping tick 255 rolls the current tick to 256, into e1's level-1
        # window, so the callback files e2 (tick 336) at level 0, and the
        # level-0 fast path must not return e2 before cascading e1.
        sim = Simulator()
        fired = []
        sim.schedule_at(0.0272, lambda: fired.append(("e1", sim.now)))
        sim.schedule_at(
            0.02555,
            lambda: sim.schedule_at(0.0336, lambda: fired.append(("e2", sim.now))),
        )
        sim.run()
        assert fired == [("e1", 0.0272), ("e2", 0.0336)]


class TestTimerWheel:
    def _drain(self, wheel):
        fired = []
        while True:
            batch = wheel.pop_next_tick()
            if batch is None:
                return fired
            fired.extend(sorted(batch))

    def test_matches_reference_heap_order(self):
        # Randomized equivalence: inserts, cancels, and interleaved pops
        # must fire in exact (time, seq) order — the wheel's quantization
        # is an organizational detail, never a reordering.
        rng = random.Random(0xF1EE7)
        wheel = TimerWheel(resolution=1e-4)
        reference = []
        live = {}
        fired = []
        seq = 0
        for _ in range(5_000):
            action = rng.random()
            if action < 0.55 or not live:
                # Mix of sub-tick, in-level, cross-level, and far deadlines.
                base = wheel.current_tick * wheel.resolution
                delay = rng.choice([
                    rng.random() * 1e-5,
                    rng.random() * 0.02,
                    rng.random() * 5.0,
                    rng.random() * 120.0,
                ])
                entry = WheelEntry(base + delay, seq)
                seq += 1
                wheel.insert(entry)
                reference.append((entry.time, entry.seq))
                live[entry.seq] = entry
            elif action < 0.75:
                victim = live.pop(rng.choice(list(live)))
                assert wheel.remove(victim) is True
                reference.remove((victim.time, victim.seq))
            else:
                batch = wheel.pop_next_tick()
                if batch is not None:
                    for entry in sorted(batch):
                        fired.append((entry.time, entry.seq))
                        del live[entry.seq]
                        reference.remove((entry.time, entry.seq))
        fired.extend((e.time, e.seq) for e in self._drain(wheel))
        # Everything fired exactly once, in global (time, seq) order.
        assert fired == sorted(fired)
        assert len(wheel) == 0

    def test_far_future_overflow_rebuckets(self):
        wheel = TimerWheel(resolution=1e-4)
        near = WheelEntry(0.5, 0)
        far = WheelEntry(6 * 24 * 3600.0, 1)  # ~6 days: beyond the horizon
        wheel.insert(far)
        wheel.insert(near)
        assert len(wheel) == 2
        fired = self._drain(wheel)
        assert [e.seq for e in fired] == [0, 1]

    def test_remove_is_eager(self):
        wheel = TimerWheel()
        entries = [WheelEntry(0.001 * i, i) for i in range(1, 1001)]
        for entry in entries:
            wheel.insert(entry)
        for entry in entries[1:]:
            assert wheel.remove(entry) is True
            assert wheel.remove(entry) is False  # second remove is a no-op
        assert len(wheel) == 1
        # Internal check: no slot at any level still holds a removed entry.
        held = sum(len(slot) for level in wheel._levels for slot in level)
        assert held + len(wheel._overflow) == 1
        assert [e.seq for e in self._drain(wheel)] == [entries[0].seq]

    def test_same_tick_entries_fire_together(self):
        wheel = TimerWheel(resolution=1e-3)
        a = WheelEntry(0.0101, 7)
        b = WheelEntry(0.0109, 3)
        wheel.insert(a)
        wheel.insert(b)
        batch = wheel.pop_next_tick()
        assert sorted(batch) == [a, b]  # exact (time, seq) order intact
        assert wheel.pop_next_tick() is None


class TestNetwork:
    def _linear(self, *latencies) -> Network:
        network = Network()
        names = [f"h{i}" for i in range(len(latencies) + 1)]
        for name in names:
            network.add_host(name)
        for (a, b), latency in zip(zip(names, names[1:]), latencies):
            network.add_link(a, b, latency)
        return network

    def test_duplicate_host_rejected(self):
        network = Network()
        network.add_host("x")
        with pytest.raises(SimulationError):
            network.add_host("x")

    def test_shortest_path(self):
        network = self._linear(0.01, 0.01, 0.01)
        assert network.path_between("h0", "h3") == ["h0", "h1", "h2", "h3"]

    def test_no_route_raises(self):
        network = Network()
        network.add_host("a")
        network.add_host("b")
        with pytest.raises(NetworkError):
            network.path_between("a", "b")

    def test_path_metrics(self):
        network = self._linear(0.010, 0.020)
        latency, bandwidth = network.path_metrics(["h0", "h1", "h2"])
        assert latency == pytest.approx(0.030)

    def test_connect_establishes_after_one_rtt(self):
        network = self._linear(0.050)
        network.host("h1").listen(80, lambda sock, src: None)
        socket = network.host("h0").connect("h1", 80)
        network.sim.run()
        assert socket.connected
        # SYN at 50 ms, SYN-ACK back at 100 ms.
        assert network.sim.now == pytest.approx(0.100)

    def test_data_delivery_latency(self):
        network = self._linear(0.050)
        received = []

        def accept(sock, src):
            sock.on_data(lambda data: received.append((network.sim.now, data)))

        network.host("h1").listen(80, accept)
        socket = network.host("h0").connect("h1", 80)
        socket.send(b"early")  # queued until the connection establishes
        network.sim.run()
        assert received == [(pytest.approx(0.150), b"early")]

    def test_connection_refused(self):
        network = self._linear(0.001)
        network.host("h0").connect("h1", 81)
        with pytest.raises(NetworkError):
            network.sim.run()

    def test_bandwidth_serialization(self):
        network = Network()
        network.add_host("a")
        network.add_host("b")
        network.add_link("a", "b", 0.0, bandwidth=8_000)  # 1000 bytes/sec
        network.host("b").listen(80, lambda sock, src: sock.on_data(
            lambda data: arrivals.append(network.sim.now)))
        arrivals = []
        socket = network.host("a").connect("b", 80)
        network.sim.run()
        socket.send(b"x" * 1000)  # 1 second of serialization
        socket.send(b"y" * 1000)  # queued behind the first
        network.sim.run()
        assert arrivals[0] == pytest.approx(1.0, rel=0.01)
        assert arrivals[1] == pytest.approx(2.0, rel=0.01)

    def test_interception_splits_connection(self):
        network = self._linear(0.010, 0.010)
        flows = []
        network.host("h1").intercept(80, flows.append)
        network.host("h2").listen(80, lambda sock, src: None)
        socket = network.host("h0").connect("h2", 80)
        network.sim.run()
        assert len(flows) == 1
        assert flows[0].destination == "h2"
        # The client socket's peer is the interceptor, not the server.
        assert socket.connected

    def test_close_propagates(self):
        network = self._linear(0.010)
        closed = []

        def accept(sock, src):
            sock.on_close(lambda: closed.append(True))

        network.host("h1").listen(80, accept)
        socket = network.host("h0").connect("h1", 80)
        network.sim.run()
        socket.close()
        network.sim.run()
        assert closed == [True]


class TestTaps:
    def _two_hosts(self):
        network = Network()
        network.add_host("a")
        network.add_host("b")
        network.add_link("a", "b", 0.001)
        return network

    def test_recording_tap(self):
        network = self._two_hosts()
        tap = RecordingTap()
        network.on_new_stream(lambda stream, a, b: stream.add_tap(tap))
        network.host("b").listen(80, lambda sock, src: None)
        socket = network.host("a").connect("b", 80)
        network.sim.run()
        socket.send(b"observed")
        network.sim.run()
        assert tap.all_bytes() == b"observed"

    def test_mutating_tap(self):
        network = self._two_hosts()
        received = []
        network.on_new_stream(
            lambda stream, a, b: stream.add_tap(
                MutatingTap(lambda data: data.upper())
            )
        )
        network.host("b").listen(
            80, lambda sock, src: sock.on_data(received.append)
        )
        socket = network.host("a").connect("b", 80)
        network.sim.run()
        socket.send(b"lower")
        network.sim.run()
        assert received == [b"LOWER"]

    def test_dropping_tap_with_limit(self):
        network = self._two_hosts()
        received = []
        network.on_new_stream(
            lambda stream, a, b: stream.add_tap(DroppingTap(limit=1))
        )
        network.host("b").listen(80, lambda sock, src: sock.on_data(received.append))
        socket = network.host("a").connect("b", 80)
        network.sim.run()
        socket.send(b"first")
        socket.send(b"second")
        network.sim.run()
        assert received == [b"second"]


class TestFilters:
    def _run_through_filter(self, policy, records):
        network = Network()
        network.add_host("a")
        network.add_host("b")
        network.add_link("a", "b", 0.001)
        tls_filter = TLSFilter(policy)
        network.on_new_stream(lambda stream, a, b: stream.add_tap(tls_filter))
        received = []
        network.host("b").listen(80, lambda sock, src: sock.on_data(received.append))
        socket = network.host("a").connect("b", 80)
        network.sim.run()
        for record in records:
            socket.send(record.encode())
        network.sim.run()
        return b"".join(received), tls_filter

    def test_passthrough_forwards_everything(self):
        data, _ = self._run_through_filter(
            FilterPolicy.PASSTHROUGH,
            [Record(ContentType.MBTLS_ENCAPSULATED, b"\x01x")],
        )
        assert b"x" in data

    def test_grammar_check_forwards_mbtls_types(self):
        record = Record(ContentType.MBTLS_MIDDLEBOX_ANNOUNCEMENT, b"")
        data, _ = self._run_through_filter(FilterPolicy.GRAMMAR_CHECK, [record])
        assert data == record.encode()

    def test_drop_unknown_drops_only_mbtls_records(self):
        standard = Record(ContentType.HANDSHAKE, b"hello")
        mbtls = Record(ContentType.MBTLS_ENCAPSULATED, b"\x01y")
        data, tls_filter = self._run_through_filter(
            FilterPolicy.DROP_UNKNOWN_TYPES, [standard, mbtls]
        )
        assert data == standard.encode()
        assert tls_filter.dropped_records == 1

    def test_reset_on_unknown_kills_stream(self):
        standard = Record(ContentType.HANDSHAKE, b"hello")
        mbtls = Record(ContentType.MBTLS_ENCAPSULATED, b"\x01y")
        data, tls_filter = self._run_through_filter(
            FilterPolicy.RESET_ON_UNKNOWN, [mbtls, standard]
        )
        assert data == b""
        assert tls_filter.killed
