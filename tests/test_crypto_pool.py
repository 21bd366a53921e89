"""AEAD process-pool coverage: pooled output must be byte-identical to
serial, tag failures must propagate with the all-or-nothing contract
intact, the record layer must fall back to serial whenever the process
has no pool or the batch is too small to pay for IPC, and the shared pool
must follow the usable CPUs and leave nothing running at exit."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.crypto import pool as aead_pool
from repro.crypto.pool import _MIN_BYTES, _MIN_RECORDS, AeadPool
from repro.errors import CryptoError, IntegrityError
from repro.tls.ciphersuites import (
    TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256 as AES_SUITE,
    TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256 as CHACHA_SUITE,
)
from repro.tls.record_layer import ConnectionState
from repro.wire.records import ContentType


@pytest.fixture
def pool():
    pool = AeadPool(workers=2)
    yield pool
    pool.close()


@pytest.fixture
def cpus(monkeypatch):
    """Sets the usable CPU count of a process yet to decide on its shared pool."""
    monkeypatch.setattr(aead_pool, "_SHARED", None)
    return lambda count: monkeypatch.setattr(aead_pool, "usable_cpus", lambda: count)


def _items(rng, count=10, size=16384):
    return [
        (rng.random_bytes(12), rng.random_bytes(size), rng.random_bytes(13))
        for _ in range(count)
    ]


@pytest.mark.parametrize("suite", [AES_SUITE, CHACHA_SUITE],
                         ids=["aes128", "chacha"])
class TestPoolEqualsSerial:
    def test_seal_many_byte_identical(self, suite, pool, rng):
        key = rng.random_bytes(suite.key_length)
        items = _items(rng)
        assert pool.seal_many(suite, key, items) == suite.new_aead(
            key
        ).seal_many(items)

    def test_open_many_byte_identical(self, suite, pool, rng):
        key = rng.random_bytes(suite.key_length)
        aead = suite.new_aead(key)
        items = _items(rng)
        sealed = aead.seal_many(items)
        wire = [(n, c, a) for (n, _, a), c in zip(items, sealed)]
        assert pool.open_many(suite, key, wire) == [p for _, p, _ in items]

    def test_memoryview_items_accepted(self, suite, pool, rng):
        # The zero-copy receive path hands the pool memoryview payloads;
        # they must be normalized before crossing the pickle boundary.
        key = rng.random_bytes(suite.key_length)
        items = _items(rng, count=9)
        views = [(n, memoryview(d), memoryview(a)) for n, d, a in items]
        assert pool.seal_many(suite, key, views) == suite.new_aead(
            key
        ).seal_many(items)


class TestFailurePropagation:
    def test_tampered_batch_raises_integrity_error(self, pool, rng):
        key = rng.random_bytes(AES_SUITE.key_length)
        aead = AES_SUITE.new_aead(key)
        items = _items(rng, count=9)
        sealed = aead.seal_many(items)
        wire = [(n, c, a) for (n, _, a), c in zip(items, sealed)]
        bad = bytearray(wire[5][1])
        bad[0] ^= 0x01
        wire[5] = (wire[5][0], bytes(bad), wire[5][2])
        with pytest.raises(IntegrityError):
            pool.open_many(AES_SUITE, key, wire)

    def test_needs_at_least_two_workers(self):
        with pytest.raises(CryptoError):
            AeadPool(workers=1)


class TestEligibility:
    def test_small_batches_stay_serial(self, rng):
        too_few = _items(rng, count=_MIN_RECORDS - 1, size=16384)
        assert not aead_pool.eligible(too_few)
        per = _MIN_BYTES // _MIN_RECORDS
        too_small = _items(rng, count=_MIN_RECORDS, size=per - 64)
        assert not aead_pool.eligible(too_small)
        assert aead_pool.eligible(_items(rng, count=_MIN_RECORDS, size=per))


_FLIGHT_SCRIPT = """
from repro.crypto import pool as aead_pool
from repro.tls.ciphersuites import TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256 as suite
from repro.tls.record_layer import ConnectionState
from repro.wire.records import ContentType

aead_pool.usable_cpus = lambda: 2
state = ConnectionState(suite, bytes(16), bytes(4))
state.protect_many([(ContentType.APPLICATION_DATA, bytes(16384))] * 16)
print(" ".join(str(worker.pid) for worker in aead_pool.shared()._pool._pool))
"""


def _shared_in_child():
    return aead_pool.shared()


class TestSharedPool:
    def test_one_cpu_forks_nothing(self, cpus, rng):
        cpus(1)
        before = multiprocessing.active_children()
        key = rng.random_bytes(AES_SUITE.key_length)
        fixed_iv = rng.random_bytes(AES_SUITE.fixed_iv_length)
        flight = [(ContentType.APPLICATION_DATA, rng.random_bytes(16384))] * 16
        with obs.scoped() as plane:
            records = ConnectionState(AES_SUITE, key, fixed_iv).protect_many(flight)
        serial = ConnectionState(AES_SUITE, key, fixed_iv)
        assert records == [serial.protect(*item) for item in flight]
        assert aead_pool.shared() is None
        assert plane.metrics.counter_value("crypto.pool.records", op="seal") == 0
        assert multiprocessing.active_children() == before

    def test_two_cpus_size_the_shared_pool(self, cpus):
        cpus(2)
        pool = aead_pool.shared()
        assert pool.workers == 2
        assert aead_pool.shared() is pool

    def test_forked_fleet_worker_runs_serial(self, cpus):
        """A daemonic pool worker may not fork, and must not use the
        parent's workers: it sees no shared pool."""
        cpus(2)
        assert aead_pool.shared() is not None
        with multiprocessing.get_context("fork").Pool(1) as workers:
            assert workers.apply(_shared_in_child) is None

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert aead_pool.usable_cpus() == 3

    def test_process_exits_cleanly_after_a_pooled_flight(self):
        """The shared pool is closed at exit: the process exits 0 with no
        ResourceWarning, and no worker outlives it."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", _FLIGHT_SCRIPT],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        pids = [int(pid) for pid in result.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestTeardown:
    def test_close_joins_workers_gracefully(self, cpus, rng):
        """close() lets the workers drain and exit (exitcode 0) instead
        of SIGTERMing them mid-task, and is idempotent."""
        cpus(2)
        pool = aead_pool.shared()
        key = rng.random_bytes(AES_SUITE.key_length)
        pool.seal_many(AES_SUITE, key, _items(rng, count=4, size=256))
        workers = list(pool._pool._pool)
        pool.close()
        assert pool._pool is None
        assert all(worker.exitcode == 0 for worker in workers)
        pool.close()  # second close is a no-op, not an error

    def test_close_never_raises(self, cpus):
        """close() runs from atexit, where raising would mask the real
        interpreter shutdown; it must swallow teardown failures."""
        cpus(2)
        pool = aead_pool.shared()

        class _ExplodingPool:
            def close(self):
                raise RuntimeError("teardown race")

            def terminate(self):
                raise RuntimeError("already gone")

        pool._pool = _ExplodingPool()
        pool.close()  # must not raise
        assert pool._pool is None


class TestRecordLayerDispatch:
    def _flight(self, rng, records=10, size=16384):
        return [
            (ContentType.APPLICATION_DATA, rng.random_bytes(size))
            for _ in range(records)
        ]

    @pytest.mark.parametrize("suite", [AES_SUITE, CHACHA_SUITE],
                             ids=["aes128", "chacha"])
    def test_pooled_protect_many_is_byte_identical(self, suite, pool, rng):
        key = rng.random_bytes(suite.key_length)
        fixed_iv = rng.random_bytes(suite.fixed_iv_length)
        flight = self._flight(rng)

        serial_state = ConnectionState(suite, key, fixed_iv)
        serial = [r.encode() for r in serial_state.protect_many(flight)]

        pooled_state = ConnectionState(suite, key, fixed_iv)
        with aead_pool.substituted(pool):
            pooled = [r.encode() for r in pooled_state.protect_many(flight)]

        assert pooled == serial
        assert pooled_state.sequence == serial_state.sequence

    def test_pooled_unprotect_many_roundtrip(self, pool, rng):
        suite = AES_SUITE
        key = rng.random_bytes(suite.key_length)
        fixed_iv = rng.random_bytes(suite.fixed_iv_length)
        flight = self._flight(rng)
        sealed = ConnectionState(suite, key, fixed_iv).protect_many(flight)

        reader = ConnectionState(suite, key, fixed_iv)
        with aead_pool.substituted(pool):
            plaintexts = reader.unprotect_many(sealed)
        assert plaintexts == [payload for _, payload in flight]

    def test_tamper_consumes_no_sequence_under_pool(self, pool, rng):
        suite = AES_SUITE
        key = rng.random_bytes(suite.key_length)
        fixed_iv = rng.random_bytes(suite.fixed_iv_length)
        flight = self._flight(rng)
        sealed = ConnectionState(suite, key, fixed_iv).protect_many(flight)
        tampered = bytearray(sealed[3].payload)
        tampered[-1] ^= 0x80
        sealed[3] = type(sealed[3])(sealed[3].content_type, bytes(tampered))

        reader = ConnectionState(suite, key, fixed_iv)
        with aead_pool.substituted(pool), pytest.raises(IntegrityError):
            reader.unprotect_many(sealed)
        # All-or-nothing: the failed batch consumed no sequence numbers,
        # so the per-record replay still opens the valid prefix.
        assert reader.sequence == 0
        assert reader.unprotect(sealed[0]) == flight[0][1]
