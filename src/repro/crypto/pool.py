"""Multiprocessing seal/open pool for batched AEAD work.

Per-hop record protection on an mbTLS chain is embarrassingly parallel:
each record's seal/open is a pure function of ``(key, nonce, aad, data)``
with no shared state, so a batch can be split across worker processes and
the results merged back **in submission order** — the wire bytes are
bit-identical to a serial run by construction.

The record layer, not its caller, decides when to pool: a batch goes to
the :func:`shared` pool only when it is :func:`eligible` and the process
can run on at least two CPUs. The shared pool is built on first use,
sized to the usable CPUs, and closed at interpreter exit. Beyond that:

* batches below :data:`_MIN_RECORDS` records or :data:`_MIN_BYTES` total
  payload run serially — IPC overhead would beat the parallelism;
* any pool-infrastructure failure (a dead worker, a pickling error)
  falls back to the in-process serial path for that batch;
* an :class:`~repro.errors.IntegrityError` from a worker is *not* a pool
  failure — it propagates, preserving the all-or-nothing contract of
  ``unprotect_many``.

Workers rebuild AEAD contexts from ``(suite_code, key)`` on first use and
cache them per process, so a long flight pays the key schedule once per
worker. Per-chunk task counts land on the ``crypto.pool.tasks`` counter
labelled by *chunk slot* (worker PIDs are scheduling-dependent; chunk
slots are deterministic), which :func:`repro.bench.observability.pool_problems`
cross-checks against wiretap ground truth.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing as _mp
import os
import threading

from repro import obs
from repro.errors import CryptoError

__all__ = ["AeadPool", "eligible", "shared", "substituted", "usable_cpus"]

#: Batches smaller than this many records always run serially.
_MIN_RECORDS = 8
#: Batches carrying less than this much payload always run serially.
_MIN_BYTES = 64 * 1024

#: How long a graceful worker join may take before escalating to
#: ``terminate`` (and how long the post-terminate join gets).
_JOIN_TIMEOUT = 5.0

#: Per-worker-process AEAD cache, keyed ``(suite_code, key)``.
_WORKER_AEADS: dict[tuple[int, bytes], object] = {}


def _worker_aead(suite_code: int, key: bytes):
    cache_key = (suite_code, key)
    aead = _WORKER_AEADS.get(cache_key)
    if aead is None:
        from repro.tls.ciphersuites import suite_by_code

        if len(_WORKER_AEADS) > 1024:
            _WORKER_AEADS.clear()
        aead = suite_by_code(suite_code).new_aead(key)
        _WORKER_AEADS[cache_key] = aead
    return aead


def _worker_seal(task):
    suite_code, key, items = task
    return _worker_aead(suite_code, key).seal_many(items)


def _worker_open(task):
    suite_code, key, items = task
    return _worker_aead(suite_code, key).open_many(items)


class AeadPool:
    """An order-preserving multiprocessing pool for seal_many/open_many."""

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise CryptoError("AeadPool needs at least 2 workers")
        self.workers = workers
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            # Fork keeps startup cheap and inherits the imported modules;
            # workers never touch inherited mutable state (every task
            # carries its full inputs).
            self._pool = _mp.get_context("fork").Pool(self.workers)
            # Registered after the Pool, so this runs before
            # multiprocessing's own exit hook would terminate the workers.
            atexit.register(self.close)
        return self._pool

    def close(self) -> None:
        """Tear the workers down: graceful close+join, bounded fallback.

        ``terminate()`` kills workers mid-task, which can leave the
        shared task queue in a state the follow-up ``join()`` waits on
        forever. So: ask the workers to drain and exit, give the join a
        bounded window, and only then escalate to ``terminate``. Never
        raises — this must be safe from ``atexit``/interpreter teardown,
        where helper machinery may already be gone.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.close()
            if not self._join(pool, _JOIN_TIMEOUT):
                pool.terminate()
                self._join(pool, _JOIN_TIMEOUT)
        except Exception:
            try:
                pool.terminate()
            except Exception:
                pass

    @staticmethod
    def _join(pool, timeout: float) -> bool:
        """``pool.join()`` with a deadline; True if the join completed."""
        joiner = threading.Thread(target=pool.join, daemon=True)
        joiner.start()
        joiner.join(timeout)
        return not joiner.is_alive()

    @staticmethod
    def _normalize(items):
        # Tasks cross a pickle boundary; memoryview inputs (the zero-copy
        # receive path) must be materialized here.
        return [
            (bytes(nonce), bytes(data), bytes(aad)) for nonce, data, aad in items
        ]

    def _chunks(self, items):
        n = len(items)
        per = -(-n // self.workers)
        return [items[i : i + per] for i in range(0, n, per)]

    def _run(self, worker, op: str, suite, key: bytes, items):
        chunks = self._chunks(self._normalize(items))
        tasks = [(suite.code, key, chunk) for chunk in chunks]
        results = self._ensure_pool().map(worker, tasks)
        for slot, chunk in enumerate(chunks):
            obs.counter("crypto.pool.tasks", chunk=str(slot), op=op).inc()
            obs.counter("crypto.pool.records", op=op).inc(len(chunk))
        merged: list[bytes] = []
        for part in results:
            merged.extend(part)
        return merged

    def seal_many(self, suite, key: bytes, items) -> list[bytes]:
        """Seal ``(nonce, plaintext, aad)`` items across the workers."""
        return self._run(_worker_seal, "seal", suite, key, items)

    def open_many(self, suite, key: bytes, items) -> list[bytes]:
        """Open ``(nonce, ciphertext, aad)`` items across the workers.

        Chunk boundaries don't weaken the all-or-nothing contract: a tag
        failure in any chunk raises before any plaintext is returned.
        """
        return self._run(_worker_open, "open", suite, key, items)


def eligible(items) -> bool:
    """Whether a batch is big enough to beat the IPC overhead.

    Counts the AEAD input: plaintext to seal, ciphertext and tag to open.
    """
    if len(items) < _MIN_RECORDS:
        return False
    total = 0
    for _, data, _ in items:
        total += len(data)
    return total >= _MIN_BYTES


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: ``(pid, pool)`` of the process that decided; ``None`` until one has.
_SHARED: tuple[int, AeadPool | None] | None = None


def shared() -> AeadPool | None:
    """This process's pool, or ``None`` where fewer than two CPUs are usable.

    Decided on first call and kept for the life of the process; its
    workers fork on first use and are closed at interpreter exit. A forked
    child never uses its parent's workers: it decides afresh, and a
    daemonic child (a fleet shard worker), which may not fork, runs serial.
    """
    global _SHARED
    pid = os.getpid()
    if _SHARED is None or _SHARED[0] != pid:
        workers = 0 if _mp.current_process().daemon else usable_cpus()
        _SHARED = (pid, AeadPool(workers) if workers >= 2 else None)
    return _SHARED[1]


@contextlib.contextmanager
def substituted(pool: AeadPool | None):
    """Within the block, :func:`shared` returns ``pool`` (``None``: serial).

    The seam through which tests substitute a pool and the crypto bench
    holds its serial legs off the pool; the caller owns ``pool``.
    """
    global _SHARED
    saved, _SHARED = _SHARED, (os.getpid(), pool)
    try:
        yield pool
    finally:
        _SHARED = saved
