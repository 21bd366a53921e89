"""Bulk-crypto microbenchmarks: primitive throughput and the record pipeline.

Two measurements back the fast-path work in ``repro.crypto``:

* **Primitives** — seal/open throughput of each AEAD suite at a full-size
  TLS record (16 KiB), against a faithful re-implementation of the
  pre-fast-path scalar code (per-block ``encrypt_block`` CTR, per-block
  Shoup GHASH) so the speedup is measured, not remembered.  AES-GCM seal
  is also timed per record at small sizes (64 B to 4 KiB), on both sides
  of the byte-sliced/bitsliced CTR cutover.
* **Short-lived keys** — microseconds an AES-GCM key costs when it seals
  only a few small records, as each hop direction of a resumed session
  does: building the context plus its first seal, then the second seal;
  and the parts of that first seal: the key schedule, the engine's set-up
  and round keys, Shoup's table, passes with and without H in one more
  lane, and the gather and strided unslice.
* **GHASH tables** — ns/B to hash a short record over the H^1 tables and
  over the H^1..H^4 aggregate, under one hot key and inside a
  2-middlebox chain, with each key's table memory.
* **Key agreement** — microseconds per X25519 call: key generation (the
  fixed-base comb), the exchange (the Montgomery ladder), and the ladder
  at the base point as the in-library reference for the comb.
* **Chain** — end-to-end records/sec streaming application data through a
  client - middlebox - middlebox - server world on the deterministic
  network simulator, with every hop paying real AEAD costs. Run twice:
  once on the fast path and once on the scalar T-table CTR loop with
  GHASH tables and batching off, which is the pre-fast-path data plane.
  Both legs hold the AEAD pool off; where the machine's CPUs select a
  pool, a third leg re-runs the fast path on it.

``run()`` returns the report dict written to ``BENCH_crypto.json``;
``check_regression()`` is the CI perf-smoke gate (machine-independent
ratios compared against the checked-in baseline).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from repro.crypto import pool as aead_pool
from repro.crypto.aes import AES
from repro.crypto.bitsliced import (
    _FRAMES,
    ByteslicedCtr,
    _ByteLayout,
    _unslice,
    _unslice_strided,
)
from repro.crypto.chacha import ChaCha20Poly1305
from repro.crypto.gcm import (
    _AGGREGATE_BLOCKS,
    AESGCM,
    _digest_aggregate,
    _digest_h1,
    _GHash,
    _shoup_table,
)
from repro.crypto.x25519 import (
    _build_comb_table,
    _decode_scalar,
    _ladder,
    x25519,
    x25519_base,
)

__all__ = [
    "SCHEMA_VERSION",
    "git_describe",
    "bench_primitives",
    "bench_small_records",
    "bench_short_lived",
    "bench_fresh_key_phases",
    "bench_ghash",
    "bench_kex",
    "bench_chain",
    "run",
    "check_regression",
]

SCHEMA_VERSION = 2

RECORD_BYTES = 16384  # one max-size TLS record
SMALL_RECORD_BYTES = (64, 512, 1024, 4096)
SHORT_LIVED_BYTES = (16, 64, 512)
# A short record, a multiple of 256 B as the chain's payload must be.
GHASH_RECORD_BYTES = 768


def git_describe() -> str:
    """The repo's ``git describe`` (falls back to the short hash)."""
    for args in (
        ["git", "describe", "--tags", "--always", "--dirty"],
        ["git", "rev-parse", "--short", "HEAD"],
    ):
        try:
            out = subprocess.run(
                args, capture_output=True, text=True, timeout=10
            )
        except OSError:
            return "unknown"
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    return "unknown"


# --------------------------------------------------------------- legacy path


def _legacy_keystream_xor(
    aes: AES, nonce: bytes, data: bytes, initial_counter: int
) -> bytes:
    """The pre-fast-path CTR loop: one encrypt_block per 16-byte chunk."""
    encrypt = aes.encrypt_block
    out = bytearray(len(data))
    counter = initial_counter
    for offset in range(0, len(data), 16):
        block = encrypt(nonce + counter.to_bytes(4, "big"))
        chunk = data[offset : offset + 16]
        out[offset : offset + len(chunk)] = bytes(
            a ^ b for a, b in zip(chunk, block)
        )
        counter = (counter + 1) & 0xFFFFFFFF
    return bytes(out)


def _legacy_ghash(ghash: _GHash, aad: bytes, ciphertext: bytes) -> int:
    """The pre-fast-path GHASH: per-block Shoup multiply, no aggregation."""
    y = 0
    for chunk in (aad, ciphertext):
        for offset in range(0, len(chunk), 16):
            block = chunk[offset : offset + 16]
            if len(block) < 16:
                block = block + b"\x00" * (16 - len(block))
            y = ghash._mul_h(y ^ int.from_bytes(block, "big"))
    lengths = (len(aad) * 8) << 64 | (len(ciphertext) * 8)
    return ghash._mul_h(y ^ lengths)


def _legacy_gcm_seal(gcm: AESGCM, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    ciphertext = _legacy_keystream_xor(gcm._aes, nonce, plaintext, 2)
    ghash = gcm._ghash
    if ghash is None:
        # A fresh context builds GHASH on its first seal or open.
        ghash = _GHash(int.from_bytes(gcm._aes.encrypt_block(bytes(16)), "big"))
    s = _legacy_ghash(ghash, aad, ciphertext)
    j0 = gcm._aes.encrypt_block(nonce + (1).to_bytes(4, "big"))
    return ciphertext + (s ^ int.from_bytes(j0, "big")).to_bytes(16, "big")


# ---------------------------------------------------------------- primitives


def _warm_ghash(aead: AESGCM, record_bytes: int) -> None:
    """Seal ``record_bytes`` records until the key's GHASH tables exist.

    A key builds its H^1 position tables once it has hashed
    ``_GHash._BULK_BUILD_BYTES``, and those of H^2..H^4 on its first
    record of ``_AGGREGATE_BLOCKS`` blocks, so this leaves the tables a
    long-lived key carrying records of this size holds.
    """
    nonce = b"\x00" * 12
    plaintext = bytes(record_bytes)
    for _ in range(-(-_GHash._BULK_BUILD_BYTES // record_bytes)):
        aead.encrypt(nonce, plaintext)


class _scalar_chacha:
    """Force the pre-fast-path ChaCha code: per-block rounds, per-block Poly."""

    def __enter__(self):
        from repro.crypto import chacha

        self._saved = (chacha._VECTOR_THRESHOLD, chacha._POLY_CHUNK_BYTES)
        chacha._VECTOR_THRESHOLD = 1 << 60
        chacha._POLY_CHUNK_BYTES = 1 << 60
        return self

    def __exit__(self, *exc):
        from repro.crypto import chacha

        chacha._VECTOR_THRESHOLD, chacha._POLY_CHUNK_BYTES = self._saved
        return False


def _time_per_call(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


_SUITES = (
    ("aes-128-gcm", lambda: AESGCM(bytes(range(16)))),
    ("aes-256-gcm", lambda: AESGCM(bytes(range(32)))),
    ("chacha20-poly1305", lambda: ChaCha20Poly1305(bytes(range(32)))),
)


def _interleaved_medians(legs: dict, repeats: int) -> dict[str, float]:
    """Median seconds per call of each leg; the legs take turns per repeat,
    so a drift in machine speed shifts all of them alike."""
    times: dict[str, list[float]] = {name: [] for name in legs}
    for _ in range(repeats):
        for name, fn in legs.items():
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    return {name: statistics.median(leg) for name, leg in times.items()}


def bench_primitives(record_bytes: int = RECORD_BYTES, repeats: int = 10) -> list[dict]:
    """Seal/open throughput per suite, plus the scalar-path seal comparison.

    The fast seal, the open and the scalar seal take turns within each
    repeat, and each reports its median.
    """
    nonce = b"\x00" * 11 + b"\x01"
    aad = b"\x00" * 13
    plaintext = bytes(range(256)) * (record_bytes // 256)
    results = []
    for name, factory in _SUITES:
        aead = factory()
        if isinstance(aead, AESGCM):
            # Steady-state throughput is the quantity under test: take the
            # key past the GHASH table-build gate before timing it.
            _warm_ghash(aead, record_bytes)

            def legacy_seal():
                return _legacy_gcm_seal(aead, nonce, plaintext, aad)
        else:
            # The scalar tier *is* the legacy code (the vectorized path
            # was bolted on beside it), so forcing the cutovers off
            # measures exactly the pre-fast-path implementation.
            def legacy_seal():
                with _scalar_chacha():
                    return aead.encrypt(nonce, plaintext, aad)
        sealed = aead.encrypt(nonce, plaintext, aad)
        assert legacy_seal() == sealed, f"{name}: scalar path diverged"
        median = _interleaved_medians({
            "seal": lambda: aead.encrypt(nonce, plaintext, aad),
            "open": lambda: aead.decrypt(nonce, sealed, aad),
            "legacy": legacy_seal,
        }, repeats)
        seal_s, open_s, legacy_s = median["seal"], median["open"], median["legacy"]
        results.append({
            "suite": name,
            "seal_ms_per_record": round(seal_s * 1000, 3),
            "open_ms_per_record": round(open_s * 1000, 3),
            "seal_mb_per_s": round(record_bytes / seal_s / 1e6, 2),
            "open_mb_per_s": round(record_bytes / open_s / 1e6, 2),
            "legacy_seal_ms_per_record": round(legacy_s * 1000, 3),
            "seal_speedup": round(legacy_s / seal_s, 2),
        })
    return results


def bench_small_records(
    sizes: tuple[int, ...] = SMALL_RECORD_BYTES,
    repeats: int = 10,
    legacy_repeats: int = 3,
) -> list[dict]:
    """AES-GCM seal time per record at small sizes, vs the scalar path.

    Each timing covers enough records to take a few milliseconds; GHASH
    tables are built first, as in a long-lived session carrying records
    of these sizes: all are below ``_AGGREGATE_BLOCKS`` blocks, so the key
    holds the H^1 tables only and hashes one block per step.  One hot key
    is the aggregate's best case (see :func:`bench_ghash`).
    """
    nonce = b"\x00" * 11 + b"\x01"
    aad = b"\x00" * 13
    results = []
    for name, factory in _SUITES:
        aead = factory()
        if not isinstance(aead, AESGCM):
            continue
        _warm_ghash(aead, max(sizes))
        for size in sizes:
            plaintext = (bytes(range(256)) * (size // 256 + 1))[:size]
            batch = max(1, 8192 // size)

            def seal():
                for _ in range(batch):
                    aead.encrypt(nonce, plaintext, aad)

            def legacy_seal():
                for _ in range(batch):
                    _legacy_gcm_seal(aead, nonce, plaintext, aad)

            assert _legacy_gcm_seal(aead, nonce, plaintext, aad) == \
                aead.encrypt(nonce, plaintext, aad), "legacy path diverged"
            seal_s = _time_per_call(seal, repeats) / batch
            legacy_s = _time_per_call(legacy_seal, legacy_repeats) / batch
            results.append({
                "suite": name,
                "record_bytes": size,
                "keystream_blocks": (size + 15) // 16 + 1,
                "seal_us_per_record": round(seal_s * 1e6, 1),
                "legacy_seal_us_per_record": round(legacy_s * 1e6, 1),
                "seal_speedup": round(legacy_s / seal_s, 2),
            })
    return results


def bench_short_lived(
    sizes: tuple[int, ...] = SHORT_LIVED_BYTES, repeats: int = 5, keys: int = 20
) -> list[dict]:
    """Microseconds per fresh AES-GCM key: set-up plus first seal, second seal.

    Every timing covers ``keys`` keys never used before, so no key has
    GHASH tables or cached round keys, as for a key that seals a few
    records and is dropped.  The per-size legs take turns within each
    repeat, so a drift in machine speed shifts all of them alike; each
    reports its best repeat.
    """
    nonce = b"\x00" * 11 + b"\x01"
    aad = b"\x00" * 13
    legs = [(name, key_length, size)
            for name, key_length in (("aes-128-gcm", 16), ("aes-256-gcm", 32))
            for size in sizes]
    first = dict.fromkeys(legs, float("inf"))
    second = dict.fromkeys(legs, float("inf"))
    counter = 0
    for _ in range(repeats):
        for leg in legs:
            _name, key_length, size = leg
            plaintext = bytes(size)
            first_s = second_s = 0.0
            for _ in range(keys):
                counter += 1
                key = counter.to_bytes(key_length, "big")
                start = time.perf_counter()
                aead = AESGCM(key)
                aead.encrypt(nonce, plaintext, aad)
                middle = time.perf_counter()
                aead.encrypt(nonce, plaintext, aad)
                end = time.perf_counter()
                first_s += middle - start
                second_s += end - middle
            first[leg] = min(first[leg], first_s / keys)
            second[leg] = min(second[leg], second_s / keys)
    return [
        {
            "suite": name,
            "record_bytes": size,
            "setup_and_first_seal_us": round(first[name, key_length, size] * 1e6, 1),
            "second_seal_us": round(second[name, key_length, size] * 1e6, 1),
        }
        for name, key_length, size in legs
    ]


def bench_fresh_key_phases(repeats: int = 5, calls: int = 200) -> dict:
    """Microseconds per phase of a fresh AES-GCM key, best of ``repeats``.

    Per suite: the context alone (the key schedule), then the parts of
    its first seal or open: the byte-sliced engine's set-up, the round
    keys of each narrow layout, Shoup's table, and a warm pass of 1..4
    keystream blocks without and with the zero block in one more lane,
    against one scalar block for H.  ``unslice`` compares the gather and
    the strided copies per lane count.
    """
    nonce = b"\x00" * 11 + b"\x01"

    def per_call(fn) -> float:
        def many():
            for _ in range(calls):
                fn()
        return round(_time_per_call(many, repeats) / calls * 1e6, 2)

    suites = []
    for name, key_length in (("aes-128-gcm", 16), ("aes-256-gcm", 32)):
        key = bytes(range(key_length))
        aes = AES(key)
        engine = ByteslicedCtr(aes._round_keys, aes._rounds)
        passes = []
        for nblocks in (1, 2, 3, 4):
            engine.keystream_and_zero(nonce, 1, nblocks)
            engine.keystream(nonce, 1, nblocks)
            passes.append({
                "blocks": nblocks,
                "pass_us": per_call(lambda: engine.keystream(nonce, 1, nblocks)),
                "pass_with_h_us": per_call(
                    lambda: engine.keystream_and_zero(nonce, 1, nblocks)),
            })
        h = int.from_bytes(aes.encrypt_block(bytes(16)), "big")
        suites.append({
            "suite": name,
            "context_us": per_call(lambda: AESGCM(key)),
            "engine_setup_us": per_call(
                lambda: ByteslicedCtr(aes._round_keys, aes._rounds)),
            "round_keys_us": {
                str(lanes): per_call(
                    lambda layout=_ByteLayout(lanes): engine._build_round_keys(layout))
                for lanes in (1, 2, 4, 8)},
            "shoup_table_us": per_call(lambda: _shoup_table(h)),
            "scalar_h_us": per_call(lambda: aes.encrypt_block(bytes(16))),
            "passes": passes,
        })
    unslice = []
    for lanes in (1, 2, 4, 8):
        raw = bytes(range(16 * lanes))
        unslice.append({
            "lanes": lanes,
            "gather_us": per_call(lambda: _unslice(raw, lanes, 2)),
            "strided_us": per_call(
                lambda: _unslice_strided(raw, lanes, _FRAMES[2])),
        })
    return {"suites": suites, "unslice": unslice}


def bench_ghash(
    record_bytes: int = GHASH_RECORD_BYTES, repeats: int = 5, calls: int = 50,
    flights: int = 600, chain_repeats: int = 2,
) -> list[dict]:
    """GHASH ns/B on short records per table set, hot and inside a chain.

    The ``h1`` row hashes one block per step over the 16 H^1 tables, which
    serve records below ``_AGGREGATE_BLOCKS`` blocks; the ``aggregate``
    row hashes four blocks per step over the 64 tables of H^1..H^4.
    ``hot_ns_per_byte`` times one key hashing the same record over and
    over, its legs taking turns within each repeat.  ``chain_ns_per_byte``
    times every table-driven digest while ``flights`` records of
    ``record_bytes`` cross a 2-middlebox chain and are echoed back, so
    six hop keys are live; the ``aggregate`` row forces the aggregate for
    every record.  The chain legs take turns, each reporting its best
    run.  ``table_kib`` is one key's tables by ``sys.getsizeof``.
    """
    from repro.tls.record_layer import reset_aead_cache

    aead = AESGCM(bytes(range(16)))
    _warm_ghash(aead, record_bytes)
    # One long record adds the H^2..H^4 tables the aggregate row reads.
    aead.encrypt(b"\x00" * 12, bytes(16 * _AGGREGATE_BLOCKS))
    ghash = aead._ghash
    ciphertext = (bytes(range(256)) * (record_bytes // 256 + 1))[:record_bytes]
    chunks = (b"\x00" * 13, ciphertext,
              ((13 * 8) << 64 | (record_bytes * 8)).to_bytes(16, "big"))
    sets = {
        "h1": (_digest_h1, ghash._h1_tables),
        "aggregate": (_digest_aggregate, ghash._aggregate_tables),
    }
    for digest, tables in sets.values():
        assert digest(tables, chunks) == ghash.digest(*chunks[:2]), \
            "table sets diverged"
    hot = dict.fromkeys(sets, float("inf"))
    for _ in range(repeats):
        for name, (digest, tables) in sets.items():
            start = time.perf_counter()
            for _ in range(calls):
                digest(tables, chunks)
            hot[name] = min(hot[name], (time.perf_counter() - start) / calls)
    chain = dict.fromkeys(sets, float("inf"))
    for _ in range(chain_repeats):
        for name in sets:
            # Each run starts from fresh contexts, not the last run's.
            reset_aead_cache()
            with _timed_ghash(aggregate_only=name == "aggregate") as timed:
                _run_chain_once(2, flights, record_bytes,
                                b"ghash-" + name.encode(), echo=True)
            chain[name] = min(chain[name], timed.seconds / timed.bytes)
    return [
        {
            "tables": name,
            "record_bytes": record_bytes,
            "table_kib": round(sum(
                sys.getsizeof(table) + sum(map(sys.getsizeof, table))
                for table in tables) / 1024),
            "hot_ns_per_byte": round(hot[name] / record_bytes * 1e9, 1),
            "chain_ns_per_byte": round(chain[name] * 1e9, 1),
        }
        for name, (_, tables) in sets.items()
    ]


def bench_kex(repeats: int = 5, calls: int = 10) -> dict:
    """Microseconds per X25519 call on each side of the base-point cutover.

    ``ladder_base_us`` runs the Montgomery ladder at u = 9, the reference
    the comb replaces for key generation; ``table_build_ms`` and
    ``table_kib`` are the comb table's one-time cost, paid by the first
    base-point call in a process. The three legs take turns within each
    repeat, so a drift in machine speed shifts all of them alike.
    """
    private = bytes(range(1, 33))
    peer = x25519_base(bytes(range(33, 65)))  # also builds the table
    scalar = _decode_scalar(private)
    assert _ladder(scalar, 9) == x25519_base(private), "comb and ladder diverged"

    start = time.perf_counter()
    table = _build_comb_table()
    build_s = time.perf_counter() - start
    table_bytes = sum(
        sys.getsizeof(row) + sum(
            sys.getsizeof(entry) + sum(map(sys.getsizeof, entry))
            for entry in row
        )
        for row in table
    )
    legs = {
        "base": lambda: x25519_base(private),
        "exchange": lambda: x25519(private, peer),
        "ladder": lambda: _ladder(scalar, 9),
    }
    best = dict.fromkeys(legs, float("inf"))
    for _ in range(repeats):
        for name, fn in legs.items():
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[name] = min(best[name], (time.perf_counter() - start) / calls)
    base_s, exchange_s, ladder_s = best["base"], best["exchange"], best["ladder"]
    return {
        "base_us": round(base_s * 1e6, 1),
        "exchange_us": round(exchange_s * 1e6, 1),
        "ladder_base_us": round(ladder_s * 1e6, 1),
        "base_speedup": round(ladder_s / base_s, 2),
        "table_build_ms": round(build_s * 1e3, 2),
        "table_kib": round(table_bytes / 1024),
    }


# --------------------------------------------------------------------- chain


class _scalar_crypto:
    """Force the pre-fast-path code: scalar CTR, per-block GHASH, no batch.

    Every keystream comes from the T-table loop ``AES._ctr_scalar``.
    GHASH tables serve every record once a key has built them, so the
    scalar leg keeps them off by never letting a key reach the build gate
    (its keys are fresh: the leg uses its own seed).
    """

    def __enter__(self):
        from repro.tls.record_layer import ConnectionState

        self._saved = (
            AES.ctr_keystream,
            _GHash._BULK_BUILD_BYTES,
            ConnectionState.protect_many,
            ConnectionState.unprotect_many,
        )
        AES.ctr_keystream = AES._ctr_scalar
        _GHash._BULK_BUILD_BYTES = 1 << 60
        # None makes every batch-capable caller fall back to its
        # sequential per-record loop (they all test `is not None`).
        ConnectionState.protect_many = None
        ConnectionState.unprotect_many = None
        self._chacha = _scalar_chacha().__enter__()
        return self

    def __exit__(self, *exc):
        from repro.tls.record_layer import ConnectionState

        self._chacha.__exit__(*exc)
        (
            AES.ctr_keystream,
            _GHash._BULK_BUILD_BYTES,
            ConnectionState.protect_many,
            ConnectionState.unprotect_many,
        ) = self._saved
        return False


class _timed_ghash:
    """Time every table-driven GHASH digest, per ciphertext byte.

    With ``aggregate_only`` every record past the table-build gate hashes
    over the H^1..H^4 aggregate, whatever its size.
    """

    def __init__(self, aggregate_only: bool) -> None:
        self._aggregate_only = aggregate_only
        self.seconds = 0.0
        self.bytes = 0

    def _timed(self, digest):
        def run(tables, chunks):
            start = time.perf_counter()
            y = digest(tables, chunks)
            self.seconds += time.perf_counter() - start
            self.bytes += len(chunks[1])
            return y
        return run

    def __enter__(self):
        from repro.crypto import gcm

        self._saved = (gcm._digest_h1, gcm._digest_aggregate,
                       gcm._AGGREGATE_MIN_BYTES)
        gcm._digest_h1 = self._timed(gcm._digest_h1)
        gcm._digest_aggregate = self._timed(gcm._digest_aggregate)
        if self._aggregate_only:
            gcm._AGGREGATE_MIN_BYTES = 0
        return self

    def __exit__(self, *exc):
        from repro.crypto import gcm

        gcm._digest_h1, gcm._digest_aggregate, gcm._AGGREGATE_MIN_BYTES = \
            self._saved
        return False


def _run_chain_once(
    middlebox_count: int, flights: int, flight_bytes: int, seed: bytes,
    echo: bool = False,
) -> float:
    """Streams ``flights`` flights client->server; returns data-phase seconds.

    With ``echo`` the server sends each flight back, so every hop key of
    both directions is live, as in a request/response exchange.
    """
    from repro.bench.scenarios import Pki, build_chain_network
    from repro.core.config import (
        MbTLSEndpointConfig,
        MiddleboxConfig,
        MiddleboxRole,
        SessionEstablished,
    )
    from repro.core.drivers import MiddleboxService, open_mbtls, serve_mbtls
    from repro.crypto.drbg import HmacDrbg
    from repro.tls.config import TLSConfig
    from repro.tls.events import ApplicationData

    rng = HmacDrbg(seed)
    pki = Pki(rng=rng.fork(b"pki"))
    hop_names = [f"hop{i}" for i in range(1, middlebox_count + 1)]
    network = build_chain_network([0.0] * (middlebox_count + 1))

    for index, host in enumerate(hop_names):
        mb_cred = pki.credential(f"mb-{host}")

        def make_config(host=host, mb_cred=mb_cred, index=index):
            return MiddleboxConfig(
                name=f"mb-{host}",
                tls=TLSConfig(rng=rng.fork(b"mb%d" % index), credential=mb_cred),
                role=MiddleboxRole.CLIENT_SIDE,
            )

        MiddleboxService(network.host(host), make_config)

    received = [0]

    def make_server_config():
        return MbTLSEndpointConfig(
            tls=TLSConfig(rng=rng.fork(b"server"), credential=pki.credential("server")),
            middlebox_trust_store=pki.trust,
        )

    def on_server_event(engine, driver, event):
        if isinstance(event, ApplicationData):
            received[0] += len(event.data)
            if echo:
                driver.send_application_data(event.data)

    serve_mbtls(network.host("server"), make_server_config, on_event=on_server_event)

    established = [False]
    echoed = [0]

    def on_client_event(event):
        if isinstance(event, SessionEstablished):
            established[0] = True
        elif isinstance(event, ApplicationData):
            echoed[0] += len(event.data)

    config = MbTLSEndpointConfig(
        tls=TLSConfig(
            rng=rng.fork(b"client"), trust_store=pki.trust, server_name="server"
        ),
        middlebox_trust_store=pki.trust,
    )
    _engine, driver = open_mbtls(
        network.host("client"), "server", config, on_event=on_client_event
    )
    network.sim.run()
    if not established[0]:
        raise RuntimeError("chain bench: session did not establish")

    payload = bytes(range(256)) * (flight_bytes // 256)
    start = time.perf_counter()
    for _ in range(flights):
        driver.send_application_data(payload)
        network.sim.run()
    elapsed = time.perf_counter() - start
    if received[0] != flights * flight_bytes:
        raise RuntimeError("chain bench: server missed data")
    if echoed[0] != (flights * flight_bytes if echo else 0):
        raise RuntimeError("chain bench: client missed the echo")
    return elapsed


def _party_record_counts(plane) -> dict:
    """Per-party sealed/opened record totals from an observability plane."""
    parties: dict[str, dict[str, int]] = {}
    for family in ("sealed", "opened"):
        for labels, value in plane.metrics.iter_counters(f"records_{family}"):
            party = labels.get("party", "")
            entry = parties.setdefault(party, {"sealed": 0, "opened": 0})
            entry[family] += value
    return dict(sorted(parties.items()))


def bench_chain(
    middlebox_count: int = 2,
    flights: int = 8,
    flight_bytes: int = 64 * RECORD_BYTES,
    record_bytes: int = RECORD_BYTES,
) -> dict:
    """End-to-end records/sec through the middlebox chain, fast vs scalar.

    Both legs run serially, the AEAD pool held off, so ``speedup`` means
    the same on every machine. Where the machine's CPUs select a pool
    (:func:`repro.crypto.pool.shared`), a third leg re-runs the fast path
    on it; pooled wire bytes are bit-identical to serial by construction,
    which the pool equality tests pin separately.
    """
    from repro import obs

    records = flights * (flight_bytes // record_bytes)
    with aead_pool.substituted(None):
        # A fresh scoped plane makes the per-party record accounting below
        # a pure function of this bench run, not whatever ran before it.
        with obs.scoped() as plane:
            fast_s = _run_chain_once(middlebox_count, flights, flight_bytes, b"chain-fast")
        with _scalar_crypto():
            # A fraction of the fast run keeps the scalar leg under control;
            # rates are per-second so the comparison is unaffected.
            scalar_flights = max(1, flights // 4)
            with obs.scoped():
                scalar_s = _run_chain_once(
                    middlebox_count, scalar_flights, flight_bytes, b"chain-scalar"
                )
    fast_rate = records / fast_s
    scalar_rate = (scalar_flights * (flight_bytes // record_bytes)) / scalar_s
    result = {
        "middleboxes": middlebox_count,
        "records": records,
        "record_bytes": record_bytes,
        "records_per_sec": round(fast_rate, 1),
        "scalar_records_per_sec": round(scalar_rate, 1),
        "speedup": round(fast_rate / scalar_rate, 2),
        "party_records": _party_record_counts(plane),
    }
    pool = aead_pool.shared()
    if pool is not None:
        with obs.scoped() as pool_plane:
            pool_s = _run_chain_once(
                middlebox_count, flights, flight_bytes, b"chain-pool"
            )
        pool_rate = records / pool_s
        pooled_records = sum(
            value
            for _labels, value in pool_plane.metrics.iter_counters(
                "crypto.pool.records"
            )
        )
        result["pool"] = {
            "workers": pool.workers,
            "records_per_sec": round(pool_rate, 1),
            "speedup_vs_serial": round(pool_rate / fast_rate, 2),
            "pooled_records": pooled_records,
        }
    return result


# -------------------------------------------------------------------- report


def run(git: str, quick: bool = False) -> dict:
    """The full crypto bench report (written to ``BENCH_crypto.json``).

    ``git`` is the tree's stamp, taken by the caller before any report is
    written (a written report makes the tree dirty).
    """
    if quick:
        primitives = bench_primitives(repeats=3)
        small = bench_small_records(repeats=3, legacy_repeats=1)
        short_lived = bench_short_lived(repeats=2)
        phases = bench_fresh_key_phases(repeats=2, calls=50)
        ghash = bench_ghash(repeats=2, flights=300, chain_repeats=1)
    else:
        primitives = bench_primitives()
        small = bench_small_records()
        short_lived = bench_short_lived()
        phases = bench_fresh_key_phases()
        ghash = bench_ghash()
    # The gate holds kex.base_speedup, and two repeats let one slow spell
    # sink it (4.0x in 1 of 30 runs, against 6.1-7.0x in 30 runs of five
    # repeats); the full leg takes about 0.1 s, so quick runs keep it.
    kex = bench_kex()
    chain = bench_chain(flights=4) if quick else bench_chain()
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "crypto",
        "git": git,
        "quick": quick,
        "record_bytes": RECORD_BYTES,
        "primitives": primitives,
        "small_records": small,
        "short_lived": short_lived,
        "fresh_key_phases": phases,
        "ghash": ghash,
        "kex": kex,
        "chain": chain,
    }


def check_regression(
    fresh: dict, baseline: dict, tolerance: float = 0.30
) -> list[str]:
    """Compare a fresh report against the checked-in baseline.

    Absolute MB/s numbers vary with the host, so the gate compares the
    machine-independent *ratios* — each suite's seal speedup over its
    scalar path, the chain speedup and the comb's ``kex.base_speedup``
    over the ladder at u = 9 — and additionally enforces the
    hard floors from the fast-path acceptance criteria (3x AES seal, 4x
    ChaCha seal, 2x chain, and — when the fresh report carries a pooled
    chain leg with >= 4 workers — 2x pooled records/sec vs serial).
    Returns a list of failure descriptions; empty means pass.
    """
    problems = []
    base_by_suite = {p["suite"]: p for p in baseline.get("primitives", [])}
    for entry in fresh["primitives"]:
        speedup = entry.get("seal_speedup")
        if speedup is None:
            continue
        floor = 4.0 if entry["suite"] == "chacha20-poly1305" else 3.0
        if speedup < floor:
            problems.append(
                f"{entry['suite']}: seal speedup {speedup}x below the "
                f"{floor:g}x floor"
            )
        base = base_by_suite.get(entry["suite"], {}).get("seal_speedup")
        if base and speedup < base * (1 - tolerance):
            problems.append(
                f"{entry['suite']}: seal speedup {speedup}x regressed >"
                f"{tolerance:.0%} from baseline {base}x"
            )
    chain = fresh["chain"]
    if chain["speedup"] < 2.0:
        problems.append(
            f"chain: speedup {chain['speedup']}x below the 2x floor"
        )
    base_chain = baseline.get("chain", {}).get("speedup")
    if base_chain and chain["speedup"] < base_chain * (1 - tolerance):
        problems.append(
            f"chain: speedup {chain['speedup']}x regressed >"
            f"{tolerance:.0%} from baseline {base_chain}x"
        )
    kex = fresh.get("kex", {}).get("base_speedup")
    base_kex = baseline.get("kex", {}).get("base_speedup")
    if kex is not None and base_kex and kex < base_kex * (1 - tolerance):
        problems.append(
            f"kex: base speedup {kex}x regressed >"
            f"{tolerance:.0%} from baseline {base_kex}x"
        )
    # The pooled floor keys off the *fresh* report: a machine with fewer
    # than two usable CPUs produces no pool leg, and one with fewer than
    # four is not held to the floor; a 4-vCPU runner selects four workers
    # and must clear 2x vs its own serial leg.
    pool = chain.get("pool")
    if pool and pool.get("workers", 0) >= 4:
        if pool["speedup_vs_serial"] < 2.0:
            problems.append(
                f"chain pool: {pool['workers']}-worker speedup "
                f"{pool['speedup_vs_serial']}x below the 2x floor"
            )
        if pool.get("pooled_records", 1) <= 0:
            problems.append("chain pool: no records went through the pool")
    return problems
