"""Record protection: TLS 1.2 AEAD with explicit nonces and sequence numbers.

One :class:`ConnectionState` protects one direction of one hop. The AAD
binds the receiver's sequence number, content type, version, and plaintext
length — so replayed, reordered, or cross-hop-spliced records fail the tag
check. This is the mechanism behind the paper's P2 (data authentication)
and, combined with unique per-hop keys, P4 (path integrity).
"""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.crypto import pool as aead_pool
from repro.errors import CryptoError, IntegrityError, ProtocolError
from repro.tls.ciphersuites import CipherSuite
from repro.wire.records import ContentType, MAX_FRAGMENT, Record, TLS12_VERSION

__all__ = [
    "ConnectionState",
    "EXPLICIT_NONCE_LENGTH",
    "aead_for",
    "aead_cache_capacity",
    "reset_aead_cache",
]

EXPLICIT_NONCE_LENGTH = 8

_AEAD_CACHE: OrderedDict[tuple[int, bytes], object] = OrderedDict()
# Sized for fleet runs, not single scenarios: a full mbTLS session keeps
# one context per hop direction live (client/server read+write plus two per
# middlebox), so ~6 per session with a middlebox chain and 10^4 concurrent
# sessions needs ~6e4 contexts resident before the LRU starts thrashing.
# Context sizes vary by two orders of magnitude (``sys.getsizeof``, summed
# over the objects each holds): a short-lived AES-GCM context keeps its
# ~13 KiB Shoup GHASH table and ~3 KiB of key schedule; a long-lived one
# adds ~210 KiB of H^1 position tables once it has hashed 64 KiB (~840 KiB
# with H^2..H^4, after its first record of 512 blocks), plus up to ~770 KiB
# of bitsliced round keys (AES-256) when it carries 120–264-block records.
# A full cache of long-lived contexts would pin tens of GiB; fleet runs stay
# far below that because their keys are short-lived.  Fleet runs watch the
# ``aead_cache.evictions`` counter to see thrash instead of silently
# re-deriving.
_AEAD_CACHE_MAX = 65_536

# The ``aead_cache.size`` gauge and the obs plane it was resolved on.
_size_gauge = (None, None)


def _cache_size_gauge():
    """The current plane's ``aead_cache.size`` gauge, resolved once per plane."""
    global _size_gauge
    current = obs.plane()
    if _size_gauge[0] is not current:
        _size_gauge = (current, current.metrics.gauge("aead_cache.size"))
    return _size_gauge[1]


def aead_cache_capacity(capacity: int | None = None) -> int:
    """Read (and optionally set) the AEAD-context cache capacity.

    Returns the previous capacity; tests shrink it to force evictions and
    restore the old value afterwards.  Shrinking evicts immediately.
    """
    global _AEAD_CACHE_MAX
    previous = _AEAD_CACHE_MAX
    if capacity is not None:
        if capacity < 1:
            raise ValueError("AEAD cache capacity must be positive")
        _AEAD_CACHE_MAX = capacity
        while len(_AEAD_CACHE) > _AEAD_CACHE_MAX:
            _AEAD_CACHE.popitem(last=False)
            obs.counter("aead_cache.evictions").inc()
        _cache_size_gauge().set(len(_AEAD_CACHE))
    return previous


def reset_aead_cache() -> None:
    """Drop every cached context (not counted as evictions).

    Reproducible benchmarks call this up front: eviction counts depend on
    what earlier scenarios left in the process-global cache, so a clean
    start is what makes same-seed runs report identical cache behavior.
    """
    _AEAD_CACHE.clear()
    _cache_size_gauge().set(0)


def aead_for(suite: CipherSuite, key: bytes):
    """A shared AEAD context for ``(suite, key)``.

    Expanding an AES key schedule — and, on the fast path, its per-size
    round-key material and GHASH byte tables — is far more expensive than a
    single record seal, yet each hop direction keeps using the same key
    for the life of the session (and again after resumption, and again
    when hop keys are re-derived for a middlebox joining mid-stream).
    The AEAD objects are stateless (the nonce arrives per call), so one
    instance per key can safely serve every ConnectionState that shares
    that key, including clones at new sequence numbers.
    """
    cache_key = (suite.code, key)
    aead = _AEAD_CACHE.get(cache_key)
    if aead is None:
        aead = suite.new_aead(key)
        _AEAD_CACHE[cache_key] = aead
        if len(_AEAD_CACHE) > _AEAD_CACHE_MAX:
            _AEAD_CACHE.popitem(last=False)
            obs.counter("aead_cache.evictions").inc()
    else:
        _AEAD_CACHE.move_to_end(cache_key)
    # Set on hits too: the cache outlives obs planes (it is process-global,
    # planes are per-scenario), so a warm-cache run must still report size.
    _cache_size_gauge().set(len(_AEAD_CACHE))
    return aead


class ConnectionState:
    """AEAD state for one direction: suite, key, fixed IV, sequence number."""

    def __init__(
        self, suite: CipherSuite, key: bytes, fixed_iv: bytes, sequence: int = 0
    ) -> None:
        if len(key) != suite.key_length:
            raise ProtocolError("record key has wrong length for suite")
        if len(fixed_iv) != suite.fixed_iv_length:
            raise ProtocolError("record fixed IV has wrong length for suite")
        self.suite = suite
        self.key = key
        self.fixed_iv = fixed_iv
        self.sequence = sequence
        self._aead = aead_for(suite, key)

    def _aad(self, content_type: ContentType, length: int, sequence: int) -> bytes:
        return (
            sequence.to_bytes(8, "big")
            + bytes([int(content_type)])
            + TLS12_VERSION.to_bytes(2, "big")
            + length.to_bytes(2, "big")
        )

    def protect(self, content_type: ContentType, plaintext: bytes) -> Record:
        """Encrypt a plaintext fragment into a record."""
        if len(plaintext) > MAX_FRAGMENT:
            raise ProtocolError("plaintext fragment exceeds maximum size")
        explicit_nonce = self.sequence.to_bytes(EXPLICIT_NONCE_LENGTH, "big")
        nonce = self.fixed_iv + explicit_nonce
        aad = self._aad(content_type, len(plaintext), self.sequence)
        ciphertext = self._aead.encrypt(nonce, plaintext, aad)
        self.sequence += 1
        return Record(content_type=content_type, payload=explicit_nonce + ciphertext)

    def unprotect(self, record: Record) -> bytes:
        """Decrypt a record; raises IntegrityError on any tampering."""
        payload = record.payload
        if len(payload) < EXPLICIT_NONCE_LENGTH + self._aead.tag_length:
            raise IntegrityError("protected record too short")
        # bytes() tolerates memoryview payloads from the zero-copy
        # receive path (bytes + memoryview doesn't concatenate).
        explicit_nonce = bytes(payload[:EXPLICIT_NONCE_LENGTH])
        ciphertext = payload[EXPLICIT_NONCE_LENGTH:]
        nonce = self.fixed_iv + explicit_nonce
        plaintext_length = len(ciphertext) - self._aead.tag_length
        aad = self._aad(record.content_type, plaintext_length, self.sequence)
        plaintext = self._aead.decrypt(nonce, ciphertext, aad)
        self.sequence += 1
        return plaintext

    def _seal_batch(self, batch: list[tuple[bytes, bytes, bytes]]) -> list[bytes]:
        """Seal a prepared batch, via the process pool when configured.

        Each record is a pure function of its tuple, and the pool merges
        results in submission order, so pooled output is byte-identical
        to the serial path; pool-infrastructure failures fall back to
        serial for the batch.
        """
        pool = aead_pool.active()
        if pool is not None and pool.eligible(batch):
            try:
                return pool.seal_many(self.suite, self.key, batch)
            except CryptoError:
                raise
            except Exception:
                pass
        return self._aead.seal_many(batch)

    def _open_batch(self, batch: list[tuple[bytes, bytes, bytes]]) -> list[bytes]:
        """Open a prepared batch, via the process pool when configured.

        IntegrityError (a CryptoError) propagates from workers untouched
        — a tag failure is a verdict, not a pool malfunction — keeping
        unprotect_many's all-or-nothing contract.
        """
        pool = aead_pool.active()
        if pool is not None and pool.eligible(batch):
            try:
                return pool.open_many(self.suite, self.key, batch)
            except CryptoError:
                raise
            except Exception:
                pass
        return self._aead.open_many(batch)

    def protect_many(
        self, items: list[tuple[ContentType, bytes]]
    ) -> list[Record]:
        """Encrypt a flight of fragments in one call.

        Byte-identical to sequential :meth:`protect` calls — sequence
        numbers advance per record exactly as before.
        """
        batch = []
        sequence = self.sequence
        fixed_iv = self.fixed_iv
        for content_type, plaintext in items:
            if len(plaintext) > MAX_FRAGMENT:
                raise ProtocolError("plaintext fragment exceeds maximum size")
            explicit_nonce = sequence.to_bytes(EXPLICIT_NONCE_LENGTH, "big")
            batch.append((
                fixed_iv + explicit_nonce,
                plaintext,
                self._aad(content_type, len(plaintext), sequence),
            ))
            sequence += 1
        sealed = self._seal_batch(batch)
        self.sequence = sequence
        return [
            Record(
                content_type=items[i][0],
                payload=batch[i][0][len(fixed_iv):] + sealed[i],
            )
            for i in range(len(items))
        ]

    def unprotect_many(self, records: list[Record]) -> list[bytes]:
        """Decrypt a flight of records in one call (all-or-nothing).

        On success the result and sequence advancement are byte-identical
        to sequential :meth:`unprotect` calls.  On any failure an
        IntegrityError is raised with *no* sequence number consumed, so
        the caller can re-run per record to recover the valid prefix with
        exact sequential semantics.
        """
        tag_length = self._aead.tag_length
        batch = []
        sequence = self.sequence
        fixed_iv = self.fixed_iv
        for record in records:
            payload = record.payload
            if len(payload) < EXPLICIT_NONCE_LENGTH + tag_length:
                raise IntegrityError("protected record too short")
            ciphertext = payload[EXPLICIT_NONCE_LENGTH:]
            batch.append((
                fixed_iv + bytes(payload[:EXPLICIT_NONCE_LENGTH]),
                ciphertext,
                self._aad(record.content_type,
                          len(ciphertext) - tag_length, sequence),
            ))
            sequence += 1
        plaintexts = self._open_batch(batch)
        self.sequence = sequence
        return plaintexts

    def clone_at(self, sequence: int) -> "ConnectionState":
        """A copy of this state starting at a given sequence number.

        Used when hop keys are handed to a middlebox mid-stream: the
        MBTLSKeyMaterial message carries the sequence numbers to resume from.
        """
        return ConnectionState(self.suite, self.key, self.fixed_iv, sequence)
