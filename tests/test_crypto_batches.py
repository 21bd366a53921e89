"""Mixed-size ``seal_many``/``open_many`` batches with one tampered record.

Each batch mixes record sizes on both sides of the AEAD cutovers: AES-CTR
byte-sliced below ``AES._BITSLICE_THRESHOLD`` keystream blocks and
bitsliced from there, GHASH over the H^1 tables below ``_AGGREGATE_BLOCKS``
ciphertext blocks and the H^1..H^4 aggregate from there (on keys past the
table-build gate), and ChaCha20's lane engine for flights of at least
``_VECTOR_THRESHOLD`` blocks.  The ``cryptography`` package is the oracle:
it must agree on every sealed record and reject the tampered one, the
batch open must raise ``IntegrityError`` with no plaintext, and
``ConnectionState.unprotect_many`` must consume no sequence number.
"""

import functools

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM as OracleGCM
from cryptography.hazmat.primitives.ciphers.aead import (
    ChaCha20Poly1305 as OracleChaCha,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import chacha
from repro.crypto.aes import AES
from repro.crypto.chacha import ChaCha20Poly1305
from repro.crypto.drbg import HmacDrbg
from repro.crypto.gcm import _AGGREGATE_BLOCKS, AESGCM, _GHash
from repro.errors import IntegrityError
from repro.tls.ciphersuites import (
    TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
    TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
    TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256,
)
from repro.tls.record_layer import EXPLICIT_NONCE_LENGTH, ConnectionState
from repro.wire.records import MAX_FRAGMENT, TLS12_VERSION, ContentType, Record

BLOCK = AES.block_size
# The longest GCM record on the byte-sliced engine (its data blocks plus
# E_K(J0) stay below the cutover), and the longest GHASH hashes over the
# H^1 tables alone.
BYTE_SLICED_MAX = BLOCK * (AES._BITSLICE_THRESHOLD - 2)
SHORT = BLOCK * (_AGGREGATE_BLOCKS - 1)

RECORD_SIZES = st.one_of(
    st.integers(0, BYTE_SLICED_MAX),
    st.integers(BYTE_SLICED_MAX + 1, SHORT),
    st.integers(SHORT + 1, MAX_FRAGMENT),
)
BATCHES = st.lists(RECORD_SIZES, min_size=3, max_size=6)


@functools.cache
def _warm_gcm(key_length: int) -> AESGCM:
    """A key past the GHASH table-build gate, on short records."""
    aead = AESGCM(bytes(range(key_length)))
    for _ in range(-(-_GHash._BULK_BUILD_BYTES // SHORT)):
        aead.encrypt(bytes(12), bytes(SHORT))
    return aead


def _flip(data: bytes, rng: HmacDrbg) -> bytes:
    """``data`` with one random bit flipped."""
    out = bytearray(data)
    out[rng.randint_range(0, len(out) - 1)] ^= 1 << rng.randint_range(0, 7)
    return bytes(out)


def _check_batch(aead, oracle, sizes: list[int], tamper: int, rng: HmacDrbg):
    items = [(rng.random_bytes(12), rng.random_bytes(n), rng.random_bytes(13))
             for n in sizes]
    sealed = aead.seal_many(items)
    assert sealed == [oracle.encrypt(*item) for item in items]
    opened = [(nonce, data, aad) for (nonce, _, aad), data in zip(items, sealed)]
    assert aead.open_many(opened) == [pt for _, pt, _ in items]

    nonce, data, aad = opened[tamper]
    opened[tamper] = (nonce, _flip(data, rng), aad)
    with pytest.raises(InvalidTag):
        oracle.decrypt(*opened[tamper])
    with pytest.raises(IntegrityError):
        aead.open_many(opened)


@settings(max_examples=25, deadline=None)
@given(key_length=st.sampled_from([16, 32]), warm=st.booleans(),
       sizes=BATCHES, pick=st.integers(0), seed=st.binary(max_size=8))
def test_gcm_batch_with_tampered_record(key_length, warm, sizes, pick, seed):
    rng = HmacDrbg(b"gcm batch" + seed)
    if warm:
        aead = _warm_gcm(key_length)
    else:
        aead = AESGCM(bytes(range(key_length)))
    oracle = OracleGCM(bytes(range(key_length)))
    _check_batch(aead, oracle, sizes, 1 + pick % (len(sizes) - 2), rng)


@settings(max_examples=25, deadline=None)
@given(sizes=st.one_of(BATCHES, st.lists(st.integers(0, 128),
                                         min_size=3, max_size=6)),
       pick=st.integers(0), seed=st.binary(max_size=8))
def test_chacha_batch_with_tampered_record(sizes, pick, seed):
    rng = HmacDrbg(b"chacha batch" + seed)
    key = rng.random_bytes(32)
    _check_batch(ChaCha20Poly1305(key), OracleChaCha(key), sizes,
                 1 + pick % (len(sizes) - 2), rng)


@pytest.mark.parametrize("sizes", [[0, 0, 0, 0], [64, 1, 64], [128, 0, 17]])
def test_chacha_batch_crosses_the_lane_cutover(sizes, rng):
    # Each record is one Poly1305 key block plus its data blocks: every
    # record alone stays on the scalar tier, the flight takes the lanes.
    blocks = [1 + -(-n // 64) for n in sizes]
    assert max(blocks) < chacha._VECTOR_THRESHOLD <= sum(blocks)
    key = rng.random_bytes(32)
    _check_batch(ChaCha20Poly1305(key), OracleChaCha(key), sizes,
                 len(sizes) // 2, rng)


SUITES = [TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
          TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
          TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256]


@settings(max_examples=15, deadline=None)
@given(suite=st.sampled_from(SUITES), sizes=BATCHES, pick=st.integers(0),
       start=st.integers(0, 1 << 40), seed=st.binary(max_size=8))
def test_unprotect_many_consumes_no_sequence_on_tamper(
    suite, sizes, pick, start, seed
):
    rng = HmacDrbg(b"record batch" + seed)
    key = rng.random_bytes(suite.key_length)
    fixed_iv = rng.random_bytes(suite.fixed_iv_length)
    oracle = (OracleChaCha if suite.aead_factory is ChaCha20Poly1305
              else OracleGCM)(key)
    writer = ConnectionState(suite, key, fixed_iv, start)
    reader = ConnectionState(suite, key, fixed_iv, start)
    plaintexts = [rng.random_bytes(n) for n in sizes]
    records = writer.protect_many(
        [(ContentType.APPLICATION_DATA, pt) for pt in plaintexts])
    tamper = 1 + pick % (len(sizes) - 2)
    records[tamper] = Record(ContentType.APPLICATION_DATA,
                             _flip(records[tamper].payload, rng))

    for index, (record, plaintext) in enumerate(zip(records, plaintexts)):
        nonce = fixed_iv + record.payload[:EXPLICIT_NONCE_LENGTH]
        aad = ((start + index).to_bytes(8, "big")
               + bytes([ContentType.APPLICATION_DATA])
               + TLS12_VERSION.to_bytes(2, "big")
               + len(plaintext).to_bytes(2, "big"))
        data = record.payload[EXPLICIT_NONCE_LENGTH:]
        if index == tamper:
            with pytest.raises(InvalidTag):
                oracle.decrypt(nonce, data, aad)
        else:
            assert oracle.decrypt(nonce, data, aad) == plaintext

    with pytest.raises(IntegrityError):
        reader.unprotect_many(records)
    assert reader.sequence == start
    # Per-record replay recovers exactly the valid prefix.
    for record, plaintext in zip(records[:tamper], plaintexts):
        assert reader.unprotect(record) == plaintext
    with pytest.raises(IntegrityError):
        reader.unprotect(records[tamper])
    assert reader.sequence == start + tamper
