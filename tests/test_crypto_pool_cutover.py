"""The record layer on both sides of the AEAD pool's eligibility cutover.

A batch goes to the pool from ``_MIN_RECORDS`` records and ``_MIN_BYTES``
of AEAD input on: plaintext when sealing, ciphertext and tag when
opening, so the two ops cross the byte cutover at flights 16 B per record
apart. One record or one byte either side of each op's cutover,
``protect_many`` and ``unprotect_many`` must match per-record
``protect``/``unprotect`` byte for byte, and ``crypto.pool.records`` must
show which side ran pooled.
"""

import pytest

from repro import obs
from repro.crypto import pool as aead_pool
from repro.crypto.pool import _MIN_BYTES, _MIN_RECORDS, AeadPool
from repro.tls.ciphersuites import (
    TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256 as AES_SUITE,
    TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256 as CHACHA_SUITE,
)
from repro.tls.record_layer import ConnectionState
from repro.wire.records import MAX_FRAGMENT, ContentType

_PER_RECORD = _MIN_BYTES // _MIN_RECORDS
# (AEAD input sizes of the op under test, whether its batch is pooled)
CASES = {
    "records-below": ([MAX_FRAGMENT] * (_MIN_RECORDS - 1), False),
    "records-at": ([MAX_FRAGMENT] * _MIN_RECORDS, True),
    "bytes-below": ([_PER_RECORD] * (_MIN_RECORDS - 1) + [_PER_RECORD - 1], False),
    "bytes-at": ([_PER_RECORD] * _MIN_RECORDS, True),
}


@pytest.fixture(scope="module")
def pool():
    pool = AeadPool(workers=2)
    yield pool
    pool.close()


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("op", ["seal", "open"])
@pytest.mark.parametrize("suite", [AES_SUITE, CHACHA_SUITE], ids=["aes128", "chacha"])
def test_batch_matches_per_record_at_the_cutover(suite, op, case, pool, rng):
    sizes, pooled = CASES[case]
    assert aead_pool.eligible([(b"", bytes(n), b"") for n in sizes]) is pooled
    key = rng.random_bytes(suite.key_length)
    fixed_iv = rng.random_bytes(suite.fixed_iv_length)
    tag = suite.new_aead(key).tag_length if op == "open" else 0
    flight = [
        (ContentType.APPLICATION_DATA, rng.random_bytes(n - tag)) for n in sizes
    ]

    serial_writer = ConnectionState(suite, key, fixed_iv)
    serial = [serial_writer.protect(*item) for item in flight]
    serial_reader = ConnectionState(suite, key, fixed_iv)
    plaintexts = [serial_reader.unprotect(record) for record in serial]

    writer = ConnectionState(suite, key, fixed_iv)
    reader = ConnectionState(suite, key, fixed_iv)
    with obs.scoped() as plane, aead_pool.substituted(pool):
        records = writer.protect_many(flight)
        opened = reader.unprotect_many(records)

    assert [r.encode() for r in records] == [r.encode() for r in serial]
    assert opened == plaintexts == [data for _, data in flight]
    assert writer.sequence == serial_writer.sequence == len(sizes)
    assert reader.sequence == serial_reader.sequence == len(sizes)
    assert plane.metrics.counter_value("crypto.pool.records", op=op) == (
        len(sizes) if pooled else 0
    )
