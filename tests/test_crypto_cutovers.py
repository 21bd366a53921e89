"""AES-GCM against the ``cryptography`` oracle on both sides of every cutover.

The fast paths switch at sizes read from the class constants below: the
byte-sliced CTR engine below ``AES._BITSLICE_THRESHOLD`` keystream blocks
and the bitsliced one from there on (GCM asks for one block more than the
data, for the tag mask E_K(J0)), the byte-sliced engine's 1, 2 and 4-lane
passes, both engines' padding to multiples of 8 blocks, and the 4-block
aggregated GHASH step.
GHASH tables are built once a key has hashed ``_GHash._BULK_BUILD_BYTES``:
first the 16 H^1 position tables, which serve every record, then those of
H^2..H^4 on the key's first record of ``_AGGREGATE_BLOCKS`` ciphertext
blocks, which records that long hash over.  Each length runs with the
tables absent, with the H^1 tables only, and with the aggregate built.
"""

import sys

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM as OracleGCM

from repro.crypto.aes import AES
from repro.crypto.gcm import _AGGREGATE_BLOCKS, AESGCM, _GHash
from repro.errors import IntegrityError

BLOCK = AES.block_size
# One aggregated GHASH Horner step folds four blocks.
GROUP = 4 * BLOCK
MAX_RECORD = 16 * 1024

# Data blocks + J0 last stay below the bitslice cutover, then last fill
# the bitsliced engine's first padded size; the byte-sliced engine's
# narrow passes (with J0, 1..16 and 17..48 data bytes run on 2 and 4
# lanes) and its first two multiple-of-8 sizes (8 and 16 blocks);
# group-aligned sizes end with no single-block tail; the longest record
# hashed one block per step (511 blocks) and the shortest hashed four
# (512), each a byte and a block either side.
_CUTOVER = BLOCK * (AES._BITSLICE_THRESHOLD - 2)
_PADDED = BLOCK * (((AES._BITSLICE_THRESHOLD + 7) & ~7) - 1)
LONG = BLOCK * (_AGGREGATE_BLOCKS - 1) + 1
SHORT = LONG - 1
_BOUNDARIES = (BLOCK, BLOCK * 2, BLOCK * 3, BLOCK * 4, GROUP, BLOCK * 7,
               BLOCK * 15, 4 * GROUP, 8 * GROUP, _CUTOVER, _PADDED,
               SHORT, BLOCK * _AGGREGATE_BLOCKS)
LENGTHS = sorted(
    {0, 1, MAX_RECORD, SHORT - BLOCK, LONG + BLOCK}
    | {b + d for b in _BOUNDARIES for d in (-1, 0, 1)}
)


def _tables(aead: AESGCM) -> tuple[bool, bool]:
    """Whether the key holds its H^1 tables, and the H^2..H^4 ones."""
    ghash = aead._ghash
    return ghash._h1_tables is not None, ghash._aggregate_tables is not None


def _warm(aead: AESGCM, record: int) -> AESGCM:
    """Push one key past the table-build gate with records of ``record`` B."""
    for _ in range(-(-_GHash._BULK_BUILD_BYTES // record)):
        aead.encrypt(bytes(12), bytes(record))
    assert _tables(aead) == (True, record >= LONG)
    return aead


@pytest.fixture(scope="module")
def built_contexts():
    """One AES-128 and one AES-256 context with every GHASH table built."""
    return {n: _warm(AESGCM(bytes(range(n))), MAX_RECORD) for n in (16, 32)}


@pytest.fixture(scope="module")
def h1_contexts():
    """One AES-128 and one AES-256 context past the gate on short records."""
    return {n: _warm(AESGCM(bytes(range(n))), SHORT) for n in (16, 32)}


@pytest.mark.parametrize("aad_length", [0, 13, 17])
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("tables", ["absent", "h1", "built"])
@pytest.mark.parametrize("key_length", [16, 32])
def test_matches_oracle_and_rejects_tamper(
    key_length, tables, length, aad_length, built_contexts, h1_contexts, rng
):
    key = bytes(range(key_length))
    if tables != "absent":
        if tables == "built":
            shared = built_contexts[key_length]
        elif length < LONG:
            shared = h1_contexts[key_length]
        else:
            # A long record builds the aggregate on this key: a key of
            # its own keeps the shared one at H^1.
            shared = _warm(AESGCM(key), SHORT)

        def context():
            return shared
    else:
        # A fresh context per operation keeps every key below the gate.
        def context():
            return AESGCM(key)

    nonce = rng.random_bytes(12)
    plaintext = rng.random_bytes(length)
    aad = rng.random_bytes(aad_length)
    sealed = context().encrypt(nonce, plaintext, aad)
    assert sealed == OracleGCM(key).encrypt(nonce, plaintext, aad)

    tampered = bytearray(sealed)
    tampered[rng.randint_range(0, len(sealed) - 1)] ^= 0x01 << rng.randint_range(0, 7)
    for wrap in (bytes, memoryview):
        aead = context()
        assert aead.decrypt(nonce, wrap(sealed), aad) == plaintext
        with pytest.raises(IntegrityError):
            aead.decrypt(nonce, wrap(bytes(tampered)), aad)
        assert _tables(aead) == {
            "absent": (False, False),
            "h1": (True, length >= LONG),
            "built": (True, True),
        }[tables]


@pytest.mark.parametrize("key_length", [16, 32])
def test_short_long_short_builds_the_aggregate_on_the_first_long_record(
    key_length, rng
):
    key = bytes(range(key_length))
    oracle = OracleGCM(key)
    aead = AESGCM(key)
    gate = -(-_GHash._BULK_BUILD_BYTES // SHORT)
    for length, expected in [
        *[(SHORT, (False, False))] * (gate - 1),
        (SHORT, (True, False)),
        (LONG - BLOCK, (True, False)),
        (LONG, (True, True)),
        (MAX_RECORD, (True, True)),
        (SHORT, (True, True)),
        (64, (True, True)),
    ]:
        nonce = rng.random_bytes(12)
        plaintext = rng.random_bytes(length)
        aad = rng.random_bytes(13)
        assert aead.encrypt(nonce, plaintext, aad) == \
            oracle.encrypt(nonce, plaintext, aad)
        assert _tables(aead) == expected, length


def test_short_records_keep_sixteen_position_tables(rng):
    aead = AESGCM(rng.random_bytes(32))
    for _ in range(2 * -(-_GHash._BULK_BUILD_BYTES // 1024)):
        aead.encrypt(rng.random_bytes(12), bytes(1024))
    ghash = aead._ghash
    assert ghash._hashed_bytes >= _GHash._BULK_BUILD_BYTES
    assert ghash._aggregate_tables is None
    tables = ghash._h1_tables
    assert len(tables) == 16
    assert all(len(table) == 256 for table in tables)
    size = sum(sys.getsizeof(table) + sum(map(sys.getsizeof, table))
               for table in tables)
    assert size <= 256 * 1024
