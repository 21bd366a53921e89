"""AES-GCM against the ``cryptography`` oracle on both sides of every cutover.

The fast paths switch at sizes read from the class constants below: the
byte-sliced CTR engine below ``AES._BITSLICE_THRESHOLD`` keystream blocks
and the bitsliced one from there on (GCM asks for one block more than the
data, for the tag mask E_K(J0)), the byte-sliced engine's 1, 2 and 4-lane
passes, both engines' padding to multiples of 8 blocks, and the 4-block
aggregated GHASH step.
GHASH tables are built once a key has hashed ``_GHash._BULK_BUILD_BYTES``
and then serve every record size, so each length runs with the tables
absent and built.
"""

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM as OracleGCM

from repro.crypto.aes import AES
from repro.crypto.gcm import AESGCM, _GHash
from repro.errors import IntegrityError

BLOCK = AES.block_size
# One aggregated GHASH Horner step folds four blocks.
GROUP = 4 * BLOCK
MAX_RECORD = 16 * 1024

# Data blocks + J0 last stay below the bitslice cutover, then last fill
# the bitsliced engine's first padded size; the byte-sliced engine's
# narrow passes (with J0, 1..16 and 17..48 data bytes run on 2 and 4
# lanes) and its first two multiple-of-8 sizes (8 and 16 blocks);
# group-aligned sizes end with no single-block tail.
_CUTOVER = BLOCK * (AES._BITSLICE_THRESHOLD - 2)
_PADDED = BLOCK * (((AES._BITSLICE_THRESHOLD + 7) & ~7) - 1)
_BOUNDARIES = (BLOCK, BLOCK * 2, BLOCK * 3, BLOCK * 4, GROUP, BLOCK * 7,
               BLOCK * 15, 4 * GROUP, 8 * GROUP, _CUTOVER, _PADDED)
LENGTHS = sorted(
    {0, 1, MAX_RECORD} | {b + d for b in _BOUNDARIES for d in (-1, 0, 1)}
)


def _warm(aead: AESGCM) -> AESGCM:
    """Push one key past the table-build gate."""
    for _ in range(-(-_GHash._BULK_BUILD_BYTES // MAX_RECORD)):
        aead.encrypt(bytes(12), bytes(MAX_RECORD))
    assert aead._ghash._bulk_tables is not None
    return aead


@pytest.fixture(scope="module")
def built_contexts():
    """One AES-128 and one AES-256 context whose GHASH tables exist."""
    return {n: _warm(AESGCM(bytes(range(n)))) for n in (16, 32)}


@pytest.mark.parametrize("aad_length", [0, 13, 17])
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("tables", ["absent", "built"])
@pytest.mark.parametrize("key_length", [16, 32])
def test_matches_oracle_and_rejects_tamper(
    key_length, tables, length, aad_length, built_contexts, rng
):
    key = bytes(range(key_length))
    if tables == "built":
        shared = built_contexts[key_length]

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
        assert (aead._ghash._bulk_tables is None) == (tables == "absent")
