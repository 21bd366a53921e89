"""Fresh AES-GCM keys against the ``cryptography`` oracle, and their tables.

A key computes its hash key H = E_K(0^128) on its first seal or open, in
lane ``nblocks`` of that request's byte-sliced pass (``nblocks`` counts
J0 and the data blocks): a spare lane of the padded layout, or the first
lane of the next one when the request fills its layout (1, 2, 4 or 8
blocks).  A first request at or past ``AES._BITSLICE_THRESHOLD`` blocks
takes H from a separate scalar block.  Passes of up to
``_GATHER_LANES`` lanes unslice through one gather, wider ones through
strided copies.  Every per-key table is a tuple of ints, which the cycle
collector stops tracking.
"""

import gc

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM as OracleGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.bitsliced import (
    _FRAMES,
    _GATHER_LANES,
    _NARROW_LANES,
    _unslice,
    _unslice_strided,
)
from repro.crypto.gcm import _AGGREGATE_BLOCKS, AESGCM, _GHash
from repro.errors import IntegrityError

BLOCK = AES.block_size


def _padded(lanes: int) -> int:
    """The byte-sliced layout of a pass over ``lanes`` lanes."""
    return _NARROW_LANES[lanes] if lanes < len(_NARROW_LANES) else (lanes + 7) & ~7


def _first_operation(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes,
                     first: str) -> tuple[AESGCM, list[int]]:
    """Seal or open on a fresh key, checked against the oracle.

    Returns the context and the byte-sliced layouts its first operation
    built round keys for.
    """
    oracle = OracleGCM(key)
    sealed = oracle.encrypt(nonce, plaintext, aad)
    aead = AESGCM(key)
    assert aead._ghash is None
    if first == "seal":
        assert aead.encrypt(nonce, plaintext, aad) == sealed
    else:
        assert aead.decrypt(nonce, sealed, aad) == plaintext
    engine = aead._aes._bytesliced
    layouts = [] if engine is None else list(engine._rk_cache)
    # The key keeps its H: later operations still match.
    assert aead.decrypt(nonce, sealed, aad) == plaintext
    longer = plaintext + b"\x01"
    assert aead.encrypt(nonce, longer, aad) == oracle.encrypt(nonce, longer, aad)
    return aead, layouts


# 0..9 data blocks: with J0 and the zero block a request of d data blocks
# needs d + 2 lanes, so d = 0, 1, 3 and 7 widen a full narrow or 8-lane
# layout and the rest use a spare lane.
@pytest.mark.parametrize("first", ["seal", "open"])
@pytest.mark.parametrize("data_blocks", range(10))
@pytest.mark.parametrize("key_length", [16, 32])
def test_first_operation_takes_h_from_its_pass(key_length, data_blocks, first, rng):
    key = rng.random_bytes(key_length)
    nblocks = data_blocks + 1
    for length in sorted({max(0, BLOCK * data_blocks - 1), BLOCK * data_blocks}):
        aead, layouts = _first_operation(
            key, rng.random_bytes(12), rng.random_bytes(length),
            rng.random_bytes(13), first)
        lanes = _padded(nblocks + 1)
        assert (lanes > _padded(nblocks)) == (nblocks in (1, 2, 4, 8))
        assert layouts == [lanes]
        assert aead._aes._bitsliced is None


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16) | st.binary(min_size=32, max_size=32),
    plaintext=st.binary(max_size=9 * BLOCK),
    aad=st.binary(max_size=40),
    nonce=st.binary(min_size=12, max_size=12),
    first=st.sampled_from(["seal", "open"]),
)
def test_first_operation_property(key, plaintext, aad, nonce, first):
    _first_operation(key, nonce, plaintext, aad, first)


# The longest first request on the byte-sliced engine (its zero block in
# lane 119 of 120), the shortest on the bitsliced one, and a longer one.
@pytest.mark.parametrize("first", ["seal", "open"])
@pytest.mark.parametrize("data_blocks", [
    AES._BITSLICE_THRESHOLD - 2, AES._BITSLICE_THRESHOLD - 1, 200])
@pytest.mark.parametrize("key_length", [16, 32])
def test_long_first_operation(key_length, data_blocks, first, rng):
    _, layouts = _first_operation(
        rng.random_bytes(key_length), rng.random_bytes(12),
        rng.random_bytes(BLOCK * data_blocks), rng.random_bytes(13), first)
    # A bitsliced first pass builds no byte-sliced round keys.
    bitsliced = data_blocks + 1 >= AES._BITSLICE_THRESHOLD
    assert layouts == ([] if bitsliced else [_padded(data_blocks + 2)])


@pytest.mark.parametrize("key_length", [16, 32])
def test_fresh_key_rejects_tamper_on_first_open(key_length, rng):
    key = rng.random_bytes(key_length)
    nonce = rng.random_bytes(12)
    sealed = bytearray(OracleGCM(key).encrypt(nonce, rng.random_bytes(40), b"aad"))
    sealed[-1] ^= 0x01
    with pytest.raises(IntegrityError):
        AESGCM(key).decrypt(nonce, bytes(sealed), b"aad")


def _unslice_reference(raw: bytes, n: int, frame: list[int]) -> bytes:
    """Byte ``frame[b]`` of block ``j`` is byte ``j`` of field ``b``."""
    out = bytearray(16 * n)
    for b in range(16):
        for lane in range(n):
            out[16 * lane + frame[b]] = raw[b * n + lane]
    return bytes(out)


@pytest.mark.parametrize("frame_index", range(4))
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_gather_matches_strided_unslice(n, frame_index, rng):
    raw = rng.random_bytes(16 * n)
    frame = _FRAMES[frame_index]
    expected = _unslice_reference(raw, n, frame)
    assert _unslice_strided(raw, n, frame) == expected
    assert _unslice(raw, n, frame_index) == expected
    assert (n <= _GATHER_LANES) == (n < 16)


def _tables(aead: AESGCM) -> list:
    """Every per-key table of a context, and the tuples that hold them."""
    aes, ghash = aead._aes, aead._ghash
    tables = [aes._round_keys, ghash._table, ghash._h1_tables,
              *ghash._h1_tables, ghash._aggregate_tables,
              *ghash._aggregate_tables]
    for engine in (aes._bytesliced, aes._bitsliced):
        for keys in engine._rk_cache.values():
            tables.append(keys)
            tables.extend(k for k in keys if isinstance(k, tuple))
    return tables


@pytest.mark.parametrize("key_length", [16, 32])
def test_used_context_tables_are_untracked(key_length, rng):
    aead = AESGCM(rng.random_bytes(key_length))
    # Both engines, several layouts, and past both GHASH table builds.
    for length in (16, 100, 1000, BLOCK * _AGGREGATE_BLOCKS):
        aead.encrypt(rng.random_bytes(12), bytes(length))
    while aead._ghash._hashed_bytes < _GHash._BULK_BUILD_BYTES:
        aead.encrypt(rng.random_bytes(12), bytes(BLOCK * _AGGREGATE_BLOCKS))
    aead.encrypt(rng.random_bytes(12), bytes(BLOCK * _AGGREGATE_BLOCKS))
    tables = _tables(aead)
    assert len(tables) > 90
    # A collection untracks a tuple once every item is untracked; it may
    # reach a tuple of tables before the tables, so a second one is needed
    # for those.
    gc.collect()
    gc.collect()
    assert [t for t in tables if gc.is_tracked(t)] == []
