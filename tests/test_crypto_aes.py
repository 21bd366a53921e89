"""AES block cipher: oracle cross-checks, key schedule, error handling."""

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES, _SBOX
from repro.crypto.bitsliced import BitslicedCtr, ByteslicedCtr, _ByteLayout, _Layout
from repro.crypto.gcm import _GHash, _R, _shoup_table
from repro.errors import CryptoError


def oracle_encrypt(key: bytes, block: bytes) -> bytes:
    encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return encryptor.update(block) + encryptor.finalize()


class TestSbox:
    def test_sbox_known_values(self):
        # FIPS 197 spot checks: S(0x00)=0x63, S(0x01)=0x7c, S(0x53)=0xed.
        assert _SBOX[0x00] == 0x63
        assert _SBOX[0x01] == 0x7C
        assert _SBOX[0x53] == 0xED

    def test_sbox_is_permutation(self):
        assert sorted(_SBOX) == list(range(256))


class TestAgainstOracle:
    @pytest.mark.parametrize("key_length", [16, 24, 32])
    def test_random_blocks_match_oracle(self, key_length, rng):
        for _ in range(20):
            key = rng.random_bytes(key_length)
            block = rng.random_bytes(16)
            assert AES(key).encrypt_block(block) == oracle_encrypt(key, block)

    def test_all_zero_input(self, rng):
        key = bytes(32)
        block = bytes(16)
        assert AES(key).encrypt_block(block) == oracle_encrypt(key, block)

    @settings(max_examples=50, deadline=None)
    @given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
    def test_property_matches_oracle(self, key, block):
        assert AES(key).encrypt_block(block) == oracle_encrypt(key, block)


class TestErrors:
    @pytest.mark.parametrize("bad_length", [0, 8, 15, 17, 33, 64])
    def test_bad_key_length_rejected(self, bad_length):
        with pytest.raises(CryptoError):
            AES(b"k" * bad_length)

    @pytest.mark.parametrize("bad_length", [0, 15, 17, 32])
    def test_bad_block_length_rejected(self, bad_length):
        cipher = AES(b"k" * 16)
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"b" * bad_length)


class TestDeterminism:
    def test_same_key_same_block_same_output(self):
        cipher = AES(b"0123456789abcdef")
        block = b"fedcba9876543210"
        assert cipher.encrypt_block(block) == cipher.encrypt_block(block)

    def test_key_sensitivity(self):
        block = bytes(16)
        out1 = AES(b"\x00" * 16).encrypt_block(block)
        out2 = AES(b"\x00" * 15 + b"\x01").encrypt_block(block)
        assert out1 != out2

    def test_block_sensitivity(self):
        cipher = AES(bytes(16))
        assert cipher.encrypt_block(bytes(16)) != cipher.encrypt_block(
            b"\x00" * 15 + b"\x01"
        )


class TestCtrKeystream:
    """Both vectorised CTR engines against the scalar block cipher."""

    def _scalar_keystream(self, cipher, prefix, counter, nblocks):
        return b"".join(
            cipher.encrypt_block(
                prefix + (((counter + j) & 0xFFFFFFFF)).to_bytes(4, "big")
            )
            for j in range(nblocks)
        )

    # Block counts on the byte-sliced side (including its 1/2/4-lane
    # passes and its padding to multiples of 8), straddling the bitslice
    # cutover, and past the bitsliced engine's next padded size.
    @pytest.mark.parametrize("nblocks", sorted(
        {1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 33, 64, 65, 100}
        | {AES._BITSLICE_THRESHOLD + d for d in (-8, -1, 0, 1, 8)}
    ))
    @pytest.mark.parametrize("key_length", [16, 24, 32])
    def test_matches_scalar_blocks(self, key_length, nblocks, rng):
        cipher = AES(rng.random_bytes(key_length))
        prefix = rng.random_bytes(12)
        assert cipher.ctr_keystream(prefix, 2, nblocks) == self._scalar_keystream(
            cipher, prefix, 2, nblocks
        )

    # Padded size per request: 1, 2 and 4 lanes, then multiples of 8.
    _LANES = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 16}

    @pytest.mark.parametrize("initial_counter", [2, (1 << 32) - 1])
    @pytest.mark.parametrize("nblocks", sorted(_LANES))
    @pytest.mark.parametrize("key_length", [16, 24, 32])
    def test_narrow_byteslice_passes_match_scalar(
        self, key_length, nblocks, initial_counter, rng
    ):
        # The engine itself, so every width runs whatever the cipher's
        # cutover; from 2^32 - 1 the counter wraps after the first block.
        cipher = AES(rng.random_bytes(key_length))
        engine = ByteslicedCtr(cipher._round_keys, cipher._rounds)
        prefix = rng.random_bytes(12)
        assert engine.keystream(prefix, initial_counter, nblocks) == (
            cipher._ctr_scalar(prefix, initial_counter, nblocks))
        assert set(engine._rk_cache) == {self._LANES[nblocks]}

    def test_counter_wraps_at_32_bits(self, rng):
        # 32 blocks: the byte-sliced engine.
        cipher = AES(rng.random_bytes(16))
        prefix = rng.random_bytes(12)
        start = 0xFFFFFFF0
        assert cipher.ctr_keystream(prefix, start, 32) == self._scalar_keystream(
            cipher, prefix, start, 32
        )
        assert cipher._bitsliced is None

    def test_counter_wraps_at_32_bits_above_cutover(self, rng):
        cipher = AES(rng.random_bytes(16))
        prefix = rng.random_bytes(12)
        nblocks = AES._BITSLICE_THRESHOLD + 8
        start = (1 << 32) - nblocks // 2
        assert cipher.ctr_keystream(prefix, start, nblocks) == self._scalar_keystream(
            cipher, prefix, start, nblocks
        )
        assert cipher._bytesliced is None

    def test_zero_blocks(self, rng):
        assert AES(rng.random_bytes(16)).ctr_keystream(b"\x00" * 12, 2, 0) == b""

    def test_bad_prefix_rejected(self, rng):
        with pytest.raises(CryptoError):
            AES(rng.random_bytes(16)).ctr_keystream(b"\x00" * 11, 2, 4)

    def test_mask_cache_evicts_one_entry(self, rng):
        # More distinct padded block counts than one key's mask cache
        # holds, then the first sizes again, all at or above the cutover.
        cipher = AES(rng.random_bytes(16))
        prefix = rng.random_bytes(12)
        capacity = BitslicedCtr._KEY_CACHE_SIZE
        first = (AES._BITSLICE_THRESHOLD + 7) & ~7
        sizes = [first + 8 * i for i in range(capacity + 3)]
        for count, nblocks in enumerate(sizes + sizes[:3], start=1):
            assert cipher.ctr_keystream(prefix, 2, nblocks) == self._scalar_keystream(
                cipher, prefix, 2, nblocks
            )
            masks = cipher._bitsliced._rk_cache
            assert nblocks in masks
            assert nblocks in _Layout._cache
            assert len(masks) == min(count, capacity)
        assert cipher._bytesliced is None

    def test_round_key_cache_evicts_one_entry(self, rng):
        # The byte-sliced engine driven past its cache bound directly (the
        # cipher never asks it for a size at or above the cutover), then
        # the first sizes again.
        cipher = AES(rng.random_bytes(16))
        engine = ByteslicedCtr(cipher._round_keys, cipher._rounds)
        prefix = rng.random_bytes(12)
        capacity = ByteslicedCtr._KEY_CACHE_SIZE
        sizes = [8 * (i + 1) for i in range(capacity + 3)]
        for count, nblocks in enumerate(sizes + sizes[:3], start=1):
            assert engine.keystream(prefix, 2, nblocks) == self._scalar_keystream(
                cipher, prefix, 2, nblocks
            )
            keys = engine._rk_cache
            assert nblocks in keys
            assert nblocks in _ByteLayout._cache
            assert len(keys) == min(count, capacity)

    def test_byteslice_caches_hold_every_size_below_cutover(self, rng):
        cipher = AES(rng.random_bytes(16))
        prefix = rng.random_bytes(12)
        for nblocks in range(1, AES._BITSLICE_THRESHOLD):
            cipher.ctr_keystream(prefix, 2, nblocks)
        padded = {1, 2, 4} | set(range(8, AES._BITSLICE_THRESHOLD + 7, 8))
        assert set(cipher._bytesliced._rk_cache) == padded
        assert padded <= set(_ByteLayout._cache)
        assert cipher._bitsliced is None

    def test_bitsliced_engine_is_cached(self, rng):
        cipher = AES(rng.random_bytes(16))
        prefix = rng.random_bytes(12)
        cipher.ctr_keystream(prefix, 2, AES._BITSLICE_THRESHOLD)
        engine = cipher._bitsliced
        assert engine is not None
        assert cipher._bytesliced is None
        cipher.ctr_keystream(prefix, 2, AES._BITSLICE_THRESHOLD)
        assert cipher._bitsliced is engine

    def test_bytesliced_engine_is_cached(self, rng):
        cipher = AES(rng.random_bytes(16))
        prefix = rng.random_bytes(12)
        cipher.ctr_keystream(prefix, 2, AES._BITSLICE_THRESHOLD - 1)
        engine = cipher._bytesliced
        assert engine is not None
        assert cipher._bitsliced is None
        cipher.ctr_keystream(prefix, 2, 1)
        assert cipher._bytesliced is engine


def _gf128_mul(x: int, y: int) -> int:
    """SP 800-38D Algorithm 1, bit by bit (bit-reflected representation)."""
    z, v = 0, y
    for i in range(127, -1, -1):
        if (x >> i) & 1:
            z ^= v
        v = (v >> 1) ^ _R if v & 1 else v >> 1
    return z


def _horner(ghash: _GHash, aad: bytes, ciphertext: bytes) -> int:
    """GHASH one zero-padded block at a time through ``_mul_h``."""
    lengths = ((len(aad) * 8) << 64 | (len(ciphertext) * 8)).to_bytes(16, "big")
    y = 0
    for chunk in (aad, ciphertext, lengths):
        for offset in range(0, len(chunk), 16):
            block = chunk[offset:offset + 16].ljust(16, b"\0")
            y = ghash._mul_h(y ^ int.from_bytes(block, "big"))
    return y


class TestGhashScalar:
    """The one-fold scalar GHASH below the table cutover."""

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(0, (1 << 128) - 1))
    def test_shoup_table_matches_bit_loop(self, h):
        table = _shoup_table(h)
        assert [table[b] for b in range(256)] == [
            _gf128_mul(b << 120, h) for b in range(256)]

    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(0, (1 << 128) - 1), aad=st.binary(max_size=80),
           ciphertext=st.binary(max_size=80))
    def test_matches_horner_reference(self, h, aad, ciphertext):
        ghash = _GHash(h)
        assert ghash.digest(aad, ciphertext) == _horner(ghash, aad, ciphertext)
        assert ghash._h1_tables is None

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 63, 64, 65, 1000])
    def test_matches_table_path_across_the_build(self, length, rng):
        ghash = _GHash(int.from_bytes(rng.random_bytes(16), "big"))
        aad = rng.random_bytes(13)
        ciphertext = rng.random_bytes(length)
        expected = _horner(ghash, aad, ciphertext)
        # The record leaves the key one byte short of the gate...
        ghash.digest(b"", bytes(_GHash._BULK_BUILD_BYTES - length - 1))
        assert ghash.digest(aad, ciphertext) == expected
        assert ghash._h1_tables is None
        # ...one more byte reaches it, and the tables serve the record.
        ghash.digest(b"", bytes(1))
        assert ghash.digest(aad, ciphertext) == expected
        assert ghash._h1_tables is not None
