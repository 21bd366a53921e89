"""Vectorized ChaCha20-Poly1305 coverage: the big-int lane path against
RFC 8439 known answers and the scalar path, the block-count cutover, the
amortized Poly1305, and the counter-overflow regression."""

import pytest
from cryptography.hazmat.primitives.ciphers.aead import (
    ChaCha20Poly1305 as OracleChaCha,
)

from repro.crypto import chacha
from repro.crypto.chacha import (
    ChaCha20Poly1305,
    chacha20_block,
    chacha20_xor,
    poly1305_mac,
)
from repro.errors import CryptoError

# RFC 8439 §2.3.2 test vector: one block.
RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")
RFC_BLOCK1 = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4"
    "c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2"
    "b5129cd1de164eb9cbd083e8a2503c4e"
)


class _scalar_chacha:
    """Force the scalar keystream / per-block Poly1305 paths."""

    def __enter__(self):
        self._saved = (chacha._VECTOR_THRESHOLD, chacha._POLY_CHUNK_BYTES)
        chacha._VECTOR_THRESHOLD = 1 << 60
        chacha._POLY_CHUNK_BYTES = 1 << 60
        return self

    def __exit__(self, *exc):
        chacha._VECTOR_THRESHOLD, chacha._POLY_CHUNK_BYTES = self._saved
        return False


class TestKnownAnswers:
    def test_rfc8439_single_block(self):
        assert chacha20_block(RFC_KEY, 1, RFC_NONCE) == RFC_BLOCK1

    def test_rfc8439_keystream_spans_vector_path(self):
        # Enough blocks to clear the cutover: every 64-byte slice of the
        # vectorized keystream must equal the per-block function.
        blocks = chacha._VECTOR_THRESHOLD + 3
        data = bytes(64 * blocks)
        stream = chacha20_xor(RFC_KEY, 1, RFC_NONCE, data)
        for i in range(blocks):
            expected = chacha20_block(RFC_KEY, 1 + i, RFC_NONCE)
            assert stream[64 * i : 64 * (i + 1)] == expected

    def test_rfc8439_aead_vector(self):
        # RFC 8439 §2.8.2: the full AEAD construction.
        key = bytes.fromhex(
            "808182838485868788898a8b8c8d8e8f"
            "909192939495969798999a9b9c9d9e9f"
        )
        nonce = bytes.fromhex("070000004041424344454647")
        aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        sealed = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
        assert sealed[-16:] == bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")
        assert ChaCha20Poly1305(key).decrypt(nonce, sealed, aad) == plaintext


class TestVectorScalarEquivalence:
    @pytest.mark.parametrize(
        "length",
        [
            0,  # empty plaintext
            1,
            63,
            64,
            65,
            64 * (chacha._VECTOR_THRESHOLD - 1),  # just below the cutover
            64 * chacha._VECTOR_THRESHOLD,  # exactly at the cutover
            64 * chacha._VECTOR_THRESHOLD + 1,
            64 * 7 + 13,  # odd block count, ragged tail
            64 * 33,  # crosses a lane-padding boundary
            16384,  # one record
        ],
    )
    def test_xor_matches_scalar(self, length, rng):
        key = rng.random_bytes(32)
        nonce = rng.random_bytes(12)
        data = rng.random_bytes(length)
        fast = chacha20_xor(key, 1, nonce, data)
        with _scalar_chacha():
            slow = chacha20_xor(key, 1, nonce, data)
        assert fast == slow

    @pytest.mark.parametrize(
        "length",
        [
            0,
            16,
            64,
            65,
            # Block 0 carries the Poly1305 key, so a record's request
            # reaches the cutover one plaintext block earlier than a bare
            # keystream: just below it, then exactly at it.
            64 * (chacha._VECTOR_THRESHOLD - 2),
            64 * (chacha._VECTOR_THRESHOLD - 2) + 1,
            300,
            16384,
        ],
    )
    def test_seal_matches_scalar_and_oracle(self, length, rng):
        key = rng.random_bytes(32)
        nonce = rng.random_bytes(12)
        plaintext = rng.random_bytes(length)
        aad = rng.random_bytes(11)
        fast = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
        with _scalar_chacha():
            slow = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
        assert fast == slow
        assert fast == OracleChaCha(key).encrypt(nonce, plaintext, aad)
        assert ChaCha20Poly1305(key).decrypt(nonce, fast, aad) == plaintext
        assert OracleChaCha(key).decrypt(nonce, fast, aad) == plaintext

    def test_empty_plaintext_and_aad(self, rng):
        key = rng.random_bytes(32)
        nonce = rng.random_bytes(12)
        sealed = ChaCha20Poly1305(key).encrypt(nonce, b"", b"")
        assert sealed == OracleChaCha(key).encrypt(nonce, b"", b"")
        assert ChaCha20Poly1305(key).decrypt(nonce, sealed, b"") == b""

    @pytest.mark.parametrize("chunks", [1, 3, 4, 5, 9])
    def test_poly1305_horner_matches_per_block(self, chunks, rng):
        otk = rng.random_bytes(32)
        # Straddle the 4-block Horner chunking with ragged tails.
        for tail in (0, 1, 15, 16):
            message = rng.random_bytes(64 * chunks + tail)
            fast = poly1305_mac(otk, message)
            with _scalar_chacha():
                slow = poly1305_mac(otk, message)
            assert fast == slow

    def test_batched_seal_matches_sequential(self, rng):
        key = rng.random_bytes(32)
        aead = ChaCha20Poly1305(key)
        items = [
            (rng.random_bytes(12), rng.random_bytes(n), rng.random_bytes(7))
            for n in (0, 100, 16384, 64 * chacha._VECTOR_THRESHOLD, 5000)
        ]
        batched = aead.seal_many(items)
        sequential = [aead.encrypt(n, p, a) for n, p, a in items]
        assert batched == sequential
        opened = aead.open_many(
            [(n, c, a) for (n, _, a), c in zip(items, batched)]
        )
        assert opened == [p for _, p, _ in items]


class TestCounterOverflow:
    def test_block_counter_out_of_range(self):
        with pytest.raises(CryptoError):
            chacha20_block(RFC_KEY, 1 << 32, RFC_NONCE)
        with pytest.raises(CryptoError):
            chacha20_block(RFC_KEY, -1, RFC_NONCE)

    def test_keystream_wrap_raises_instead_of_reusing(self):
        # Two blocks starting at the last valid counter would wrap to 0
        # and reuse keystream; the regression is that this used to wrap
        # silently via `counter & 0xFFFFFFFF`.
        last = (1 << 32) - 1
        data = bytes(128)
        with pytest.raises(CryptoError):
            chacha20_xor(RFC_KEY, last, RFC_NONCE, data)
        # The last in-range single block still works, on both paths.
        one = chacha20_xor(RFC_KEY, last, RFC_NONCE, bytes(64))
        assert one == chacha20_block(RFC_KEY, last, RFC_NONCE)

    def test_vector_path_checks_span(self):
        # A span that only overflows several blocks in, above the cutover.
        start = (1 << 32) - 2
        data = bytes(64 * (chacha._VECTOR_THRESHOLD + 2))
        with pytest.raises(CryptoError):
            chacha20_xor(RFC_KEY, start, RFC_NONCE, data)


class TestLaneCache:
    def test_key_lane_cache_reused_and_correct(self, rng):
        key = rng.random_bytes(32)
        nonce = rng.random_bytes(12)
        data = rng.random_bytes(64 * 16)
        first = chacha20_xor(key, 1, nonce, data)
        # Second call hits the per-key lane cache; output must not drift.
        second = chacha20_xor(key, 1, nonce, data)
        assert first == second
        with _scalar_chacha():
            assert first == chacha20_xor(key, 1, nonce, data)
