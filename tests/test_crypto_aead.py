"""AEAD tests: AES-GCM and ChaCha20-Poly1305 against the oracle, tamper
detection, and hypothesis round-trip properties."""

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM as OracleGCM
from cryptography.hazmat.primitives.ciphers.aead import (
    ChaCha20Poly1305 as OracleChaCha,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.chacha import ChaCha20Poly1305, chacha20_xor, poly1305_mac
from repro.crypto.gcm import AESGCM
from repro.errors import CryptoError, IntegrityError

AEADS = [
    ("gcm128", lambda key32: AESGCM(key32[:16]), lambda key32: OracleGCM(key32[:16])),
    ("gcm256", AESGCM, OracleGCM),
    ("chacha", ChaCha20Poly1305, OracleChaCha),
]


@pytest.mark.parametrize("name,ours,oracle", AEADS, ids=[a[0] for a in AEADS])
class TestAgainstOracle:
    def test_encrypt_matches_oracle(self, name, ours, oracle, rng):
        for length in (0, 1, 15, 16, 17, 100, 1000):
            key = rng.random_bytes(32)
            nonce = rng.random_bytes(12)
            plaintext = rng.random_bytes(length)
            aad = rng.random_bytes(13)
            assert ours(key).encrypt(nonce, plaintext, aad) == oracle(key).encrypt(
                nonce, plaintext, aad
            )

    def test_decrypt_oracle_ciphertext(self, name, ours, oracle, rng):
        key = rng.random_bytes(32)
        nonce = rng.random_bytes(12)
        plaintext = b"attack at dawn"
        sealed = oracle(key).encrypt(nonce, plaintext, b"hdr")
        assert ours(key).decrypt(nonce, sealed, b"hdr") == plaintext

    def test_empty_aad(self, name, ours, oracle, rng):
        key = rng.random_bytes(32)
        nonce = rng.random_bytes(12)
        assert ours(key).encrypt(nonce, b"data") == oracle(key).encrypt(
            nonce, b"data", None
        )


@pytest.mark.parametrize(
    "factory", [AESGCM, ChaCha20Poly1305], ids=["gcm", "chacha"]
)
class TestTamperDetection:
    def test_flipped_ciphertext_bit_rejected(self, factory, rng):
        key = rng.random_bytes(32)
        nonce = rng.random_bytes(12)
        sealed = bytearray(factory(key).encrypt(nonce, b"hello world"))
        sealed[0] ^= 0x01
        with pytest.raises(IntegrityError):
            factory(key).decrypt(nonce, bytes(sealed))

    def test_flipped_tag_bit_rejected(self, factory, rng):
        key = rng.random_bytes(32)
        nonce = rng.random_bytes(12)
        sealed = bytearray(factory(key).encrypt(nonce, b"hello world"))
        sealed[-1] ^= 0x80
        with pytest.raises(IntegrityError):
            factory(key).decrypt(nonce, bytes(sealed))

    def test_wrong_aad_rejected(self, factory, rng):
        key = rng.random_bytes(32)
        nonce = rng.random_bytes(12)
        sealed = factory(key).encrypt(nonce, b"payload", b"aad-one")
        with pytest.raises(IntegrityError):
            factory(key).decrypt(nonce, sealed, b"aad-two")

    def test_wrong_nonce_rejected(self, factory, rng):
        key = rng.random_bytes(32)
        sealed = factory(key).encrypt(b"\x01" * 12, b"payload")
        with pytest.raises(IntegrityError):
            factory(key).decrypt(b"\x02" * 12, sealed)

    def test_wrong_key_rejected(self, factory, rng):
        nonce = rng.random_bytes(12)
        sealed = factory(rng.random_bytes(32)).encrypt(nonce, b"payload")
        with pytest.raises(IntegrityError):
            factory(rng.random_bytes(32)).decrypt(nonce, sealed)

    def test_truncated_input_rejected(self, factory, rng):
        with pytest.raises(IntegrityError):
            factory(rng.random_bytes(32)).decrypt(rng.random_bytes(12), b"short")


class TestGcmSpecifics:
    def test_bad_nonce_length(self, rng):
        gcm = AESGCM(rng.random_bytes(32))
        with pytest.raises(CryptoError):
            gcm.encrypt(b"\x00" * 11, b"data")
        with pytest.raises(CryptoError):
            gcm.decrypt(b"\x00" * 16, b"x" * 32)

    @settings(max_examples=30, deadline=None)
    @given(
        plaintext=st.binary(max_size=200),
        aad=st.binary(max_size=40),
    )
    def test_roundtrip_property(self, plaintext, aad):
        key = b"\x11" * 32
        nonce = b"\x22" * 12
        gcm = AESGCM(key)
        assert gcm.decrypt(nonce, gcm.encrypt(nonce, plaintext, aad), aad) == plaintext


def _h(s: str) -> bytes:
    return bytes.fromhex(s)


# NIST SP 800-38D validation vectors (the McGrew-Viega GCM test cases) and
# the RFC 8439 §2.8.2 ChaCha20-Poly1305 example. Each expected value is the
# published ciphertext||tag, re-verified against the `cryptography` oracle
# when these tests were written.
_GCM_KEY = _h("feffe9928665731c6d6a8f9467308308")
_GCM_IV = _h("cafebabefacedbaddecaf888")
_GCM_PT = _h(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
_GCM_AAD = _h("feedfacedeadbeeffeedfacedeadbeefabaddad2")

_KAT_VECTORS = [
    # (id, cls, key, nonce, plaintext, aad, expected ct||tag)
    (
        "gcm-tc1-empty-pt-empty-aad", AESGCM,
        bytes(16), bytes(12), b"", b"",
        _h("58e2fccefa7e3061367f1d57a4e7455a"),
    ),
    (
        "gcm-tc2-one-block", AESGCM,
        bytes(16), bytes(12), bytes(16), b"",
        _h("0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"),
    ),
    (
        "gcm-tc3-four-blocks", AESGCM,  # exact multi-block boundary, empty AAD
        _GCM_KEY, _GCM_IV, _GCM_PT, b"",
        _h(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            "4d5c2af327cd64a62cf35abd2ba6fab4"
        ),
    ),
    (
        "gcm-tc4-partial-block-with-aad", AESGCM,
        _GCM_KEY, _GCM_IV, _GCM_PT[:60], _GCM_AAD,
        _h(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47"
        ),
    ),
    (
        "gcm-tc16-aes256-with-aad", AESGCM,
        _GCM_KEY + _GCM_KEY, _GCM_IV, _GCM_PT[:60], _GCM_AAD,
        _h(
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
            "76fc6ece0f4e1768cddf8853bb2d551b"
        ),
    ),
    (
        "chacha-rfc8439-sunscreen", ChaCha20Poly1305,
        bytes(range(0x80, 0xA0)),
        _h("070000004041424344454647"),
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it.",
        _h("50515253c0c1c2c3c4c5c6c7"),
        _h(
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691"
        ),
    ),
]


@pytest.mark.parametrize(
    "cls,key,nonce,plaintext,aad,expected",
    [v[1:] for v in _KAT_VECTORS],
    ids=[v[0] for v in _KAT_VECTORS],
)
class TestKnownAnswerVectors:
    def test_seal_matches_published_vector(
        self, cls, key, nonce, plaintext, aad, expected
    ):
        assert cls(key).encrypt(nonce, plaintext, aad) == expected

    def test_open_published_vector(self, cls, key, nonce, plaintext, aad, expected):
        assert cls(key).decrypt(nonce, expected, aad) == plaintext


# Lengths around batch-relevant sizes: 4-block GHASH group boundaries (64),
# multiples of the CTR engines' 8-block padding (256, 512), and
# exact/off-by-one record block boundaries.  The cutovers themselves, read
# from the class constants, are covered in test_crypto_cutovers.py.
_BOUNDARY_LENGTHS = [0, 1, 15, 16, 17, 63, 64, 255, 256, 257, 511, 512, 513, 4095, 4096]


@pytest.mark.parametrize("name,ours,oracle", AEADS, ids=[a[0] for a in AEADS])
class TestBatchEquivalence:
    def test_seal_many_matches_sequential(self, name, ours, oracle, rng):
        key = rng.random_bytes(32)
        aead = ours(key)
        items = [
            (rng.random_bytes(12), rng.random_bytes(n), rng.random_bytes(13))
            for n in _BOUNDARY_LENGTHS
        ]
        batched = aead.seal_many(items)
        sequential = [aead.encrypt(n, pt, aad) for n, pt, aad in items]
        assert batched == sequential

    def test_open_many_matches_sequential(self, name, ours, oracle, rng):
        key = rng.random_bytes(32)
        aead = ours(key)
        items = [
            (nonce, aead.encrypt(nonce, pt, aad), aad)
            for nonce, pt, aad in (
                (rng.random_bytes(12), rng.random_bytes(n), rng.random_bytes(13))
                for n in _BOUNDARY_LENGTHS
            )
        ]
        batched = aead.open_many(items)
        sequential = [aead.decrypt(n, data, aad) for n, data, aad in items]
        assert batched == sequential

    def test_open_many_rejects_tampered_batch(self, name, ours, oracle, rng):
        key = rng.random_bytes(32)
        aead = ours(key)
        nonce = rng.random_bytes(12)
        good = aead.encrypt(nonce, b"fine", b"")
        bad = bytearray(aead.encrypt(nonce, b"evil", b""))
        bad[0] ^= 0x01
        with pytest.raises(IntegrityError):
            aead.open_many([(nonce, good, b""), (nonce, bytes(bad), b"")])

    @settings(max_examples=10, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=0, max_value=4096),
                            min_size=1, max_size=4))
    def test_batch_property_random_lengths(self, name, ours, oracle, lengths):
        aead = ours(b"\x5a" * 32)
        items = [
            (bytes([i]) * 12, bytes([n & 0xFF]) * n, bytes([i, n & 0xFF]))
            for i, n in enumerate(lengths)
        ]
        assert aead.seal_many(items) == [
            aead.encrypt(n, pt, aad) for n, pt, aad in items
        ]


class TestChaChaPrimitives:
    def test_keystream_symmetry(self, rng):
        key = rng.random_bytes(32)
        nonce = rng.random_bytes(12)
        data = rng.random_bytes(300)
        once = chacha20_xor(key, 7, nonce, data)
        assert chacha20_xor(key, 7, nonce, once) == data

    def test_poly1305_key_length(self):
        with pytest.raises(CryptoError):
            poly1305_mac(b"short", b"message")

    def test_poly1305_distinct_messages_distinct_tags(self, rng):
        key = rng.random_bytes(32)
        assert poly1305_mac(key, b"message-a") != poly1305_mac(key, b"message-b")

    @settings(max_examples=30, deadline=None)
    @given(plaintext=st.binary(max_size=300), aad=st.binary(max_size=40))
    def test_roundtrip_property(self, plaintext, aad):
        aead = ChaCha20Poly1305(b"\x33" * 32)
        nonce = b"\x44" * 12
        assert aead.decrypt(nonce, aead.encrypt(nonce, plaintext, aad), aad) == plaintext
