"""KDFs (TLS PRF, HKDF vs oracle) and the HMAC-DRBG."""

import hmac

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF as OracleHKDF
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg, system_rng
from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract, p_hash, prf


class TestPrf:
    def test_prf_deterministic(self):
        a = prf(b"secret", b"label", b"seed", 48)
        b = prf(b"secret", b"label", b"seed", 48)
        assert a == b and len(a) == 48

    def test_prf_label_separation(self):
        assert prf(b"s", b"label-a", b"seed", 32) != prf(b"s", b"label-b", b"seed", 32)

    def test_prf_seed_separation(self):
        assert prf(b"s", b"label", b"seed-a", 32) != prf(b"s", b"label", b"seed-b", 32)

    def test_prf_is_p_hash_of_label_plus_seed(self):
        assert prf(b"s", b"lbl", b"seed", 64) == p_hash(b"s", b"lblseed", 64)

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 100])
    def test_p_hash_lengths(self, length):
        assert len(p_hash(b"secret", b"seed", length)) == length

    @pytest.mark.parametrize("hash_name", ["sha256", "sha384"])
    @pytest.mark.parametrize("length", [12, 48, 104, 136])
    def test_p_hash_matches_rfc5246_loop(self, hash_name, length):
        # RFC 5246 §5: A(0) = seed, A(i) = HMAC(secret, A(i-1)),
        # P_hash = HMAC(secret, A(1) + seed) + HMAC(secret, A(2) + seed) + ...
        secret, seed = b"\x0b" * 48, b"master secret" + bytes(range(64))
        expected, a = b"", seed
        while len(expected) < length:
            a = hmac.new(secret, a, hash_name).digest()
            expected += hmac.new(secret, a + seed, hash_name).digest()
        assert p_hash(secret, seed, length, hash_name) == expected[:length]
        assert prf(secret, b"", seed, length, hash_name) == expected[:length]


class TestHkdf:
    def test_matches_oracle(self, rng):
        for _ in range(5):
            ikm = rng.random_bytes(22)
            salt = rng.random_bytes(13)
            info = rng.random_bytes(10)
            oracle = OracleHKDF(
                algorithm=hashes.SHA256(), length=42, salt=salt, info=info
            )
            assert hkdf(ikm, salt=salt, info=info, length=42) == oracle.derive(ikm)

    def test_empty_salt_matches_oracle(self, rng):
        ikm = rng.random_bytes(32)
        oracle = OracleHKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=b"")
        assert hkdf(ikm, length=32) == oracle.derive(ikm)

    def test_expand_length_limit(self):
        prk = hkdf_extract(b"salt", b"ikm")
        with pytest.raises(ValueError):
            hkdf_expand(prk, b"info", 255 * 32 + 1)


class TestDrbg:
    # Known answers: every seeded handshake, transcript and ledger digest
    # follows from these streams, so they must never drift.
    def test_known_answer_stream(self):
        assert HmacDrbg(b"seed").random_bytes(64).hex() == (
            "945418b8333283ae441104ff0af8ab77c755914dbcd4971f9db434098d72cc5f"
            "bcb6778fbaa207c9ede8824d282ef085d263945bd4908919c9eeab1c06ab119d"
        )

    def test_known_answer_fork(self):
        assert HmacDrbg(b"seed").fork(b"x").random_bytes(32).hex() == (
            "b98b26477c0a8d05ab75bc48c72d9fa48fb3ea97db85d8d5b456ca0b5ace6ba0"
        )

    def test_known_answer_randbits(self):
        assert HmacDrbg(b"seed").randbits(53) == 5218845212436048

    def test_determinism(self):
        assert HmacDrbg(b"seed").random_bytes(64) == HmacDrbg(b"seed").random_bytes(64)

    def test_seed_separation(self):
        assert HmacDrbg(b"a").random_bytes(32) != HmacDrbg(b"b").random_bytes(32)

    def test_personalization_separation(self):
        assert (
            HmacDrbg(b"s", b"p1").random_bytes(32)
            != HmacDrbg(b"s", b"p2").random_bytes(32)
        )

    def test_stream_advances(self):
        drbg = HmacDrbg(b"seed")
        assert drbg.random_bytes(16) != drbg.random_bytes(16)

    def test_fork_independence(self):
        parent = HmacDrbg(b"seed")
        child_a = parent.fork(b"a")
        child_b = parent.fork(b"b")
        assert child_a.random_bytes(32) != child_b.random_bytes(32)

    def test_fork_determinism(self):
        def build():
            return HmacDrbg(b"seed").fork(b"x").random_bytes(16)

        assert build() == build()

    @settings(max_examples=50, deadline=None)
    @given(bits=st.integers(min_value=1, max_value=256))
    def test_randbits_range(self, bits):
        value = HmacDrbg(b"seed").randbits(bits)
        assert 0 <= value < (1 << bits)

    @settings(max_examples=50, deadline=None)
    @given(low=st.integers(-1000, 1000), span=st.integers(0, 1000))
    def test_randint_range_bounds(self, low, span):
        value = HmacDrbg(b"seed").randint_range(low, low + span)
        assert low <= value <= low + span

    def test_randint_empty_range(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"seed").randint_range(5, 4)

    def test_choice(self):
        drbg = HmacDrbg(b"seed")
        items = ["a", "b", "c"]
        for _ in range(10):
            assert drbg.choice(items) in items

    def test_random_unit_interval(self):
        drbg = HmacDrbg(b"seed")
        for _ in range(100):
            value = drbg.random()
            assert 0.0 <= value < 1.0

    def test_system_rng_unique(self):
        assert system_rng().random_bytes(16) != system_rng().random_bytes(16)

    def test_randbits_distribution_coarse(self):
        drbg = HmacDrbg(b"seed")
        ones = sum(drbg.randbits(1) for _ in range(2000))
        assert 800 < ones < 1200  # crude sanity: not constant, not biased
