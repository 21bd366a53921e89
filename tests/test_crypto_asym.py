"""Asymmetric primitives: X25519 (vs oracle), RSA, finite-field DH."""

import gc
import hashlib
import importlib
import math

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey as OracleX25519,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PublicKey as OracleX25519Public,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import Pki
from repro.crypto.dh import DHPrivateKey, modp_group
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import (
    RSAPrivateKey,
    RSAPublicKey,
    generate_rsa_key,
    is_probable_prime,
)
from repro.crypto.x25519 import (
    X25519PrivateKey,
    _decode_scalar,
    _ladder,
    x25519,
    x25519_base,
)
from repro.errors import CryptoError

# The package re-exports the function ``x25519`` under the module's name.
x25519_module = importlib.import_module("repro.crypto.x25519")
rsa_module = importlib.import_module("repro.crypto.rsa")

_P = 2**255 - 19
_RAW = (serialization.Encoding.Raw, serialization.PublicFormat.Raw)
_keys = st.binary(min_size=32, max_size=32)


def _oracle_public(private: bytes) -> bytes:
    return OracleX25519.from_private_bytes(private).public_key().public_bytes(*_RAW)


def _oracle_shared(private: bytes, peer: bytes) -> bytes:
    return OracleX25519.from_private_bytes(private).exchange(
        OracleX25519Public.from_public_bytes(peer)
    )


def _u(value: int) -> bytes:
    return value.to_bytes(32, "little")


# Clamping fixes the low window to 0 or 8 and the top window to 4..7, so
# each pattern holds for the windows in between.
_WINDOW_SCALARS = [
    pytest.param(_u((0x4 << 252) | ((1 << 252) - 8)), id="windows-all-15"),
    pytest.param(b"\xf0" * 32, id="windows-0-15"),
    pytest.param(b"\x0f" * 32, id="windows-15-0"),
]

# The same extremes at the comb's own width: row i's digit is bits
# W*i .. W*i + W - 1. Clamping clears the low three bits of row 0 and
# leaves the top row a partial window, bits W*(ROWS-1) .. 254 with bit
# 254 set.
_W = x25519_module._WINDOW
_ROWS = x25519_module._ROWS
_DIGIT_MAX = (1 << _W) - 1
_TOP = _ROWS - 1


def _rows(digit) -> bytes:
    """The clamped scalar whose digit in row ``i`` is ``digit(i)``."""
    value = sum(digit(i) << (_W * i) for i in range(_ROWS))
    return _u(value & ((1 << 255) - 8) | 1 << 254)


_COMB_SCALARS = [
    pytest.param(_rows(lambda i: _DIGIT_MAX), id=f"w{_W}-digits-max"),
    pytest.param(_rows(lambda i: 0), id=f"w{_W}-digits-zero"),
    pytest.param(_rows(lambda i: _DIGIT_MAX * (i % 2 == 0)), id=f"w{_W}-rows-max-zero"),
    pytest.param(_rows(lambda i: _DIGIT_MAX * (i % 2 == 1)), id=f"w{_W}-rows-zero-max"),
    pytest.param(_rows(lambda i: _DIGIT_MAX * (i == _TOP)), id=f"w{_W}-top-row-max"),
    pytest.param(_rows(lambda i: _DIGIT_MAX * (i != _TOP)), id=f"w{_W}-top-row-min"),
]
_EDGE_SCALARS = [
    pytest.param(bytes(32), id="all-zero"),  # clamps to 2^254
    pytest.param(b"\xff" * 32, id="all-ff"),
    pytest.param(_u(0x7 << 252), id="top-window-only"),
    *_WINDOW_SCALARS,
    *_COMB_SCALARS,
]

# Every non-canonical u below 2^255 (p .. 2^255 - 1, which the ladder
# takes unreduced), each also with the masked bit 255 set.
_NON_CANONICAL = [
    pytest.param(_u(value | high), id=f"u=p+{value - _P}{'+bit255' if high else ''}")
    for value in range(_P, 1 << 255)
    for high in (0, 1 << 255)
]

# Peers whose ladder ends at z2 = 0: the small-order points (0, 1, p-1
# and the two points of order 8), and non-canonical p and p+1, which
# decode to 0 and 1. Each also with the masked bit 255 set.
_ORDER_8 = (
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
)
_LOW_ORDER = [
    pytest.param(_u(value | high), id=f"u={name}{'+bit255' if high else ''}")
    for name, value in (
        ("0", 0), ("1", 1), ("p-1", _P - 1),
        ("order8a", _ORDER_8[0]), ("order8b", _ORDER_8[1]),
        ("p", _P), ("p+1", _P + 1),
    )
    for high in (0, 1 << 255)
]


class TestX25519:
    def test_public_key_matches_oracle(self, rng):
        for _ in range(8):
            private = rng.random_bytes(32)
            oracle = OracleX25519.from_private_bytes(private)
            expected = oracle.public_key().public_bytes(
                serialization.Encoding.Raw, serialization.PublicFormat.Raw
            )
            assert x25519_base(private) == expected

    def test_shared_secret_matches_oracle(self, rng):
        alice = rng.random_bytes(32)
        bob = rng.random_bytes(32)
        oracle_alice = OracleX25519.from_private_bytes(alice)
        oracle_bob = OracleX25519.from_private_bytes(bob)
        expected = oracle_alice.exchange(oracle_bob.public_key())
        assert x25519(alice, x25519_base(bob)) == expected

    def test_exchange_commutes(self, rng):
        alice = X25519PrivateKey(rng.random_bytes(32))
        bob = X25519PrivateKey(rng.random_bytes(32))
        assert alice.exchange(bob.public_bytes) == bob.exchange(alice.public_bytes)

    def test_distinct_peers_distinct_secrets(self, rng):
        alice = X25519PrivateKey(rng.random_bytes(32))
        bob = X25519PrivateKey(rng.random_bytes(32))
        carol = X25519PrivateKey(rng.random_bytes(32))
        assert alice.exchange(bob.public_bytes) != alice.exchange(carol.public_bytes)

    def test_bad_lengths_rejected(self):
        with pytest.raises(CryptoError):
            x25519(b"short", b"\x09" + b"\x00" * 31)
        with pytest.raises(CryptoError):
            x25519(b"\x01" * 32, b"short")

    @pytest.mark.parametrize("peer", _LOW_ORDER)
    def test_all_zero_peer_rejected(self, rng, peer):
        # Contributory-behaviour guard: a low-order point yields zero, and
        # the ladder must return it rather than fail to invert z2 = 0.
        private = rng.random_bytes(32)
        assert x25519(private, peer) == bytes(32)
        with pytest.raises(CryptoError):
            X25519PrivateKey(private).exchange(peer)


class TestX25519Cutover:
    """The base-point comb against the ladder and the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(private=_keys)
    def test_base_matches_ladder_and_oracle(self, private):
        assert x25519_base(private) == _ladder(_decode_scalar(private), 9) \
            == _oracle_public(private)

    @pytest.mark.parametrize("private", _EDGE_SCALARS)
    def test_edge_scalars(self, private):
        assert x25519_base(private) == _ladder(_decode_scalar(private), 9) \
            == _oracle_public(private)

    def test_table_follows_the_window(self):
        x25519_base(bytes(32))  # the first base-point call builds the table
        table = x25519_module._comb_table
        assert _W * (_ROWS - 1) < 255 <= _W * _ROWS  # no row to spare
        assert len(table) == _ROWS
        assert {len(row) for row in table} == {1 << _W}
        assert {row[0] for row in table} == {(1, 1, 2, 0)}  # the identity
        # Tuples of ints only: after one collection the collector stops
        # tracking every row and entry, so later full collections skip them.
        gc.collect()
        assert not any(gc.is_tracked(row) for row in table)
        assert not any(gc.is_tracked(entry) for row in table for entry in row)

    @settings(max_examples=25, deadline=None)
    @given(private=_keys, peer_private=_keys, raw_peer=_keys)
    def test_variable_base_matches_oracle(self, private, peer_private, raw_peer):
        for peer in (_oracle_public(peer_private), raw_peer):
            try:
                expected = _oracle_shared(private, peer)
            except ValueError:  # the oracle refuses an all-zero result
                expected = bytes(32)
            assert x25519(private, peer) == expected

    @pytest.mark.parametrize("peer", _NON_CANONICAL)
    @pytest.mark.parametrize("private", _WINDOW_SCALARS)
    def test_non_canonical_peer_matches_oracle(self, private, peer):
        try:
            expected = _oracle_shared(private, peer)
        except ValueError:  # p and p+1 decode to the low-order 0 and 1
            expected = bytes(32)
        assert x25519(private, peer) == expected

    @pytest.mark.parametrize("rounds", [1, 1000])
    def test_rfc7748_iteration_matches_oracle(self, rounds):
        # RFC 7748 §5.2: k = u = 9; each round sets k, u = X25519(k, u), k.
        # The oracle runs the same loop, so no vector is copied in.
        def iterate(scalar_mult):
            k = u = _u(9)
            for _ in range(rounds):
                k, u = scalar_mult(k, u), k
            return k

        assert iterate(x25519) == iterate(_oracle_shared)

    def test_base_point_takes_the_comb(self, rng, monkeypatch):
        private = rng.random_bytes(32)
        expected = _oracle_public(private)

        def no_ladder(k, u):
            raise AssertionError("the base point took the ladder")

        monkeypatch.setattr(x25519_module, "_ladder", no_ladder)
        assert x25519(private, _u(9)) == expected

    @pytest.mark.parametrize("encoding", [
        pytest.param(_u(9 | 1 << 255), id="bit255"),
        pytest.param(_u(9 + _P), id="9+p"),
    ])
    def test_non_canonical_nine_takes_the_ladder(self, rng, monkeypatch, encoding):
        private = rng.random_bytes(32)
        expected = x25519_base(private)

        def no_comb(k):
            raise AssertionError("a non-canonical 9 took the comb")

        monkeypatch.setattr(x25519_module, "_comb", no_comb)
        assert x25519(private, encoding) == expected

    def test_base_enters_through_x25519(self, rng, monkeypatch):
        # Key generation must stay visible to a probe on ``x25519``.
        calls = []
        real = x25519_module.x25519

        def counting(private, public):
            calls.append(public)
            return real(private, public)

        monkeypatch.setattr(x25519_module, "x25519", counting)
        x25519_base(rng.random_bytes(32))
        assert calls == [_u(9)]


class TestRSA:
    def test_sign_verify_roundtrip(self, rng):
        key = generate_rsa_key(1024, rng)
        signature = key.sign(b"the quick brown fox")
        assert key.public_key.verify(b"the quick brown fox", signature)

    def test_verify_rejects_wrong_message(self, rng):
        key = generate_rsa_key(1024, rng)
        signature = key.sign(b"message one")
        assert not key.public_key.verify(b"message two", signature)

    def test_verify_rejects_corrupted_signature(self, rng):
        key = generate_rsa_key(1024, rng)
        signature = bytearray(key.sign(b"message"))
        signature[10] ^= 0x01
        assert not key.public_key.verify(b"message", bytes(signature))

    def test_verify_rejects_wrong_length(self, rng):
        key = generate_rsa_key(1024, rng)
        assert not key.public_key.verify(b"message", b"\x00" * 10)

    def test_encrypt_decrypt_roundtrip(self, rng):
        key = generate_rsa_key(1024, rng)
        sealed = key.public_key.encrypt(b"pre-master-secret", rng)
        assert key.decrypt(sealed) == b"pre-master-secret"

    def test_decrypt_rejects_garbage(self, rng):
        key = generate_rsa_key(1024, rng)
        with pytest.raises(CryptoError):
            key.decrypt(b"\x01" * key.byte_length)

    def test_encrypt_rejects_oversize(self, rng):
        key = generate_rsa_key(1024, rng)
        with pytest.raises(CryptoError):
            key.public_key.encrypt(b"x" * (key.byte_length - 5), rng)

    def test_public_key_serialization_roundtrip(self, rng):
        key = generate_rsa_key(1024, rng)
        encoded = key.public_key.to_bytes()
        assert RSAPublicKey.from_bytes(encoded) == key.public_key

    def test_crt_constants_derived_once(self, rng):
        key = generate_rsa_key(1024, rng)
        assert key._dp == key.d % (key.p - 1)
        assert key._dq == key.d % (key.q - 1)
        assert key._q_inv * key.q % key.p == 1
        # Derived fields stay out of equality and repr.
        assert key == RSAPrivateKey(n=key.n, e=key.e, d=key.d, p=key.p, q=key.q)
        assert "_dp" not in repr(key)

    def test_keygen_bit_length(self, rng):
        key = generate_rsa_key(1024, rng)
        assert key.n.bit_length() == 1024

    def test_keygen_refuses_tiny_keys(self, rng):
        with pytest.raises(CryptoError):
            generate_rsa_key(256, rng)

    def test_miller_rabin_known_values(self, rng):
        assert is_probable_prime(2**127 - 1, rng)  # Mersenne prime
        assert not is_probable_prime(2**128 - 1, rng)
        assert not is_probable_prime(561, rng)  # Carmichael number
        assert is_probable_prime(2, rng)
        assert not is_probable_prime(1, rng)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


# The oracle's own trial-division list, built independently of rsa.py.
_ORACLE_SMALL_PRIMES = [p for p in range(2, 230) if _is_prime(p)]
_BOUND = rsa_module._SIEVE_BOUND
_LARGEST_SIEVED = next(p for p in range(_BOUND, 229, -1) if _is_prime(p))
_SMALLEST_UNSIEVED = next(p for p in range(_BOUND + 1, 2 * _BOUND) if _is_prime(p))
_BIG_PRIME = 2**521 - 1  # a Mersenne prime


def _oracle_is_prime(n: int, rng, rounds: int = 24) -> bool:
    """Plain Miller-Rabin: trial division by the primes up to 229, then
    ``rounds`` random bases, each a full-size modexp."""
    if n < 2:
        return False
    for p in _ORACLE_SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for _ in range(rounds):
        a = rng.randint_range(2, n - 2)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_SPECIAL = [
    *(pytest.param(p * _BIG_PRIME, id=f"p*q-p={p}")
      for p in (223, 233, _LARGEST_SIEVED, _SMALLEST_UNSIEVED)),
    # p - 1 divides p^2 - 1, so round 1's check passes for every base
    # coprime to p and the full test decides.
    *(pytest.param(p * p, id=f"p^2-p={p}") for p in (233, 1009, _LARGEST_SIEVED)),
    pytest.param(271 * 541 * 811, id="carmichael-271*541*811"),
    *(pytest.param(n, id=f"n={n}") for n in (1, 2, 3, 561)),
    pytest.param(2**127 - 1, id="2^127-1"),
    pytest.param(2**128 - 1, id="2^128-1"),
]


class TestPrimeSearchEquivalence:
    """The sieved prime test against the plain one: the same answer after
    the same draws, so the DRBG continues identically."""

    @staticmethod
    def _check(n: int, seed: bytes) -> bool:
        library_rng, oracle_rng = HmacDrbg(seed), HmacDrbg(seed)
        expected = _oracle_is_prime(n, oracle_rng)
        assert is_probable_prime(n, library_rng) == expected
        assert library_rng.random_bytes(32) == oracle_rng.random_bytes(32)
        return expected

    def test_seeded_candidates(self):
        rng = HmacDrbg(b"prime-search/candidates")
        candidates = [rng.randbits(512) | (1 << 511) | 1 for _ in range(300)]
        verdicts = [
            self._check(n, b"prime-search/%d" % i) for i, n in enumerate(candidates)
        ]
        # The set reaches every path past trial division: primes,
        # composites with a factor in (229, B], and composites without one.
        trial_divided = math.prod(_ORACLE_SMALL_PRIMES)
        sieved = {
            math.gcd(n, rsa_module._SIEVE_PRODUCT) > 1
            for n, prime in zip(candidates, verdicts)
            if not prime and math.gcd(n, trial_divided) == 1
        }
        assert any(verdicts)
        assert sieved == {True, False}

    @pytest.mark.parametrize("n", _SPECIAL)
    def test_special_values(self, n):
        for seed in range(4):
            self._check(n, b"prime-search/special/%d" % seed)


def _key_digest(key: RSAPrivateKey) -> str:
    return hashlib.sha256(repr((key.n, key.e, key.d, key.p, key.q)).encode()).hexdigest()


@pytest.fixture(scope="module")
def perf_pki_keys():
    """The benchmark deployment's four keys (``Chain`` in perf/workloads.py:
    CA, server, mb0, mb1), generated while counting the full-size modexps:
    ``pow`` calls with a non-negative exponent and a modulus of at least the
    primes' 512 bits."""
    calls = []

    def counting(base, exp, mod=None):
        if mod is not None and exp >= 0 and mod.bit_length() >= 512:
            calls.append(mod)
        return pow(base, exp, mod)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rsa_module, "pow", counting, raising=False)
        pki = HmacDrbg(b"perf/pki")
        keys = [generate_rsa_key(1024, pki.fork(b"ca"))]
        keys += [generate_rsa_key(1024, pki.fork(name)) for name in (b"server", b"mb0", b"mb1")]
    return keys, len(calls)


class TestPinnedKeys:
    """Keys are bit-identical to those of the plain prime search."""

    def test_perf_pki_keys(self, perf_pki_keys):
        keys, _ = perf_pki_keys
        assert [_key_digest(key) for key in keys] == [
            "7bfacdb156eda980f8198f6fdbf67f4734f7b7500f52674b587c45d93dac95e6",
            "35756ca96d19096bf6e01e75378a41d4118bf03dcb69f762718de9e6ffacc204",
            "19e21f3a9cd38b583d25cda175c3157f8ecac0c85fdb9871edc92f83fcd5b797",
            "835b915650fa361dc5160e629d192a9c13f005f0382bf627f1e0bb723ef81bdf",
        ]

    def test_perf_pki_full_size_modexps(self, perf_pki_keys):
        # The plain test took 962 for these keys; 8 primes x 24 rounds is
        # the floor.
        _, modexps = perf_pki_keys
        assert modexps == 723

    def test_512_bit_key(self):
        # The size netsim/downgrade.py draws for a forged warrant key.
        key = generate_rsa_key(512, HmacDrbg(b"downgrade/wrong_key"))
        assert _key_digest(key) == (
            "19e0e7f57f3109c945cd0720179d128db253112fdb4af77915ae0e6b0e5a3d4d"
        )

    def test_fleet_key(self):
        # The shared bench key of the fleet's PKI at the default seed.
        pki = Pki(rng=HmacDrbg(b"fleet-bench", personalization=b"fleet/pki"))
        assert _key_digest(pki.credential("mbcore").private_key) == (
            "7d57ddd7a4377133b34a86f936492a8803a1ac82082f2cfb7eb6c3d7d4e095ed"
        )


class TestDH:
    def test_modp_1024_is_validated_safe_prime(self):
        group = modp_group(1024)
        # The derivation itself Miller-Rabin-checks p and (p-1)/2; re-verify
        # the documented structure here.
        assert group.p.bit_length() == 1024
        assert group.p % 2 == 1
        assert group.g == 2

    def test_modp_known_prefix_suffix(self):
        # All RFC 2412-style MODP primes start and end with 64 one-bits.
        group = modp_group(1024)
        ones = (1 << 64) - 1
        assert group.p >> (1024 - 64) == ones
        assert group.p & ones == ones

    def test_unsupported_size_rejected(self):
        with pytest.raises(CryptoError):
            modp_group(3072)

    def test_exchange_commutes(self, rng):
        group = modp_group(1024)
        alice = DHPrivateKey(group, rng)
        bob = DHPrivateKey(group, rng)
        assert alice.exchange(bob.public_value) == bob.exchange(alice.public_value)

    def test_degenerate_public_values_rejected(self, rng):
        group = modp_group(1024)
        alice = DHPrivateKey(group, rng)
        for bad in (0, 1, group.p - 1, group.p):
            with pytest.raises(CryptoError):
                alice.exchange(bad)

    def test_group_cache_returns_same_object(self):
        assert modp_group(1024) is modp_group(1024)
