"""RSA key generation and PKCS#1 v1.5 signatures/encryption, pure Python.

Key generation uses Miller-Rabin with random bases drawn from the caller's
RNG so the whole library stays deterministic under a seeded DRBG. Signatures
are RSASSA-PKCS1-v1_5 with SHA-256; encryption is RSAES-PKCS1-v1_5 (used by
the RSA key-exchange cipher suites).

The prime search sieves exactly. Trial division by the primes up to 229
rejects a candidate before any base is drawn. A candidate that survives it
gets ``g = gcd(n, _SIEVE_PRODUCT % n)``, the product of its distinct prime
factors in (229, 2^14]. Once the first base ``a`` is drawn, ``a^(n-1) != 1
(mod g)`` rejects ``n`` without the full-size modexp: every Miller-Rabin
pass implies ``a^(n-1) = 1 (mod n)``, hence modulo every divisor of ``n``.
So the sieve rejects only what round 1 would reject, after the same single
draw, and every candidate, DRBG stream and key is what the plain 24-round
test gives.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.errors import CryptoError

__all__ = ["RSAPublicKey", "RSAPrivateKey", "generate_rsa_key"]

# DigestInfo prefix for SHA-256 (RFC 8017 section 9.2 note 1).
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
]

#: The sieve's bound: the largest prime factor the round-1 check can see.
_SIEVE_BOUND = 1 << 14


def _sieve_product(low: int, high: int) -> int:
    """The product of the primes in (``low``, ``high``]."""
    composite = bytearray(high + 1)
    for p in range(2, math.isqrt(high) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\x01" * len(range(p * p, high + 1, p))
    return math.prod(p for p in range(low + 1, high + 1) if not composite[p])


_SIEVE_PRODUCT = _sieve_product(_SMALL_PRIMES[-1], _SIEVE_BOUND)


def is_probable_prime(n: int, rng, rounds: int = 24) -> bool:
    """Miller-Rabin primality test with ``rounds`` random bases.

    Round 1 first checks its base against the factors of ``n`` in
    (229, ``_SIEVE_BOUND``] (see the module docstring); the result and the
    draws taken from ``rng`` are those of the plain test.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    g = math.gcd(n, _SIEVE_PRODUCT % n)
    for i in range(rounds):
        a = rng.randint_range(2, n - 2)
        if i == 0 and g > 1 and pow(a, n - 1, g) != 1:
            return False
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


def _generate_prime(bits: int, rng) -> int:
    """Generate a random prime of exactly ``bits`` bits."""
    while True:
        candidate = rng.randbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # exact bit length, odd
        if is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key (n, e) with PKCS#1 v1.5 verify/encrypt."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify an RSASSA-PKCS1-v1_5 SHA-256 signature."""
        if len(signature) != self.byte_length:
            return False
        em = pow(int.from_bytes(signature, "big"), self.e, self.n)
        expected = self._encode_digest(message)
        return em == int.from_bytes(expected, "big")

    def encrypt(self, message: bytes, rng) -> bytes:
        """RSAES-PKCS1-v1_5 encryption (EME type 2 padding)."""
        k = self.byte_length
        if len(message) > k - 11:
            raise CryptoError("message too long for RSA modulus")
        padding = bytearray()
        while len(padding) < k - len(message) - 3:
            byte = rng.randbits(8)
            if byte:
                padding.append(byte)
        em = b"\x00\x02" + bytes(padding) + b"\x00" + message
        c = pow(int.from_bytes(em, "big"), self.e, self.n)
        return c.to_bytes(k, "big")

    def _encode_digest(self, message: bytes) -> bytes:
        digest = hashlib.sha256(message).digest()
        t = _SHA256_PREFIX + digest
        ps_len = self.byte_length - len(t) - 3
        if ps_len < 8:
            raise CryptoError("RSA modulus too small for SHA-256 signature")
        return b"\x00\x01" + b"\xff" * ps_len + b"\x00" + t

    def to_bytes(self) -> bytes:
        """Serialize as len(n) || n || len(e) || e (16-bit length prefixes)."""
        nb = self.n.to_bytes(self.byte_length, "big")
        eb = self.e.to_bytes((self.e.bit_length() + 7) // 8, "big")
        return (
            len(nb).to_bytes(2, "big") + nb + len(eb).to_bytes(2, "big") + eb
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RSAPublicKey":
        """Parse the serialization produced by :meth:`to_bytes`."""
        n_len = int.from_bytes(data[:2], "big")
        n = int.from_bytes(data[2 : 2 + n_len], "big")
        offset = 2 + n_len
        e_len = int.from_bytes(data[offset : offset + 2], "big")
        e = int.from_bytes(data[offset + 2 : offset + 2 + e_len], "big")
        if n == 0 or e == 0:
            raise CryptoError("malformed RSA public key encoding")
        return cls(n=n, e=e)


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key with CRT acceleration for sign/decrypt."""

    n: int
    e: int
    d: int
    p: int
    q: int
    # CRT exponents and coefficient, derived once per key.
    _dp: int = field(init=False, repr=False, compare=False)
    _dq: int = field(init=False, repr=False, compare=False)
    _q_inv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_dp", self.d % (self.p - 1))
        object.__setattr__(self, "_dq", self.d % (self.q - 1))
        object.__setattr__(self, "_q_inv", pow(self.q, -1, self.p))

    @property
    def public_key(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def _private_op(self, value: int) -> int:
        # CRT: roughly 4x faster than a full pow(value, d, n).
        mp = pow(value % self.p, self._dp, self.p)
        mq = pow(value % self.q, self._dq, self.q)
        h = (self._q_inv * (mp - mq)) % self.p
        return mq + h * self.q

    def sign(self, message: bytes) -> bytes:
        """Produce an RSASSA-PKCS1-v1_5 SHA-256 signature."""
        em = self.public_key._encode_digest(message)
        s = self._private_op(int.from_bytes(em, "big"))
        return s.to_bytes(self.byte_length, "big")

    def decrypt(self, ciphertext: bytes) -> bytes:
        """RSAES-PKCS1-v1_5 decryption; raises CryptoError on bad padding."""
        if len(ciphertext) != self.byte_length:
            raise CryptoError("RSA ciphertext has wrong length")
        em = self._private_op(int.from_bytes(ciphertext, "big"))
        padded = em.to_bytes(self.byte_length, "big")
        if padded[0] != 0 or padded[1] != 2:
            raise CryptoError("invalid PKCS#1 v1.5 padding")
        try:
            separator = padded.index(0, 2)
        except ValueError as exc:
            raise CryptoError("invalid PKCS#1 v1.5 padding") from exc
        if separator < 10:
            raise CryptoError("invalid PKCS#1 v1.5 padding")
        return padded[separator + 1 :]


def generate_rsa_key(bits: int, rng, e: int = 65537) -> RSAPrivateKey:
    """Generate an RSA key pair of ``bits`` modulus bits."""
    if bits < 512:
        raise CryptoError("refusing to generate RSA keys below 512 bits")
    while True:
        p = _generate_prime(bits // 2, rng)
        q = _generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError:
            continue  # e not invertible mod phi; re-draw primes
        return RSAPrivateKey(n=n, e=e, d=d, p=p, q=q)
