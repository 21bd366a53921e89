"""Key-derivation functions: the TLS 1.2 PRF (RFC 5246) and HKDF (RFC 5869)."""

from __future__ import annotations

import hashlib
import hmac

__all__ = ["prf", "p_hash", "hkdf_extract", "hkdf_expand", "hkdf"]


def p_hash(secret: bytes, seed: bytes, length: int, hash_name: str = "sha256") -> bytes:
    """The TLS P_hash data-expansion function."""
    output = bytearray()
    a = seed
    while len(output) < length:
        a = hmac.digest(secret, a, hash_name)
        output += hmac.digest(secret, a + seed, hash_name)
    return bytes(output[:length])


def prf(
    secret: bytes,
    label: bytes,
    seed: bytes,
    length: int,
    hash_name: str = "sha256",
) -> bytes:
    """The TLS 1.2 PRF: P_hash(secret, label || seed)."""
    return p_hash(secret, label + seed, length, hash_name)


def hkdf_extract(salt: bytes, ikm: bytes, hash_name: str = "sha256") -> bytes:
    """HKDF-Extract: PRK = HMAC(salt, IKM)."""
    if not salt:
        salt = b"\x00" * hashlib.new(hash_name).digest_size
    return hmac.digest(salt, ikm, hash_name)


def hkdf_expand(
    prk: bytes, info: bytes, length: int, hash_name: str = "sha256"
) -> bytes:
    """HKDF-Expand: derive ``length`` bytes of output keying material."""
    digest_size = hashlib.new(hash_name).digest_size
    if length > 255 * digest_size:
        raise ValueError("HKDF output too long")
    output = bytearray()
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), hash_name)
        output += block
        counter += 1
    return bytes(output[:length])


def hkdf(
    ikm: bytes,
    salt: bytes = b"",
    info: bytes = b"",
    length: int = 32,
    hash_name: str = "sha256",
) -> bytes:
    """Single-call HKDF extract-then-expand."""
    return hkdf_expand(hkdf_extract(salt, ikm, hash_name), info, length, hash_name)
