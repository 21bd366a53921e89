"""Key-derivation functions: the TLS 1.2 PRF (RFC 5246) and HKDF (RFC 5869).

``p_hash`` and ``hkdf_expand`` MAC many blocks under one key, so each
keys HMAC once: it hashes the padded key into the inner and outer hash
states (RFC 2104) and copies both per block.  That costs two hash-state
copies a block instead of keying a new HMAC, and no ``hmac.HMAC`` object.
"""

from __future__ import annotations

import hashlib
import hmac

__all__ = ["prf", "p_hash", "hkdf_extract", "hkdf_expand", "hkdf"]

_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _keyed(key: bytes, hash_name: str) -> tuple:
    """The inner and outer hash states of HMAC under ``key`` (RFC 2104)."""
    inner = hashlib.new(hash_name)
    outer = hashlib.new(hash_name)
    if len(key) > inner.block_size:
        key = hashlib.new(hash_name, key).digest()
    key = key.ljust(inner.block_size, b"\x00")
    inner.update(key.translate(_IPAD))
    outer.update(key.translate(_OPAD))
    return inner, outer


def _mac(keyed: tuple, data: bytes) -> bytes:
    """HMAC of ``data`` from the keyed states, which stay unchanged."""
    inner, outer = keyed
    inner = inner.copy()
    inner.update(data)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def p_hash(secret: bytes, seed: bytes, length: int, hash_name: str = "sha256") -> bytes:
    """The TLS P_hash data-expansion function."""
    keyed = _keyed(secret, hash_name)
    output = bytearray()
    a = seed
    while len(output) < length:
        a = _mac(keyed, a)
        output += _mac(keyed, a + seed)
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
    keyed = _keyed(prk, hash_name)
    digest_size = keyed[0].digest_size
    if length > 255 * digest_size:
        raise ValueError("HKDF output too long")
    output = bytearray()
    block = b""
    counter = 1
    while len(output) < length:
        block = _mac(keyed, block + info + bytes([counter]))
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
